"""Proper-coloring palette reduction on a conflict graph.

Two classic procedures, both operating on an arbitrary conflict graph
(the callers use the line graph):

* :func:`one_color_per_round_reduction` — the folklore reduction that
  removes one color per round (all items of the top class simultaneously
  pick a smaller free color).  ``m -> d + 1`` in ``m - (d + 1)`` rounds.
  Combined with Linial this realises the ``O(Δ² + log* n)`` bound the
  paper attributes to [Lin87].

* :func:`kuhn_wattenhofer_reduction` — the parallelised reduction of
  Szegedy-Vishwanathan / Kuhn-Wattenhofer [SV93, KW06]: split the ``m``
  classes into buckets of ``2(d + 1)`` consecutive classes with
  *disjoint* target palettes of size ``d + 1``; all buckets reduce in
  parallel, halving the palette at a cost of ``2(d + 1)`` rounds per
  halving.  ``m -> d + 1`` in ``O(d log(m / d))`` rounds, realising the
  ``O(Δ log Δ + log* n)`` baseline the paper cites.

Both return proper colorings over ``{0, ..., d}`` (d + 1 colors) and
exact round counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.errors import AlgorithmInvariantError, InvalidInstanceError
from repro.graphs.index import Csr, split_rows


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of a palette reduction.

    Attributes
    ----------
    colors:
        Item -> color in ``{0, ..., palette_size - 1}``: a dict, or a
        list aligned with the item ids (see
        :func:`kuhn_wattenhofer_reduction`).
    palette_size:
        Final palette size (``d + 1`` unless the input was smaller).
    rounds:
        Synchronous rounds consumed.
    """

    colors: dict[Hashable, int] | list[int]
    palette_size: int
    rounds: int


def _validate_proper(
    adjacency: Mapping[Hashable, list[Hashable]], colors: Mapping[Hashable, int]
) -> None:
    for item, neighbors in adjacency.items():
        if item not in colors:
            raise InvalidInstanceError(f"item {item!r} has no color")
        for neighbor in neighbors:
            if colors[item] == colors.get(neighbor):
                raise InvalidInstanceError(
                    f"input coloring is improper: {item!r} and {neighbor!r} "
                    f"share color {colors[item]}"
                )


def one_color_per_round_reduction(
    adjacency: Mapping[Hashable, list[Hashable]],
    colors: Mapping[Hashable, int],
) -> ReductionResult:
    """Reduce a proper ``m``-coloring to ``d + 1`` colors, one per round.

    Each round, every item of the currently largest class picks the
    smallest color ``<= d`` unused in its neighborhood (class members
    are non-adjacent, so simultaneous moves are safe).
    """
    if not adjacency:
        return ReductionResult(colors={}, palette_size=0, rounds=0)
    _validate_proper(adjacency, colors)
    degree = max(len(n) for n in adjacency.values())
    target = degree + 1
    working = {item: colors[item] for item in adjacency}
    rounds = 0
    palette = max(working.values()) + 1
    for class_value in range(palette - 1, target - 1, -1):
        rounds += 1
        members = [item for item, c in working.items() if c == class_value]
        for item in members:
            used = {working[n] for n in adjacency[item]}
            for candidate in range(target):
                if candidate not in used:
                    working[item] = candidate
                    break
            else:  # pragma: no cover — degree bound guarantees a hole
                raise AlgorithmInvariantError(
                    f"no free color <= {degree} for item {item!r}"
                )
    return ReductionResult(
        colors=working, palette_size=min(palette, target), rounds=rounds
    )


def kuhn_wattenhofer_reduction(
    adjacency: Mapping[Hashable, list[Hashable]] | Csr,
    colors: Mapping[Hashable, int] | Sequence[int],
) -> ReductionResult:
    """Reduce a proper ``m``-coloring to ``d + 1`` colors in ``O(d log m)``.

    One halving phase: bucket ``b`` owns source classes
    ``[2(d+1) b, 2(d+1)(b+1))`` and the target palette
    ``[(d+1) b, (d+1)(b+1))``.  Buckets work in parallel; inside a
    bucket the ``2(d+1)`` classes recolor sequentially into the
    bucket's target palette (at most ``d`` neighbors, ``d + 1`` targets
    — a hole always exists).  Cross-bucket conflicts are impossible
    because target palettes are disjoint, and new-vs-old collisions are
    avoided by namespacing new colors until the phase ends.

    Each phase costs ``2(d + 1)`` rounds and halves the class count, so
    the total is ``O(d log(m / d))`` rounds — with Linial's ``O(log* n)``
    start this is the [SV93, KW06] edge coloring baseline.

    ``adjacency`` is a mapping or a compiled
    :class:`~repro.graphs.index.Csr`; ``colors`` a mapping, or a
    sequence aligned with the ids of a compiled ``adjacency``.  The
    result's ``colors`` has the same form.  A mapping result lists the
    items in the order the last phase recolored them.
    """
    graph = adjacency if isinstance(adjacency, Csr) else Csr.from_adjacency(adjacency)
    if not isinstance(colors, Mapping):
        working, order, rounds = _kw_phases(graph, [int(c) for c in colors])
        return ReductionResult(
            colors=working,
            palette_size=max(working, default=-1) + 1,
            rounds=rounds,
        )
    items = graph.items
    for item in items:
        if item not in colors:
            raise InvalidInstanceError(f"item {item!r} has no color")
    working, order, rounds = _kw_phases(graph, [colors[item] for item in items])
    return ReductionResult(
        colors={items[i]: working[i] for i in order},
        palette_size=max(working, default=-1) + 1,
        rounds=rounds,
    )


def _kw_phases(graph: Csr, working: list[int]) -> tuple[list[int], list[int], int]:
    """:func:`kuhn_wattenhofer_reduction` on ids.

    Returns the final colors by id, the ids in the order the last phase
    recolored them, and the rounds.  Each phase buckets its movers by
    step once instead of rescanning every item at each step.
    """
    order = list(range(len(working)))
    if not order:
        return working, order, 0
    owners, labels = graph.slot_owners(), np.array(working)
    clash = np.flatnonzero(labels[owners] == labels[graph.neighbors])
    if clash.size:
        owner = int(owners[clash[0]])
        neighbor = graph.items[int(graph.neighbors[clash[0]])]
        raise InvalidInstanceError(
            f"input coloring is improper: {graph.items[owner]!r} and "
            f"{neighbor!r} share color {working[owner]}"
        )
    # Sliced here, not cached by ``graph.rows()``: ``graph`` may be a
    # solve's whole EdgeIndex, which never holds its rows as lists.
    rows = split_rows(graph.row_start, graph.neighbors)
    target = int(graph.degrees.max()) + 1
    bucket_span = 2 * target
    rounds = 0

    while max(working) + 1 > target:
        palette = max(working) + 1
        # One round per step: in every bucket simultaneously, the items
        # whose class is the bucket's step-th source class recolor.
        movers: list[list[int]] = [[] for _ in range(bucket_span)]
        for i in order:
            movers[working[i] % bucket_span].append(i)
        # New colors live in a separate namespace during the phase
        # (-1: not yet recolored).
        fresh = [-1] * len(working)
        for step_movers in movers:
            for i in step_movers:
                base = working[i] // bucket_span * target
                used = 0
                for n in rows[i]:
                    offset = fresh[n] - base
                    if 0 <= offset < target:
                        used |= 1 << offset
                hole = (~used & (used + 1)).bit_length() - 1
                if hole >= target:  # pragma: no cover — d+1 targets > d neighbors
                    raise AlgorithmInvariantError(
                        f"bucket {working[i] // bucket_span} ran out of "
                        f"target colors for {graph.items[i]!r}"
                    )
                fresh[i] = base + hole
        rounds += bucket_span
        order = [i for step_movers in movers for i in step_movers]
        working = fresh
        new_palette = max(working) + 1
        if new_palette >= palette:
            raise AlgorithmInvariantError(
                "KW phase failed to shrink the palette "
                f"({palette} -> {new_palette})"
            )

    return working, order, rounds
