"""Dict-based Kuhn–Wattenhofer: the oracle for
:func:`repro.primitives.color_reduction.kuhn_wattenhofer_reduction`.

The library runs the reduction on a compiled conflict graph over ids
and buckets each phase's movers once.  This is the implementation it
replaced: item-keyed dicts, rescanning every item at each of a phase's
``2(d+1)`` steps.  ``test_primitives_kw_oracle.py`` checks that
both sides agree in colors (and their order), palette size and rounds.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.errors import AlgorithmInvariantError, InvalidInstanceError
from repro.primitives.color_reduction import ReductionResult


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


def kuhn_wattenhofer_reduction(
    adjacency: Mapping[Hashable, list[Hashable]],
    colors: Mapping[Hashable, int],
) -> ReductionResult:
    """Reduce a proper ``m``-coloring to ``d + 1`` colors, one dict step at a time."""
    if not adjacency:
        return ReductionResult(colors={}, palette_size=0, rounds=0)
    _validate_proper(adjacency, colors)
    degree = max(len(n) for n in adjacency.values())
    target = degree + 1
    working = {item: colors[item] for item in adjacency}
    rounds = 0

    while max(working.values()) + 1 > target:
        palette = max(working.values()) + 1
        bucket_span = 2 * target
        # New colors live in a separate namespace during the phase.
        fresh: dict[Hashable, int] = {}
        for step in range(bucket_span):
            # One round: in every bucket simultaneously, the items whose
            # class is the bucket's step-th source class recolor.
            rounds += 1
            movers = [
                item
                for item, c in working.items()
                if item not in fresh and c % bucket_span == step
            ]
            for item in movers:
                bucket = working[item] // bucket_span
                base = bucket * target
                used = {
                    fresh[n]
                    for n in adjacency[item]
                    if n in fresh and base <= fresh[n] < base + target
                }
                for candidate in range(base, base + target):
                    if candidate not in used:
                        fresh[item] = candidate
                        break
                else:  # pragma: no cover — d+1 targets vs <= d neighbors
                    raise AlgorithmInvariantError(
                        f"bucket {bucket} ran out of target colors for {item!r}"
                    )
        unmoved = [item for item in working if item not in fresh]
        if unmoved:  # pragma: no cover — every class index is swept
            raise AlgorithmInvariantError(
                f"{len(unmoved)} items were never recolored in a KW phase"
            )
        working = fresh
        new_palette = max(working.values()) + 1
        if new_palette >= palette:
            raise AlgorithmInvariantError(
                "KW phase failed to shrink the palette "
                f"({palette} -> {new_palette})"
            )

    return ReductionResult(
        colors=working, palette_size=max(working.values()) + 1, rounds=rounds
    )
