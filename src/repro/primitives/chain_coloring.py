"""Cole-Vishkin style 3-coloring of paths and cycles.

Section 4.1 of the paper 3-colors the path/cycle conflict structures of
its defective coloring "in ``O(log* X)`` rounds" — this module is that
subroutine.  Given a chain whose items carry an initial proper coloring
with values below ``X`` (in our use: the initial ``O(Δ̄²)``-edge
coloring), the classic bit-trick reduction

    ``new_color = 2 * i + bit_i(color)``

where ``i`` is the lowest bit position at which ``color`` differs from
the successor's color, drops the palette from ``X`` to
``2 * ceil(log2 X)`` in one round.  Iterating reaches 6 colors after
``O(log* X)`` rounds, and three shift-down rounds finish the job:
classes 5, 4, 3 recolor (simultaneously within a class) to the smallest
free color in ``{0, 1, 2}``.

All chains of a call run at once, as in the paper: every round is one
whole-array pass over the items of the chains still reducing, with
flat color, successor and predecessor arrays.  The per-chain form it
replaced lives on as ``tests/chain_coloring_oracle.py``;
``tests/test_primitives_chain_coloring.py`` checks on random chain sets
that both agree in colors, rounds and errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.errors import InvalidInstanceError
from repro.utils.chains import Chain


@dataclass(frozen=True)
class ChainColoringResult:
    """Outcome of 3-coloring one chain.

    Attributes
    ----------
    colors:
        Item -> color in ``{0, 1, 2}``.
    rounds:
        Synchronous rounds consumed (reduction iterations + shift-down
        rounds).
    iterations:
        Number of bit-trick reduction iterations alone.
    """

    colors: dict[Hashable, int]
    rounds: int
    iterations: int


def _lowest_set_bit(values: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of every (positive) value."""
    low = values & -values
    if low.dtype == object:
        return np.array([v.bit_length() - 1 for v in low.tolist()], dtype=np.int64)
    # A power of two below 2**63 is exact as a float.
    return np.frexp(low)[1].astype(np.int64) - 1


def three_color_chain(
    chain: Chain, initial_colors: Mapping[Hashable, int]
) -> ChainColoringResult:
    """3-color ``chain`` starting from a proper initial coloring.

    Parameters
    ----------
    chain:
        The path or cycle to color.
    initial_colors:
        Item -> non-negative integer; adjacent items must differ.  In
        the paper's usage these are the colors of an initial
        ``X``-edge coloring, so the round count is ``O(log* X)``.

    Returns
    -------
    ChainColoringResult
        Proper 3-coloring of the chain and the rounds used.
    """
    colors, rounds = three_color_chains([chain], initial_colors)
    return ChainColoringResult(colors=colors, rounds=rounds, iterations=rounds - 3)


def three_color_chains(
    chains: Sequence[Chain], initial_colors: Mapping[Hashable, int]
) -> tuple[dict[Hashable, int], int]:
    """3-color many chains in parallel; rounds = max over chains.

    The chains are disjoint, so in the LOCAL model they run
    concurrently and the round cost is the maximum.  A chain stops
    reducing as soon as its own colors are all below 6; the rounds are
    its reduction iterations plus the three shift-down rounds.
    """
    if not chains:
        return {}, 0
    items = [item for chain in chains for item in chain.items]
    try:
        start = [int(initial_colors[item]) for item in items]
    except KeyError as exc:
        raise InvalidInstanceError(f"missing initial color for {exc.args[0]!r}") from None
    if min(start) < 0:
        raise InvalidInstanceError("initial colors must be non-negative")

    n = len(items)
    lengths = np.fromiter(map(len, chains), dtype=np.int64, count=len(chains))
    cyclic = np.fromiter(
        (chain.cyclic for chain in chains), dtype=bool, count=len(chains)
    )
    firsts = np.cumsum(lengths) - lengths
    lasts = firsts + lengths - 1
    # Slot n holds the color -1: the missing neighbor at a path's end.
    succ = np.arange(1, n + 1)
    succ[lasts] = np.where(cyclic, firsts, n)
    pred = np.arange(-1, n)
    pred[firsts] = np.where(cyclic, lasts, n)
    is_tail = np.zeros(n, dtype=bool)
    is_tail[lasts[~cyclic]] = True
    chain_of = np.repeat(np.arange(len(chains)), lengths)

    # Beyond int64 the first round is taken on Python ints.
    colors = np.array(start + [-1], dtype=np.int64 if max(start) < 2**62 else object)
    clash = np.flatnonzero(colors[:n] == colors[succ])
    if clash.size:
        left, right = int(clash[0]), int(succ[clash[0]])
        raise InvalidInstanceError(
            f"initial coloring is not proper: {items[left]!r} and "
            f"{items[right]!r} both have color {start[left]}"
        )

    # The bit-trick fixpoint is a palette of size 6 ({0..5}): with all
    # colors < 6 the lowest differing bit is at most 2, so new colors
    # stay below 6.  Each chain reduces until it is inside that fixpoint.
    iterations = np.zeros(len(chains), dtype=np.int64)
    while True:
        live = np.maximum.reduceat(colors[:n], firsts) > 5
        if not live.any():
            break
        iterations += live
        idx = np.flatnonzero(live[chain_of])
        own = colors[idx]
        # A path's tail compares against a made-up successor, own + 1.
        successor = np.where(is_tail[idx], own + 1, colors[succ[idx]])
        bit = _lowest_set_bit(own ^ successor)
        colors[idx] = 2 * bit + ((own >> bit) & 1)
        colors = colors.astype(np.int64, copy=False)

    # Items of one class are pairwise non-adjacent, so each class
    # recolors at once to the smallest color its neighbors leave free.
    for target_class in (5, 4, 3):
        idx = np.flatnonzero(colors[:n] == target_class)
        before, after = colors[pred[idx]], colors[succ[idx]]
        colors[idx] = np.where(
            (before != 0) & (after != 0),
            0,
            np.where((before != 1) & (after != 1), 1, 2),
        )

    return dict(zip(items, colors[:n].tolist())), int(iterations.max()) + 3
