"""Per-chain Cole-Vishkin: the oracle for :mod:`repro.primitives.chain_coloring`.

The library colors all chains of a call in one whole-array pass.  This
is the implementation it replaced: it walks one chain at a time in
plain Python, with arbitrary-precision ints throughout.
``test_primitives_chain_coloring.py`` checks that both sides agree in
colors, rounds and errors on random sets of paths and cycles.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.errors import InvalidInstanceError
from repro.primitives.chain_coloring import ChainColoringResult
from repro.utils.chains import Chain


def _lowest_differing_bit(a: int, b: int) -> int:
    """Return the index of the lowest bit where ``a`` and ``b`` differ."""
    diff = a ^ b
    if diff == 0:
        raise InvalidInstanceError(
            f"adjacent chain items share the color {a}; initial coloring "
            "must be proper along the chain"
        )
    return (diff & -diff).bit_length() - 1


def _reduction_step(colors: Sequence[int], cyclic: bool) -> list[int]:
    """One synchronous Cole-Vishkin reduction round over the chain."""
    length = len(colors)
    new_colors = []
    for index, color in enumerate(colors):
        if index + 1 < length:
            successor = colors[index + 1]
        elif cyclic:
            successor = colors[0]
        else:
            # Path tail: pretend a successor with a different color.
            successor = color + 1
        bit = _lowest_differing_bit(color, successor)
        new_colors.append(2 * bit + ((color >> bit) & 1))
    return new_colors


def _shift_down_step(colors: list[int], target_class: int, cyclic: bool) -> None:
    """Recolor every item of ``target_class`` to a free color in {0,1,2},
    all at once."""
    length = len(colors)
    updates: dict[int, int] = {}
    for index, color in enumerate(colors):
        if color != target_class:
            continue
        forbidden = set()
        if index > 0:
            forbidden.add(colors[index - 1])
        elif cyclic:
            forbidden.add(colors[-1])
        if index + 1 < length:
            forbidden.add(colors[index + 1])
        elif cyclic:
            forbidden.add(colors[0])
        updates[index] = min({0, 1, 2} - forbidden)
    for index, color in updates.items():
        colors[index] = color


def three_color_chain(
    chain: Chain, initial_colors: Mapping[Hashable, int]
) -> ChainColoringResult:
    """3-color one chain from a proper initial coloring, item by item."""
    items = chain.items
    try:
        colors = [int(initial_colors[item]) for item in items]
    except KeyError as exc:
        raise InvalidInstanceError(f"missing initial color for {exc.args[0]!r}") from None
    if any(c < 0 for c in colors):
        raise InvalidInstanceError("initial colors must be non-negative")
    for left, right in chain.neighbor_pairs():
        if initial_colors[left] == initial_colors[right]:
            raise InvalidInstanceError(
                f"initial coloring is not proper: {left!r} and {right!r} "
                f"both have color {initial_colors[left]}"
            )

    iterations = 0
    while max(colors) > 5:
        colors = _reduction_step(colors, chain.cyclic)
        iterations += 1
    for target_class in (5, 4, 3):
        _shift_down_step(colors, target_class, chain.cyclic)

    return ChainColoringResult(
        colors=dict(zip(items, colors)), rounds=iterations + 3, iterations=iterations
    )


def three_color_chains(
    chains: Sequence[Chain], initial_colors: Mapping[Hashable, int]
) -> tuple[dict[Hashable, int], int]:
    """Color the chains one after another; rounds = max over chains."""
    combined: dict[Hashable, int] = {}
    rounds = 0
    for chain in chains:
        result = three_color_chain(chain, initial_colors)
        combined.update(result.colors)
        rounds = max(rounds, result.rounds)
    return combined, rounds
