"""Path/cycle ("chain") decomposition of degree-<=2 conflict graphs.

The defective edge coloring of Section 4.1 produces, for every
temporary color, a conflict graph of maximum degree 2 — a disjoint
union of paths and cycles.  The paper then 3-colors each chain in
``O(log* X)`` rounds with a Cole-Vishkin style procedure.  This module
extracts the chains from an adjacency structure so the chain coloring
primitive (:mod:`repro.primitives.chain_coloring`) can run on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from repro.errors import InvalidInstanceError


@dataclass(frozen=True)
class Chain:
    """An ordered path or cycle over arbitrary hashable items.

    Attributes
    ----------
    items:
        The chain's items in path order.  For a cycle the successor of
        ``items[-1]`` is ``items[0]``.
    cyclic:
        ``True`` if the chain is a cycle, ``False`` for a path.
    """

    items: tuple[Hashable, ...]
    cyclic: bool

    def __post_init__(self) -> None:
        if not self.items:
            raise InvalidInstanceError("a chain must contain at least one item")
        if len(set(self.items)) != len(self.items):
            raise InvalidInstanceError("chain items must be distinct")
        if self.cyclic and len(self.items) < 3:
            raise InvalidInstanceError(
                f"a cycle needs at least 3 items, got {len(self.items)}"
            )

    def __len__(self) -> int:
        return len(self.items)

    def successor(self, index: int) -> Hashable | None:
        """Return the successor of ``items[index]``, or ``None`` at a path end."""
        if index == len(self.items) - 1:
            return self.items[0] if self.cyclic else None
        return self.items[index + 1]

    def predecessor(self, index: int) -> Hashable | None:
        """Return the predecessor of ``items[index]``, or ``None`` at a path start."""
        if index == 0:
            return self.items[-1] if self.cyclic else None
        return self.items[index - 1]

    def neighbor_pairs(self) -> list[tuple[Hashable, Hashable]]:
        """Return the adjacent (item, item) pairs along the chain."""
        pairs = [
            (self.items[i], self.items[i + 1]) for i in range(len(self.items) - 1)
        ]
        if self.cyclic:
            pairs.append((self.items[-1], self.items[0]))
        return pairs


def chains_from_adjacency(
    adjacency: Mapping[Hashable, Iterable[Hashable]],
) -> list[Chain]:
    """Decompose a max-degree-2 graph into its paths and cycles.

    Parameters
    ----------
    adjacency:
        Symmetric adjacency mapping; every item must list at most two
        neighbors and the relation must be symmetric.

    Returns
    -------
    list[Chain]
        One chain per connected component.  Isolated items become
        length-1 paths.  The order is deterministic, so simulations
        are reproducible: first every path, walked from its
        repr-smallest endpoint and listed in that endpoint's repr
        order; then every cycle, walked from its repr-smallest item
        towards the repr-smaller of that item's two neighbours.  So
        ``{a: [b, c], b: [a], c: [a]}`` yields the path ``(b, a, c)``.
        The orientation is behaviour: it fixes each item's successor
        in the Cole-Vishkin chain coloring.

    Raises
    ------
    InvalidInstanceError
        If some item has more than two neighbors or the adjacency is
        not symmetric.
    """
    neighbor_sets: dict[Hashable, set[Hashable]] = {}
    for item, neighbors in adjacency.items():
        neighbor_sets[item] = set(neighbors)
        if item in neighbor_sets[item]:
            raise InvalidInstanceError(f"self-loop at chain item {item!r}")
        if len(neighbor_sets[item]) > 2:
            raise InvalidInstanceError(
                f"item {item!r} has degree {len(neighbor_sets[item])} > 2; "
                "not a union of paths and cycles"
            )
    for item, neighbors in neighbor_sets.items():
        for other in neighbors:
            if other not in neighbor_sets or item not in neighbor_sets[other]:
                raise InvalidInstanceError(
                    f"adjacency is not symmetric between {item!r} and {other!r}"
                )

    visited: set[Hashable] = set()
    chains: list[Chain] = []
    ordering = sorted(neighbor_sets, key=repr)

    # First extract paths, starting from degree-<=1 endpoints.
    for start in ordering:
        if start in visited or len(neighbor_sets[start]) > 1:
            continue
        path = _walk_from(start, neighbor_sets, visited)
        chains.append(Chain(tuple(path), cyclic=False))

    # Everything unvisited now lies on cycles.
    for start in ordering:
        if start in visited:
            continue
        cycle = _walk_from(start, neighbor_sets, visited)
        chains.append(Chain(tuple(cycle), cyclic=True))

    return chains


def _walk_from(
    start: Hashable,
    neighbor_sets: Mapping[Hashable, set[Hashable]],
    visited: set[Hashable],
) -> list[Hashable]:
    """Walk a component from ``start``, marking items visited."""
    walk = [start]
    visited.add(start)
    current = start
    while True:
        next_items = [n for n in neighbor_sets[current] if n not in visited]
        if not next_items:
            return walk
        # Deterministic tie-break for the (cycle-start) case with two
        # unvisited neighbors.
        current = min(next_items, key=repr)
        visited.add(current)
        walk.append(current)


def validate_chain_cover(
    chains: Sequence[Chain], items: Iterable[Hashable]
) -> None:
    """Check that ``chains`` partition ``items`` exactly once.

    Raises
    ------
    InvalidInstanceError
        If an item appears in zero or multiple chains, or a chain
        contains an unknown item.
    """
    expected = set(items)
    seen: set[Hashable] = set()
    for chain in chains:
        for item in chain.items:
            if item in seen:
                raise InvalidInstanceError(f"item {item!r} appears in two chains")
            if item not in expected:
                raise InvalidInstanceError(f"unexpected chain item {item!r}")
            seen.add(item)
    missing = expected - seen
    if missing:
        raise InvalidInstanceError(f"items missing from chain cover: {missing!r}")
