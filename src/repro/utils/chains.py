"""Path/cycle ("chain") decomposition of degree-<=2 conflict graphs.

The defective edge coloring of Section 4.1 produces, for every
temporary color, a conflict graph of maximum degree 2 — a disjoint
union of paths and cycles.  The paper then 3-colors each chain in
``O(log* X)`` rounds with a Cole-Vishkin style procedure.  This module
extracts the chains from an adjacency structure so the chain coloring
primitive (:mod:`repro.primitives.chain_coloring`) can run on them:
:func:`chains_from_adjacency` from a mapping over arbitrary items,
:func:`chain_walks` from conflict pairs over dense ids, in the same
order, as one flat walk of ids with per-chain lengths and cyclic flags
(the defective coloring's form: no :class:`Chain` object is built),
and :func:`chains_from_pairs`, the same chains as :class:`Chain`
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

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


def chain_walks(
    items: Sequence[Hashable],
    members: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    rank: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`chains_from_adjacency` on dense ids, as flat id walks.

    Parameters
    ----------
    items:
        ``items[i]`` is the item with id ``i``; read only to name an
        item in an error.
    members:
        The distinct ids to cover.
    first / second:
        The graph's edges ``{first[k], second[k]}``, between members;
        no pair repeats.
    rank:
        Per id, its position in the order that stands in for ``repr``.

    Returns
    -------
    tuple[np.ndarray, np.ndarray, np.ndarray]
        ``(walk, lengths, cyclic)``: the ids of every chain in path
        order, concatenated, then each chain's length and cyclic flag.
        The chains are the ones :func:`chains_from_adjacency` returns
        for the same graph when ``rank`` orders the items as ``repr``
        does: the paths by their rank-smaller endpoint, each walked
        from it, then the cycles by their rank-smallest item, each
        walked from it towards its rank-smaller neighbour.  Members
        without a neighbour, usually most of them, are length-1 paths
        placed by array operations; only the others are walked one by
        one.

    Raises
    ------
    InvalidInstanceError
        If some item has more than two neighbors.
    """
    size = len(rank)
    ends = np.concatenate([first, second])
    others = np.concatenate([second, first])
    degree = np.bincount(ends, minlength=size)
    if ends.size and degree.max() > 2:
        _raise_degree_above_two(items, first, second)
    # Each item's neighbours, -1 where it has fewer than two.  Which one
    # is ``near`` does not matter: a path is walked from an end, and a
    # cycle towards its start's rank-smaller neighbour.
    near = np.full(size, -1, dtype=np.int64)
    near[ends] = others
    sums = np.bincount(ends, weights=others, minlength=size).astype(np.int64)
    far = np.where(degree == 2, sums - near, -1)

    ordered = members[np.argsort(rank[members], kind="stable")]
    # A path starts at every lone member and at the rank-smaller end of
    # every longer path; paths are listed by their start's rank.  Only
    # the members with a neighbour are walked, in rank order.
    starts = degree[ordered] == 0
    linked = ordered[~starts]
    ids = linked.tolist()
    near_of = dict(zip(ids, near[linked].tolist()))
    far_of = dict(zip(ids, far[linked].tolist()))
    visited: set[int] = set()
    paths: dict[int, list[int]] = {}
    cycles: list[list[int]] = []
    for start in ids:
        if start not in visited and far_of[start] < 0:
            paths[start] = _walk_ids(start, near_of[start], near_of, far_of, visited)
    for start in ids:
        if start not in visited:
            one, other = near_of[start], far_of[start]
            step = one if rank[one] < rank[other] else other
            cycles.append(_walk_ids(start, step, near_of, far_of, visited))

    if paths:
        position = np.empty(size, dtype=np.int64)
        position[ordered] = np.arange(len(ordered))
        starts[position[list(paths)]] = True
    heads = ordered[starts]
    lengths = np.ones(len(heads), dtype=np.int64)
    longer = np.flatnonzero(degree[heads]).tolist()
    for k in longer:
        lengths[k] = len(paths[int(heads[k])])
    offsets = np.cumsum(lengths) - lengths
    walk = np.empty(len(ordered), dtype=np.int64)
    walk[offsets] = heads
    for k in longer:
        walk[offsets[k] : offsets[k] + lengths[k]] = paths[int(heads[k])]
    if cycles:
        cycle_ids = [i for cycle in cycles for i in cycle]
        walk[len(walk) - len(cycle_ids) :] = cycle_ids
        lengths = np.concatenate([lengths, [len(cycle) for cycle in cycles]])
    cyclic = np.zeros(len(lengths), dtype=bool)
    cyclic[len(heads) :] = True
    return walk, lengths, cyclic


def _raise_degree_above_two(
    items: Sequence[Hashable], first: np.ndarray, second: np.ndarray
) -> None:
    """Raise for the first item, in pair order, to meet a third neighbour."""
    met: dict[int, int] = {}
    for pair in zip(first.tolist(), second.tolist()):
        for item in pair:
            met[item] = met.get(item, 0) + 1
            if met[item] > 2:
                raise InvalidInstanceError(
                    f"item {items[item]!r} has more than two neighbors; "
                    "not a union of paths and cycles"
                )


def _walk_ids(
    start: int,
    step: int,
    near: dict[int, int],
    far: dict[int, int],
    visited: set[int],
) -> list[int]:
    """Walk a chain from ``start`` through its neighbour ``step`` until
    it ends or closes; marks the ids visited."""
    visited.add(start)
    walk = [start]
    previous, current = start, step
    while current >= 0 and current != start:
        visited.add(current)
        walk.append(current)
        following = near[current]
        if following == previous:
            following = far[current]
        previous, current = current, following
    return walk


def chains_from_pairs(
    items: Sequence[Hashable],
    members: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    rank: np.ndarray,
) -> list[Chain]:
    """The chains of :func:`chain_walks` as :class:`Chain` objects, in
    the same order: exactly what :func:`chains_from_adjacency` returns
    for the same graph when ``rank`` orders the items as ``repr`` does.
    """
    walk, lengths, cyclic = chain_walks(items, members, first, second, rank)
    walk = walk.tolist()
    chains = []
    start = 0
    for length, closed in zip(lengths.tolist(), cyclic.tolist()):
        chain = tuple(items[i] for i in walk[start : start + length])
        chains.append(Chain(chain, cyclic=closed))
        start += length
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
