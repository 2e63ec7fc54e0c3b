"""Tests for path/cycle chain decomposition."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidInstanceError
from repro.utils.chains import (
    Chain,
    chains_from_adjacency,
    chains_from_pairs,
    validate_chain_cover,
)


def _path_adjacency(n: int) -> dict:
    adj = {i: [] for i in range(n)}
    for i in range(n - 1):
        adj[i].append(i + 1)
        adj[i + 1].append(i)
    return adj


def _cycle_adjacency(n: int) -> dict:
    adj = _path_adjacency(n)
    adj[0].append(n - 1)
    adj[n - 1].append(0)
    return adj


class TestChain:
    def test_path_endpoints_have_no_wraparound(self):
        chain = Chain((1, 2, 3), cyclic=False)
        assert chain.predecessor(0) is None
        assert chain.successor(2) is None
        assert chain.successor(0) == 2

    def test_cycle_wraps(self):
        chain = Chain((1, 2, 3), cyclic=True)
        assert chain.predecessor(0) == 3
        assert chain.successor(2) == 1

    def test_neighbor_pairs_path_vs_cycle(self):
        assert Chain((1, 2, 3), cyclic=False).neighbor_pairs() == [(1, 2), (2, 3)]
        assert Chain((1, 2, 3), cyclic=True).neighbor_pairs() == [
            (1, 2), (2, 3), (3, 1),
        ]

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(InvalidInstanceError):
            Chain((), cyclic=False)
        with pytest.raises(InvalidInstanceError):
            Chain((1, 1), cyclic=False)

    def test_rejects_short_cycle(self):
        with pytest.raises(InvalidInstanceError):
            Chain((1, 2), cyclic=True)


class TestChainsFromAdjacency:
    def test_single_path(self):
        chains = chains_from_adjacency(_path_adjacency(5))
        assert len(chains) == 1
        assert not chains[0].cyclic
        assert len(chains[0]) == 5

    def test_single_cycle(self):
        chains = chains_from_adjacency(_cycle_adjacency(6))
        assert len(chains) == 1
        assert chains[0].cyclic
        assert len(chains[0]) == 6

    def test_isolated_items_become_singletons(self):
        chains = chains_from_adjacency({"a": [], "b": []})
        assert sorted(len(c) for c in chains) == [1, 1]
        assert all(not c.cyclic for c in chains)

    def test_mixed_components(self):
        adj = _path_adjacency(3)
        cycle = {f"c{i}": [f"c{(i + 1) % 4}", f"c{(i - 1) % 4}"] for i in range(4)}
        adj.update(cycle)
        chains = chains_from_adjacency(adj)
        kinds = sorted((c.cyclic, len(c)) for c in chains)
        assert kinds == [(False, 3), (True, 4)]

    def test_path_order_is_consistent(self):
        chains = chains_from_adjacency(_path_adjacency(4))
        items = chains[0].items
        # consecutive items must be adjacent in the input
        for a, b in zip(items, items[1:]):
            assert abs(a - b) == 1

    def test_order_and_orientation_are_pinned(self):
        # Paths first, each walked from its repr-smallest endpoint and
        # listed in that endpoint's repr order; then cycles, each from
        # its repr-smallest item towards the repr-smaller neighbour.
        # The cycle's items sort before every path's, and still come
        # last.  Orientation fixes each item's Cole-Vishkin successor.
        adj = {
            "a": ["b", "c"], "b": ["a"], "c": ["a"],
            "e": ["d"], "d": ["e"],
            "m": [],
            "A": ["C", "B"], "B": ["A", "C"], "C": ["B", "A"],
        }
        chains = chains_from_adjacency(adj)
        assert [(c.items, c.cyclic) for c in chains] == [
            (("b", "a", "c"), False),
            (("d", "e"), False),
            (("m",), False),
            (("A", "B", "C"), True),
        ]

    def test_rejects_degree_three(self):
        adj = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}
        with pytest.raises(InvalidInstanceError):
            chains_from_adjacency(adj)

    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidInstanceError):
            chains_from_adjacency({0: [1], 1: []})

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInstanceError):
            chains_from_adjacency({0: [0]})

    @given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6))
    def test_cover_property_on_disjoint_paths(self, lengths):
        adj: dict = {}
        label = 0
        for length in lengths:
            nodes = list(range(label, label + length))
            label += length
            for node in nodes:
                adj[node] = []
            for a, b in zip(nodes, nodes[1:]):
                adj[a].append(b)
                adj[b].append(a)
        chains = chains_from_adjacency(adj)
        validate_chain_cover(chains, adj.keys())  # raises on violation


def _as_pairs(items: list, adjacency: dict) -> tuple:
    """``chains_from_pairs`` arguments for ``adjacency`` over ``items``."""
    position = {item: i for i, item in enumerate(items)}
    edges = {
        tuple(sorted((position[a], position[b])))
        for a, neighbors in adjacency.items()
        for b in neighbors
    }
    first = np.array([a for a, _b in sorted(edges)], dtype=np.int64)
    second = np.array([b for _a, b in sorted(edges)], dtype=np.int64)
    rank = np.empty(len(items), dtype=np.int64)
    rank[sorted(range(len(items)), key=lambda i: repr(items[i]))] = np.arange(
        len(items)
    )
    members = np.array([position[item] for item in adjacency], dtype=np.int64)
    return items, members, first, second, rank


class TestChainsFromPairs:
    def test_order_and_orientation_are_pinned(self):
        adj = {
            "a": ["b", "c"], "b": ["a"], "c": ["a"],
            "e": ["d"], "d": ["e"],
            "m": [],
            "A": ["C", "B"], "B": ["A", "C"], "C": ["B", "A"],
        }
        items = ["m", "e", "C", "a", "B", "d", "c", "A", "b", "unused"]
        chains = chains_from_pairs(*_as_pairs(items, adj))
        assert [(c.items, c.cyclic) for c in chains] == [
            (("b", "a", "c"), False),
            (("d", "e"), False),
            (("m",), False),
            (("A", "B", "C"), True),
        ]

    def test_rejects_degree_three(self):
        adj = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}
        with pytest.raises(InvalidInstanceError):
            chains_from_pairs(*_as_pairs([0, 1, 2, 3], adj))

    def test_no_members(self):
        empty = np.empty(0, dtype=np.int64)
        assert chains_from_pairs(["x"], empty, empty, empty, np.zeros(1)) == []

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=7)),
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_agrees_with_chains_from_adjacency(self, components, rng):
        """Random paths and cycles over labels whose repr order is not
        their numeric order, listed in random orders."""
        shapes = [(cyclic, max(length, 3) if cyclic else length)
                  for cyclic, length in components]
        labels = rng.sample(range(400), sum(length for _, length in shapes) + 3)
        adj: dict = {}
        taken = 0
        for cyclic, length in shapes:
            nodes = labels[taken : taken + length]
            taken += length
            for node in nodes:
                adj[node] = []
            ring = list(zip(nodes, nodes[1:]))
            if cyclic:
                ring.append((nodes[-1], nodes[0]))
            for a, b in ring:
                adj[a].append(b)
                adj[b].append(a)
        for neighbors in adj.values():
            rng.shuffle(neighbors)
        keys = list(adj)
        rng.shuffle(keys)
        adj = {key: adj[key] for key in keys}
        items = labels[:]
        rng.shuffle(items)  # three ids stay outside the members
        assert chains_from_pairs(*_as_pairs(items, adj)) == chains_from_adjacency(adj)


class TestValidateChainCover:
    def test_detects_missing_item(self):
        chains = [Chain((1, 2), cyclic=False)]
        with pytest.raises(InvalidInstanceError):
            validate_chain_cover(chains, [1, 2, 3])

    def test_detects_duplicate_item(self):
        chains = [Chain((1, 2), cyclic=False), Chain((2, 3), cyclic=False)]
        with pytest.raises(InvalidInstanceError):
            validate_chain_cover(chains, [1, 2, 3])

    def test_detects_unknown_item(self):
        chains = [Chain((1, 9), cyclic=False)]
        with pytest.raises(InvalidInstanceError):
            validate_chain_cover(chains, [1])
