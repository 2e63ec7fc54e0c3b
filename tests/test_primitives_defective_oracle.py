"""The index-based defective coloring agrees with the dict-based oracle.

:mod:`repro.primitives.defective` works on the edge index's arrays
over edge ids; ``defective_oracle`` keeps the per-edge dict version it
replaced.  On random graphs (random regular, complete bipartite, with
string labels and with integer labels whose ``repr`` order is not
their numeric order), random sub-instances and β from 1 to 4, both
must return the same colors, color count, rounds and groups, in the
same orders, or raise the same error.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defective_oracle as oracle
from repro.core.solver import compute_initial_edge_coloring
from repro.errors import AlgorithmInvariantError
from repro.graphs.edges import edge_set
from repro.graphs.generators import complete_bipartite, random_regular, star_graph
from repro.graphs.index import EdgeIndex
from repro.primitives import defective
from repro.utils.chains import chains_from_adjacency, chains_from_pairs


@st.composite
def base_graphs(draw) -> nx.Graph:
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=14))
        degree = draw(st.integers(min_value=1, max_value=min(7, n - 1)))
        if degree * n % 2:
            n += 1
        return random_regular(degree, n, seed=draw(st.integers(0, 2**16)))
    return complete_bipartite(
        draw(st.integers(min_value=1, max_value=7)),
        draw(st.integers(min_value=1, max_value=7)),
    )


@st.composite
def instances(draw):
    """A labelled graph, a sub-instance of it, β and an initial coloring."""
    graph = draw(base_graphs())
    nodes = sorted(graph.nodes())
    labels = draw(st.sampled_from(["plain", "strings", "wide ints"]))
    if labels == "strings":
        graph = nx.relabel_nodes(graph, {v: f"v{v}" for v in nodes})
    elif labels == "wide ints":
        # Labels of one and several digits: repr((2, 10)) < repr((2, 3)).
        wide = draw(
            st.lists(
                st.integers(0, 400), min_size=len(nodes), max_size=len(nodes),
                unique=True,
            )
        )
        graph = nx.relabel_nodes(graph, dict(zip(nodes, wide)))
    edges = edge_set(graph)
    subset = None
    if draw(st.booleans()):
        subset = draw(st.permutations(edges))[: draw(st.integers(0, len(edges)))]
    beta = draw(st.integers(min_value=1, max_value=4))
    initial, _palette, _rounds = compute_initial_edge_coloring(
        graph, seed=draw(st.integers(1, 50))
    )
    return graph, subset, beta, initial


def _outcome(function, *args, **kwargs):
    try:
        result = function(*args, **kwargs)
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)
    return (
        list(result.colors.items()),
        result.color_count,
        result.rounds,
        result.beta,
        [(node, list(groups.items())) for node, groups in result.groups.items()],
    )


def _both(graph, beta, initial, subset):
    index = EdgeIndex(graph)
    new = _outcome(
        defective.defective_edge_coloring, graph, beta, initial,
        index=index, edges=subset,
    )
    old = _outcome(
        oracle.defective_edge_coloring, graph, beta, initial,
        index=index, edges=subset,
    )
    return new, old


@settings(deadline=None, max_examples=150)
@given(instances())
def test_matches_the_oracle(instance):
    graph, subset, beta, initial = instance
    new, old = _both(graph, beta, initial, subset)
    assert new == old


@settings(deadline=None, max_examples=60)
@given(instances(), st.sampled_from(["missing", "negative", "improper", "beta 0"]))
def test_raises_what_the_oracle_raises(instance, fault):
    graph, subset, beta, initial = instance
    initial = dict(initial)
    edges = edge_set(graph) if subset is None else subset
    if fault == "beta 0":
        beta = 0
    elif not edges:
        return
    elif fault == "missing":
        del initial[edges[-1]]
    elif fault == "negative":
        initial[edges[0]] = -1
    else:
        initial = dict.fromkeys(initial, 7)
    new, old = _both(graph, beta, initial, subset)
    assert new == old
    if fault != "improper":  # an improper coloring fails only on a chain
        assert isinstance(new[0], type) and issubclass(new[0], Exception)


@settings(deadline=None, max_examples=150)
@given(instances())
def test_conflict_chains_match_chains_from_adjacency(instance):
    """Same chains, in the same order, orientation and cyclic flags."""
    graph, subset, beta, _initial = instance
    index = EdgeIndex(graph)
    ids = range(len(index)) if subset is None else index.ids(subset)
    if not ids:
        return
    group_size = 4 * beta

    groups, numbers = oracle.assign_groups_and_numbers(index, ids, group_size)
    temp_colors = oracle.temporary_colors([index.edges[i] for i in ids], numbers)
    expected = chains_from_adjacency(oracle.conflict_adjacency(groups, temp_colors))

    member = np.zeros(len(index), dtype=bool)
    member[ids] = True
    edge_ids, node_ids, group, numbers = defective._number_edges(
        index, member, group_size
    )
    pairs = defective._pair_indices(edge_ids, numbers, len(index), group_size)
    first, second = defective._conflict_pairs(
        index, edge_ids, node_ids, group, pairs
    )
    chains = chains_from_pairs(
        index.edges, np.flatnonzero(member), first, second, index.repr_rank
    )
    assert chains == expected


class TestInvariantErrors:
    """The numbering argument makes these unreachable from valid input;
    forged numbers and incidences still raise what the oracle raises."""

    def test_crowded_bucket(self, monkeypatch):
        graph = star_graph(5)
        initial, _palette, _rounds = compute_initial_edge_coloring(graph)

        def all_ones(index, member, group_size):
            edge_ids, node_ids, group, numbers = number_edges(
                index, member, group_size
            )
            return edge_ids, node_ids, group, np.ones_like(numbers)

        def oracle_all_ones(index, ids, group_size):
            groups, numbers = assign(index, ids, group_size)
            return groups, dict.fromkeys(numbers, 1)

        number_edges = defective._number_edges
        assign = oracle.assign_groups_and_numbers
        monkeypatch.setattr(defective, "_number_edges", all_ones)
        monkeypatch.setattr(oracle, "assign_groups_and_numbers", oracle_all_ones)
        new, old = _both(graph, 1, initial, None)
        assert new == old
        assert new[0] is AlgorithmInvariantError
        assert "more than two edges share a group" in new[1]

    def test_invalid_pair(self, monkeypatch):
        graph = star_graph(3)
        initial, _palette, _rounds = compute_initial_edge_coloring(graph)

        def numbers_past_the_group(index, member, group_size):
            edge_ids, node_ids, group, numbers = number_edges(
                index, member, group_size
            )
            return edge_ids, node_ids, group, numbers + group_size

        def oracle_numbers_past_the_group(index, ids, group_size):
            groups, numbers = assign(index, ids, group_size)
            return groups, {key: n + group_size for key, n in numbers.items()}

        number_edges = defective._number_edges
        assign = oracle.assign_groups_and_numbers
        monkeypatch.setattr(defective, "_number_edges", numbers_past_the_group)
        monkeypatch.setattr(
            oracle, "assign_groups_and_numbers", oracle_numbers_past_the_group
        )
        new, old = _both(graph, 1, initial, None)
        assert new == old
        assert new[0] is AlgorithmInvariantError
        assert "invalid number pair" in new[1]

    def test_conflict_degree_above_two(self):
        """Edge (0, 1) forged into three two-edge buckets at three nodes."""
        index = EdgeIndex(star_graph(4))
        a, b, c, d = index.edges
        edge_ids = np.array([0, 1, 0, 2, 0, 3])
        node_ids = np.array([0, 0, 1, 1, 2, 2])
        group = np.zeros(6, dtype=np.int64)
        pairs = np.zeros(len(index), dtype=np.int64)
        with pytest.raises(AlgorithmInvariantError) as new:
            defective._conflict_pairs(index, edge_ids, node_ids, group, pairs)
        groups = {"x": {a: 0, b: 0}, "y": {a: 0, c: 0}, "z": {a: 0, d: 0}}
        with pytest.raises(AlgorithmInvariantError) as old:
            oracle.conflict_adjacency(groups, dict.fromkeys(index.edges, (1, 2)))
        assert str(new.value) == str(old.value)
