"""A cold solve's compile step against the constructions it replaced.

``compile_oracle`` keeps the replaced ``EdgeIndex`` build (a loop over
``graph.edges()``, ``repr`` of every edge tuple) and the initial
coloring seeded by one ``edge_identifier`` call per edge; the direct
``complete_bipartite`` build is checked against relabelling networkx's
graph.  Each must agree exactly: same values, same orders, same dtypes.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compile_oracle as oracle
from repro.coloring.lists import uniform_lists
from repro.coloring.palette import Palette
from repro.core.ledger import RoundLedger
from repro.core.params import scaled_policy
from repro.core.solver import RecursiveSolver, compute_initial_edge_coloring
from repro.errors import InvalidInstanceError
from repro.graphs.generators import (
    _relabel_to_integers,
    complete_bipartite,
    random_regular,
)
from repro.graphs.index import Csr, EdgeIndex
from repro.graphs.properties import max_degree

# Int labels past 10 (repr order differs from numeric order), strings
# that look like reprs, tuples, and all three in one graph.
LABEL = st.one_of(
    st.integers(min_value=0, max_value=150),
    st.text(alphabet="ab1(, '", min_size=1, max_size=3),
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
)


@st.composite
def graphs(draw, self_loops=False):
    """Graphs of mixed labels, possibly empty or with isolated nodes."""
    nodes = draw(st.lists(LABEL, max_size=14, unique=True))
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    if nodes:
        position = st.integers(0, len(nodes) - 1)
        pairs = draw(st.lists(st.tuples(position, position), max_size=36))
        graph.add_edges_from(
            (nodes[a], nodes[b]) for a, b in pairs if self_loops or a != b
        )
    return graph


def _assert_same_index(index: EdgeIndex, expected) -> None:
    for field in oracle.INDEX_FIELDS:
        got, want = getattr(index, field), getattr(expected, field)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), field
            assert got.dtype == want.dtype, field
            assert got.shape == want.shape, field
            assert got.tolist() == want.tolist(), field
        else:
            assert type(got) is type(want), field
            assert got == want, field
            if isinstance(want, dict):
                assert list(got) == list(want), field


@settings(deadline=None, max_examples=200)
@given(graphs())
def test_edge_index_equals_the_edges_loop_build(graph):
    _assert_same_index(EdgeIndex(graph), oracle.edge_index(graph))


@settings(deadline=None, max_examples=100)
@given(graphs(self_loops=True))
def test_self_loop_error_is_kept(graph):
    try:
        expected = oracle.edge_index(graph)
    except InvalidInstanceError as error:
        with pytest.raises(InvalidInstanceError) as raised:
            EdgeIndex(graph)
        assert str(raised.value) == str(error)
    else:
        _assert_same_index(EdgeIndex(graph), expected)


def test_empty_and_edgeless_graphs():
    for graph in (nx.Graph(), nx.empty_graph(3), nx.Graph([(0, 1)])):
        _assert_same_index(EdgeIndex(graph), oracle.edge_index(graph))


def test_first_self_loop_in_node_order_is_named():
    graph = nx.Graph([("b", "a"), ("z", "z"), ("c", "c")])
    with pytest.raises(InvalidInstanceError, match=r"\('z', 'z'\)"):
        EdgeIndex(graph)


@pytest.mark.parametrize("a", [1, 2, 3, 5, 9, 10, 13])
@pytest.mark.parametrize("b", [1, 4, 8, 11, 26])
def test_complete_bipartite_equals_relabelled_networkx(a, b):
    graph = complete_bipartite(a, b)
    expected = _relabel_to_integers(nx.complete_bipartite_graph(a, b))
    assert list(graph.nodes(data=True)) == list(expected.nodes(data=True))
    assert [(u, list(row.items())) for u, row in graph.adjacency()] == [
        (u, list(row.items())) for u, row in expected.adjacency()
    ]
    assert list(graph.edges(data=True)) == list(expected.edges(data=True))
    assert graph.graph == expected.graph


@settings(deadline=None, max_examples=100)
@given(graphs(), st.one_of(st.none(), st.integers(0, 2**20)))
def test_initial_coloring_equals_edge_identifier_seeds(graph, seed):
    assert compute_initial_edge_coloring(graph, seed=seed) == (
        oracle.initial_edge_coloring(graph, seed=seed)
    )


class TestTopLevelInduce:
    """The first Lemma 4.2 iteration of a fresh solve runs on the index
    itself; every later instance is still induced."""

    def _solver(self, graph):
        index = EdgeIndex(graph)
        initial, _p, _r = compute_initial_edge_coloring(graph, seed=1, index=index)
        lists = uniform_lists(
            graph, Palette.of_size(2 * max_degree(graph) - 1), index=index
        )
        return RecursiveSolver(
            graph, lists, initial, scaled_policy(), RoundLedger(), index=index
        )

    def test_all_ids_in_id_order_are_the_index(self):
        solver = self._solver(random_regular(4, 10, seed=2))
        m = len(solver.index)
        induced, degrees = solver._induced_degrees(list(range(m)))
        assert induced is solver.index
        assert degrees == solver.index.degrees.tolist()
        # Every id in another order is a renumbered copy.
        order = list(range(m))[::-1]
        induced, degrees = solver._induced_degrees(order)
        assert induced is not solver.index
        assert induced.items == [solver.index.items[i] for i in order]
        assert degrees == solver.index.degrees[order].tolist()

    def test_later_iterations_still_induce(self, monkeypatch):
        calls = []
        induced = Csr.induced

        def counted(self, ids):
            calls.append((self, list(ids)))
            return induced(self, ids)

        monkeypatch.setattr(Csr, "induced", counted)
        # Δ̄ 22 -> 8: two Lemma 4.2 iterations at the top level.
        solver = self._solver(random_regular(12, 48, seed=1))
        solver.solve_internal()
        index = solver.index
        assert solver.slack_stats.dbar_trajectory == [22, 8]
        on_index = [ids for owner, ids in calls if owner is index]
        # The second iteration's instance is induced from the index;
        # the whole index never is.
        assert on_index
        assert all(len(ids) < len(index) for ids in on_index)
