"""EdgeIndex against a brute-force line graph built from the definitions.

The reference below never shares code with the index: it canonicalises
every edge by comparing ``(type name, repr)`` keys, sorts edges by the
keys of their endpoints, and finds line-graph neighbors by testing every
pair of edges for a shared endpoint.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInstanceError
from repro.graphs.edges import edge_set
from repro.graphs.index import Csr, EdgeIndex


def _key(node):
    return (type(node).__name__, repr(node))


def reference_edges(graph: nx.Graph) -> list[tuple]:
    canonical = [
        (u, v) if _key(u) <= _key(v) else (v, u) for u, v in graph.edges()
    ]
    return sorted(canonical, key=lambda e: (_key(e[0]), _key(e[1])))


def reference_adjacency(graph: nx.Graph) -> dict[tuple, list[tuple]]:
    edges = reference_edges(graph)
    return {
        edge: sorted(
            (other for other in edges if other != edge and set(other) & set(edge)),
            key=repr,
        )
        for edge in edges
    }


# Int labels up to 150, so "10" < "2" style repr orders differ from
# numeric order; str labels; tuple labels as grid graphs have; and a
# mix of types, ordered by type name first.
LABELS = {
    "int": st.integers(min_value=0, max_value=150),
    "str": st.text(alphabet="ab1(, '", min_size=1, max_size=3),
    "tuple": st.tuples(st.integers(0, 12), st.integers(0, 12)),
    "mixed": st.one_of(st.integers(0, 30), st.text(alphabet="xy2", min_size=1, max_size=2)),
}


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(sorted(LABELS)))
    nodes = draw(st.lists(LABELS[kind], min_size=0, max_size=12, unique=True))
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    if len(nodes) >= 2:
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(nodes) - 1), st.integers(0, len(nodes) - 1)
                ).filter(lambda p: p[0] != p[1]),
                max_size=30,
            )
        )
        graph.add_edges_from((nodes[a], nodes[b]) for a, b in pairs)
    return graph


@settings(deadline=None, max_examples=150)
@given(graphs())
def test_index_matches_brute_force(graph):
    index = EdgeIndex(graph)
    edges = reference_edges(graph)
    adjacency = reference_adjacency(graph)

    assert index.edges == edges
    assert edge_set(graph) == edges
    assert index.position == {edge: i for i, edge in enumerate(edges)}
    assert list(index.adjacency().items()) == list(adjacency.items())
    assert [[index.edges[j] for j in row] for row in index.rows()] == list(
        adjacency.values()
    )
    assert index.degrees.tolist() == [
        graph.degree(u) + graph.degree(v) - 2 for u, v in edges
    ]
    assert index.row_start.tolist()[-1] == sum(len(n) for n in adjacency.values())
    assert [index.edges[i] for i in index.repr_order] == sorted(edges, key=repr)
    for x, node in enumerate(index.nodes):
        start, end = index.incidence_start[x], index.incidence_start[x + 1]
        assert [index.edges[i] for i in index.incidence[start:end]] == [
            edge for edge in edges if node in edge
        ]


@settings(deadline=None, max_examples=100)
@given(graphs(), st.randoms(use_true_random=False))
def test_induced_subset_matches_filtered_reference(graph, rng):
    index = EdgeIndex(graph)
    adjacency = reference_adjacency(graph)
    chosen = [edge for edge in adjacency if rng.random() < 0.5]
    rng.shuffle(chosen)
    induced = index.induced(index.ids(chosen))
    members = set(chosen)
    assert induced.items == chosen
    assert list(induced.adjacency().items()) == [
        (edge, [n for n in adjacency[edge] if n in members]) for edge in chosen
    ]
    assert induced.degrees.tolist() == [
        sum(n in members for n in adjacency[edge]) for edge in chosen
    ]


def test_int_labels_sort_by_repr_not_value():
    graph = nx.Graph([(2, 10), (2, 3), (10, 3)])
    index = EdgeIndex(graph)
    assert index.edges == [(10, 2), (10, 3), (2, 3)]
    assert index.adjacency()[(2, 3)] == [(10, 2), (10, 3)]


def test_grid_tuple_labels():
    graph = nx.grid_2d_graph(3, 3)
    assert EdgeIndex(graph).adjacency() == reference_adjacency(graph)


def test_self_loop_is_rejected():
    graph = nx.Graph([(1, 1)])
    with pytest.raises(InvalidInstanceError):
        EdgeIndex(graph)


def test_unknown_edge_ids_raise():
    index = EdgeIndex(nx.path_graph(3))
    with pytest.raises(InvalidInstanceError):
        index.ids([(0, 2)])


def test_csr_from_adjacency_keeps_orders():
    adjacency = {"b": ["c", "a"], "a": ["b"], "c": ["b"], "d": []}
    csr = Csr.from_adjacency(adjacency)
    assert csr.items == ["b", "a", "c", "d"]
    assert csr.adjacency() == adjacency
    assert csr.degrees.tolist() == [2, 1, 1, 0]
    assert csr.induced([3, 0, 2]).adjacency() == {"d": [], "b": ["c"], "c": ["b"]}
