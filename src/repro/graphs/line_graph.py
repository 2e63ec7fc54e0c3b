"""Line-graph views of a graph.

The paper's central quantity is the *edge degree*
``deg(e) = deg(u) + deg(v) - 2`` for ``e = {u, v}`` — the degree of
``e`` in the line graph ``L(G)``.  The maximum edge degree is written
``Δ̄`` and satisfies ``Δ̄ <= 2Δ - 2``.

All list sizes, defect bounds and recursion thresholds in the
algorithms are expressed against these quantities, so they are
implemented once here and reused everywhere.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import networkx as nx

from repro.errors import InvalidInstanceError
from repro.graphs.edges import Edge, edge_key
from repro.graphs.index import EdgeIndex


def edge_degree(graph: nx.Graph, edge: Edge) -> int:
    """Return ``deg(e) = deg(u) + deg(v) - 2``, the line-graph degree of ``e``.

    >>> import networkx as nx
    >>> g = nx.path_graph(4)
    >>> edge_degree(g, (1, 2))
    2
    """
    u, v = edge
    if not graph.has_edge(u, v):
        raise InvalidInstanceError(f"edge {edge!r} not present in graph")
    return graph.degree(u) + graph.degree(v) - 2


def max_edge_degree(graph: nx.Graph) -> int:
    """Return ``Δ̄``, the maximum edge degree (0 for edgeless graphs)."""
    if graph.number_of_edges() == 0:
        return 0
    return max(edge_degree(graph, edge_key(u, v)) for u, v in graph.edges())


def line_graph_adjacency(graph: nx.Graph) -> dict[Edge, list[Edge]]:
    """Return the adjacency of the line graph over canonical edges.

    Two edges are adjacent iff they share an endpoint.  Keys follow the
    edge order of :func:`~repro.graphs.edges.edge_set` and neighbor
    lists are sorted by ``repr``, giving deterministic iteration to the
    simulated algorithms that run *on* the line graph.  A dict view of
    :class:`~repro.graphs.index.EdgeIndex`; code that already holds an
    index should use it directly.
    """
    return EdgeIndex(graph).adjacency()


def line_graph(graph: nx.Graph) -> nx.Graph:
    """Return the line graph with canonical-edge node labels."""
    result = nx.Graph()
    adjacency = line_graph_adjacency(graph)
    result.add_nodes_from(adjacency)
    for edge, neighbors in adjacency.items():
        for other in neighbors:
            result.add_edge(edge, other)
    return result


def induced_edge_degrees(
    graph: nx.Graph, subset: Iterable[Edge]
) -> dict[Edge, int]:
    """Return each edge's degree within the sub-line-graph induced by ``subset``.

    Used by the defective coloring validator and by Lemma 4.3's
    bookkeeping: after edges are partitioned (by defective color or by
    color subspace), an edge's *new* degree counts only neighbors in
    the same part.
    """
    index = EdgeIndex(graph)
    ids = index.ids(set(subset))
    degrees = index.induced(ids).degrees.tolist()
    return {index.edges[i]: degree for i, degree in zip(ids, degrees)}


def conflicting_pairs(
    graph: nx.Graph, assignment: Mapping[Edge, Hashable]
) -> list[tuple[Edge, Edge]]:
    """Return all adjacent edge pairs assigned the same value.

    The generic "find monochromatic conflicts" query: validators use it
    for proper colorings (result must be empty) and defect measurement
    (result size bounds the defect).  Pairs are ``(edge, other)`` with
    ``other > edge``, in edge order, then ``repr`` order of ``other``.
    """
    index = EdgeIndex(graph)
    same = index.same_value_slots(assignment)
    edges = index.edges
    pairs = zip(index.slot_owners()[same].tolist(), index.neighbors[same].tolist())
    return [(edges[i], edges[j]) for i, j in pairs if edges[j] > edges[i]]
