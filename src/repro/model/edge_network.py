"""Running node algorithms on the line graph.

The paper's edge coloring subroutines are naturally *vertex* algorithms
on the line graph ``L(G)``: each edge acts as an agent, and two agents
are adjacent iff their edges share a node of ``G``.  In the LOCAL model
a round of ``L(G)`` costs ``O(1)`` rounds of ``G`` (each endpoint of an
edge relays for it), so measuring rounds on the line-graph network
preserves asymptotics exactly — this is the standard reduction and the
paper uses it implicitly throughout.

Edge IDs are derived from endpoint IDs via a pairing
(:meth:`~repro.graphs.index.EdgeIndex.pair_ids`) into the range
``{1, ..., (2 * max_id)^2}``, preserving the model's polynomial ID
space (edge IDs are ``n^{O(1)}`` whenever node IDs are).

The returned :class:`~repro.model.network.Network` is compiled straight
from the graph's :class:`~repro.graphs.index.EdgeIndex`: the index
already holds ``L(G)`` as CSR rows ordered by ``repr`` of the
neighboring edge, plus every edge's ``repr`` rank, which are exactly
the canonical node order and port order a :class:`Network` derives.
:func:`line_graph_network` maps those rows to ranks and hands them to
the network's one compile step, so edge-agent simulations get the full
columnar delivery layout (see
:meth:`~repro.model.network.Network.delivery_columns`) without the line
graph ever being built in networkx; ``Network.graph`` builds it on
first read, for the reference loop and other node-level callers.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import networkx as nx

from repro.graphs.index import EdgeIndex
from repro.graphs.line_graph import line_graph
from repro.graphs.properties import sorted_nodes
from repro.model.network import Network


def line_graph_network(
    graph: nx.Graph,
    node_ids: Mapping[Hashable, int] | None = None,
    *,
    index: EdgeIndex | None = None,
) -> Network:
    """Return a :class:`Network` whose nodes are the edges of ``graph``.

    Parameters
    ----------
    graph:
        The underlying communication graph ``G``.
    node_ids:
        Node IDs of ``G``; defaults to the sorted assignment.  Edge IDs
        are derived from them (see :meth:`EdgeIndex.pair_ids`).
    index:
        ``EdgeIndex(graph)``, if the caller already built it; avoids a
        second build.
    """
    if node_ids is None:
        ordered = sorted_nodes(graph)
        node_ids = {node: rank + 1 for rank, node in enumerate(ordered)}
    if index is None:
        index = EdgeIndex(graph)
    edges = index.items
    ids = dict(zip(edges, index.pair_ids(node_ids)))
    # Network index k is the edge of repr rank k, and each index row,
    # ordered by the neighbors' repr ranks, maps to ascending ranks.
    repr_rank = index.repr_rank.tolist()
    index_rows = index.rows()
    rows = [
        [repr_rank[other] for other in index_rows[edge_id]]
        for edge_id in index.repr_order
    ]
    network = Network.__new__(Network)
    network._compile(
        [edges[edge_id] for edge_id in index.repr_order],
        rows,
        ids,
        lambda: line_graph(graph),
    )
    return network
