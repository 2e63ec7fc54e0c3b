"""The instance compile step as it was: the oracle for the one-pass build.

:class:`repro.graphs.index.EdgeIndex` packs each edge once from one pass
over ``graph.adjacency()`` and builds edge reprs from node reprs, and
:func:`repro.core.solver.compute_initial_edge_coloring` pairs node ids
over the index's ``tails``/``heads`` columns.  These are the versions
they replaced: a loop over ``graph.edges()`` building ``(rank, rank)``
pairs, ``repr`` of every edge tuple, and one :func:`edge_identifier`
call per edge, the scalar form of :meth:`EdgeIndex.pair_ids`.
``test_graphs_compile_oracle.py`` checks that both sides agree.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro.errors import InvalidInstanceError
from repro.graphs.edges import Edge, _sort_key
from repro.graphs.index import EdgeIndex, _ranges, _row_starts
from repro.graphs.properties import assign_unique_ids
from repro.primitives.linial import linial_reduce

#: Every array and attribute an :class:`EdgeIndex` holds.
INDEX_FIELDS = (
    "items", "position", "nodes", "row_start", "neighbors", "degrees",
    "incidence_start", "incidence", "tails", "heads", "repr_order",
    "repr_rank",
)


def edge_identifier(
    edge: Edge, node_ids: Mapping[Hashable, int], max_id: int
) -> int:
    """A unique positive id for ``edge`` from its endpoint ids: the
    pairing ``min_id * (max_id + 1) + max_id_of_edge``."""
    u, v = edge
    id_u, id_v = node_ids[u], node_ids[v]
    low, high = min(id_u, id_v), max(id_u, id_v)
    return low * (max_id + 1) + high


def edge_index(graph: nx.Graph) -> SimpleNamespace:
    """The fields of ``EdgeIndex(graph)``, built the replaced way."""
    nodes = sorted(graph.nodes(), key=_sort_key)
    rank = {node: index for index, node in enumerate(nodes)}
    pairs = []
    for u, v in graph.edges():
        if u == v:
            raise InvalidInstanceError(
                f"self-loop edge ({u!r}, {v!r}) is not allowed"
            )
        ru, rv = rank[u], rank[v]
        pairs.append((ru, rv) if ru < rv else (rv, ru))
    pairs.sort()
    m = len(pairs)
    edges = [(nodes[a], nodes[b]) for a, b in pairs]
    ends = np.array(pairs, dtype=np.int64).reshape(m, 2)
    tails, heads = ends[:, 0], ends[:, 1]

    edge_ids = np.arange(m, dtype=np.int64)
    half_node = np.concatenate([tails, heads])
    packed = np.sort(half_node * m + np.concatenate([edge_ids, edge_ids]))
    incidence = packed % m
    node_degree = np.bincount(half_node, minlength=len(nodes))
    incidence_start = _row_starts(node_degree)

    reps = node_degree[packed // m]
    rows = np.repeat(incidence, reps)
    cols = incidence[_ranges(np.repeat(incidence_start[:-1], node_degree), reps)]
    distinct = rows != cols
    rows, cols = rows[distinct], cols[distinct]

    reprs = [repr(edge) for edge in edges]
    repr_order = sorted(range(m), key=reprs.__getitem__)
    repr_rank = np.empty(m, dtype=np.int64)
    repr_rank[repr_order] = edge_ids
    ranked = np.sort(rows * m + repr_rank[cols]) % m
    row_start = _row_starts(np.bincount(rows, minlength=m))
    return SimpleNamespace(
        items=edges,
        position={edge: index for index, edge in enumerate(edges)},
        nodes=nodes,
        row_start=row_start,
        neighbors=np.array(repr_order, dtype=np.int64)[ranked],
        degrees=row_start[1:] - row_start[:-1],
        incidence_start=incidence_start,
        incidence=incidence,
        tails=tails,
        heads=heads,
        repr_order=repr_order,
        repr_rank=repr_rank,
    )


def initial_edge_coloring(
    graph: nx.Graph, *, seed: int | None = None
) -> tuple[dict, int, int]:
    """``compute_initial_edge_coloring`` seeded by one
    ``edge_identifier`` call per edge."""
    index = EdgeIndex(graph)
    ids = assign_unique_ids(graph, seed=seed)
    max_id = max(ids.values(), default=0)
    edge_ids = [edge_identifier(edge, ids, max_id) for edge in index.edges]
    result = linial_reduce(index, edge_ids)
    return dict(zip(index.edges, result.colors)), result.palette_size, result.rounds
