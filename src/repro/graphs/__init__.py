"""Graph substrate: instance generators and structural helpers.

The paper's algorithms run on arbitrary simple graphs; this package
provides

* canonical edge handling (:mod:`repro.graphs.edges`) — every edge is
  the sorted tuple ``(u, v)`` with ``u < v`` throughout the library;
* deterministic workload generators (:mod:`repro.graphs.generators`)
  covering the families the benchmarks sweep over (cycles, complete and
  bipartite graphs, random regular graphs, grids, tori, hypercubes,
  trees, blow-ups, ...);
* the named family registry (:mod:`repro.graphs.families`) — the single
  ``(family, size, seed) -> graph`` table behind the CLI, the sweep
  harness, and :class:`repro.api.InstanceSpec`;
* the compiled line graph (:class:`~repro.graphs.index.EdgeIndex`) —
  the algorithms reason about the *edge degree* ``deg(e)``, i.e. the
  degree of ``e`` in the line graph, and run on it as dense edge ids
  with CSR neighbor rows; :mod:`repro.graphs.line_graph` keeps the
  dict and networkx views of it;
* structural measurements (:mod:`repro.graphs.properties`) such as
  ``Δ`` and ``Δ̄`` (the paper's maximum edge degree).
"""

from repro.graphs.edges import edge_key, edge_set, incident_edges
from repro.graphs.families import (
    Family,
    build_family,
    family_names,
    family_registry,
    feasible_regular_order,
    get_family,
    register_family,
)
from repro.graphs.generators import (
    GraphFamily,
    barbell,
    blow_up_cycle,
    book_graph,
    caterpillar,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    friendship_graph,
    grid_graph,
    hypercube,
    path_graph,
    random_bipartite_regular,
    random_regular,
    random_tree,
    star_graph,
    torus_graph,
)
from repro.graphs.index import Csr, EdgeIndex
from repro.graphs.line_graph import edge_degree, line_graph_adjacency, max_edge_degree
from repro.graphs.properties import (
    assign_unique_ids,
    graph_summary,
    max_degree,
    validate_simple_graph,
)

__all__ = [
    "edge_key",
    "edge_set",
    "incident_edges",
    "Family",
    "build_family",
    "family_names",
    "family_registry",
    "feasible_regular_order",
    "get_family",
    "register_family",
    "GraphFamily",
    "barbell",
    "blow_up_cycle",
    "book_graph",
    "caterpillar",
    "complete_bipartite",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi",
    "friendship_graph",
    "grid_graph",
    "hypercube",
    "path_graph",
    "random_bipartite_regular",
    "random_regular",
    "random_tree",
    "star_graph",
    "torus_graph",
    "Csr",
    "EdgeIndex",
    "edge_degree",
    "line_graph_adjacency",
    "max_edge_degree",
    "assign_unique_ids",
    "graph_summary",
    "max_degree",
    "validate_simple_graph",
]
