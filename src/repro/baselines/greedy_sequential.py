"""Centralized sequential greedy edge coloring.

The correctness reference: every edge has at most ``2Δ - 2`` neighbors,
so scanning edges in any order and picking the smallest free color from
``{1, ..., 2Δ - 1}`` always succeeds (the observation the paper opens
with).  It is *not* a distributed algorithm; its "round count" is the
number of edges, reported for scale only.
"""

from __future__ import annotations

import networkx as nx

from repro.baselines.registry import BaselineResult, register
from repro.coloring.lists import uniform_lists
from repro.coloring.palette import Palette
from repro.coloring.edge_coloring import PartialEdgeColoring
from repro.errors import AlgorithmInvariantError
from repro.graphs.edges import edge_set
from repro.graphs.properties import max_degree


@register("greedy_sequential")
def greedy_sequential_coloring(
    graph: nx.Graph, *, seed: int | None = None
) -> BaselineResult:
    """Color edges greedily in sorted order with ``2Δ - 1`` colors.

    ``seed`` is accepted for registry uniformity and ignored (the scan
    order is deterministic).
    """
    delta = max_degree(graph)
    palette = Palette.of_size(max(1, 2 * delta - 1))
    lists = uniform_lists(graph, palette)
    coloring = PartialEdgeColoring(graph, lists)
    for edge in edge_set(graph):
        residual = coloring.residual_list(edge)
        if not residual:  # pragma: no cover — 2Δ-1 always suffices
            raise AlgorithmInvariantError(
                f"greedy ran out of colors at {edge!r}"
            )
        coloring.assign(edge, residual[0])
    return BaselineResult(
        name="greedy_sequential",
        coloring=coloring.as_dict(),
        rounds=graph.number_of_edges(),
        palette_size=len(palette),
        details={"note": "centralized reference; rounds = edges scanned"},
    )
