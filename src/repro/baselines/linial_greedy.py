"""The ``O(Δ² + log* n)`` baseline: Linial classes + greedy sweep.

The algorithm the paper attributes to Linial's framework [Lin87]:
compute an ``O(Δ̄²)``-edge coloring in ``O(log* n)`` rounds, then sweep
its classes — each class simultaneously picks the smallest free color
from ``{1, ..., 2Δ-1}``.  The sweep costs one round per class, giving
``O(Δ̄²)`` rounds total after the ``log*`` start.
"""

from __future__ import annotations

import networkx as nx

from repro.baselines.registry import BaselineResult, register
from repro.coloring.lists import uniform_lists
from repro.coloring.palette import Palette
from repro.coloring.edge_coloring import PartialEdgeColoring
from repro.core.solver import compute_initial_edge_coloring
from repro.graphs.index import EdgeIndex
from repro.graphs.properties import max_degree
from repro.primitives.greedy_class import greedy_by_classes


@register("linial_greedy")
def linial_greedy_coloring(
    graph: nx.Graph, *, seed: int | None = None
) -> BaselineResult:
    """``(2Δ-1)``-edge coloring in ``O(Δ̄² + log* n)`` rounds."""
    delta = max_degree(graph)
    palette = Palette.of_size(max(1, 2 * delta - 1))
    index = EdgeIndex(graph)
    lists = uniform_lists(graph, palette, index=index)
    coloring = PartialEdgeColoring(graph, lists, index=index)

    classes, class_palette, linial_rounds = compute_initial_edge_coloring(
        graph, seed=seed, index=index
    )
    sweep = greedy_by_classes(coloring, classes, class_count=class_palette)
    return BaselineResult(
        name="linial_greedy",
        coloring=coloring.as_dict(),
        rounds=linial_rounds + sweep.rounds,
        palette_size=len(palette),
        details={
            "linial_rounds": linial_rounds,
            "class_palette": class_palette,
            "sweep_rounds": sweep.rounds,
        },
    )
