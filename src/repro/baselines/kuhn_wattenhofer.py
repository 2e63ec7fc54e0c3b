"""The ``O(Δ log Δ + log* n)`` baseline [SV93, KW06].

Linial's ``O(Δ̄²)``-edge coloring followed by the Kuhn-Wattenhofer
parallel color reduction down to ``Δ̄ + 1`` classes
(:func:`repro.primitives.color_reduction.kuhn_wattenhofer_reduction`),
then a greedy sweep over the ``Δ̄ + 1`` classes.  Total:
``O(log* n) + O(Δ̄ log Δ̄) + O(Δ̄)`` rounds — the strongest
linear-in-Δ̄-family baseline the paper cites (Panconesi-Rizzi's
``O(Δ + log* n)`` differs by the ``log Δ̄`` factor).
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
from repro.primitives.color_reduction import kuhn_wattenhofer_reduction
from repro.primitives.greedy_class import greedy_by_classes


@register("kuhn_wattenhofer")
def kuhn_wattenhofer_coloring(
    graph: nx.Graph, *, seed: int | None = None
) -> BaselineResult:
    """``(2Δ-1)``-edge coloring in ``O(Δ̄ log Δ̄ + log* n)`` rounds."""
    delta = max_degree(graph)
    palette = Palette.of_size(max(1, 2 * delta - 1))
    index = EdgeIndex(graph)
    lists = uniform_lists(graph, palette, index=index)
    coloring = PartialEdgeColoring(graph, lists, index=index)

    classes, class_palette, linial_rounds = compute_initial_edge_coloring(
        graph, seed=seed, index=index
    )
    kw_rounds = 0
    if len(index):
        reduction = kuhn_wattenhofer_reduction(index.adjacency(), classes)
        classes = reduction.colors
        class_palette = reduction.palette_size
        kw_rounds = reduction.rounds

    sweep = greedy_by_classes(coloring, classes, class_count=class_palette)
    return BaselineResult(
        name="kuhn_wattenhofer",
        coloring=coloring.as_dict(),
        rounds=linial_rounds + kw_rounds + sweep.rounds,
        palette_size=len(palette),
        details={
            "linial_rounds": linial_rounds,
            "kw_rounds": kw_rounds,
            "final_classes": class_palette,
            "sweep_rounds": sweep.rounds,
        },
    )
