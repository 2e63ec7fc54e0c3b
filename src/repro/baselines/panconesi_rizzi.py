"""A Panconesi-Rizzi-style ``O(Δ)``-stage edge coloring baseline.

Panconesi and Rizzi [PR01] obtain ``(2Δ-1)``-edge coloring in
``O(Δ + log* n)`` rounds; the paper cites this as the classic
linear-in-Δ bound.  This module implements the *stage structure* of
that family of algorithms on our substrate:

1. compute a proper ``(Δ+1)``-vertex coloring (here: Linial on ``G``
   followed by the Kuhn-Wattenhofer reduction — ``O(log* n + Δ log Δ)``
   rounds on our substrate; PR's own vertex-coloring subroutine saves
   the ``log Δ`` factor);
2. sweep the vertex classes: in stage ``k`` every class-``k`` node
   *dominates* its still-uncolored incident edges and proposes distinct
   colors that are free at both endpoints (at most ``2Δ - 2``
   constraints against a ``2Δ - 1`` palette, so a proposal always
   exists);
3. two same-stage dominators may propose the same color at a shared
   neighbor ``w``; ``w`` accepts the smallest-ID proposer per color and
   the losers retry in the next sub-round.  Every rejection coincides
   with an accepted coloring at ``w``, so a stage finishes after at
   most ``Δ`` sub-rounds (measured: almost always 1-2).

The measured round count is reported honestly: this implementation's
worst case is ``O(Δ log Δ + log* n)`` because of the vertex-coloring
substrate, with the PR stage sweep contributing ``Θ(Δ)`` stages.
"""

from __future__ import annotations

import networkx as nx

from repro.baselines.registry import BaselineResult, register
from repro.coloring.edge_coloring import PartialEdgeColoring
from repro.coloring.lists import uniform_lists
from repro.coloring.palette import Palette
from repro.errors import AlgorithmInvariantError
from repro.graphs.edges import edge_key, other_endpoint
from repro.graphs.properties import assign_unique_ids, max_degree
from repro.primitives.color_reduction import kuhn_wattenhofer_reduction
from repro.primitives.linial import linial_reduce
from repro.utils.logstar import log_star


def _vertex_coloring(graph: nx.Graph, seed: int | None):
    """Proper (Δ+1)-vertex coloring via Linial + KW; returns rounds."""
    adjacency = {node: sorted(graph.neighbors(node), key=repr) for node in graph.nodes()}
    ids = assign_unique_ids(graph, seed=seed)
    linial = linial_reduce(adjacency, ids)
    colors, rounds = linial.colors, linial.rounds
    degree = max_degree(graph)
    if linial.palette_size > degree + 1:
        reduction = kuhn_wattenhofer_reduction(adjacency, colors)
        colors = reduction.colors
        rounds += reduction.rounds
    return colors, rounds


@register("panconesi_rizzi")
def panconesi_rizzi_coloring(
    graph: nx.Graph, *, seed: int | None = None
) -> BaselineResult:
    """``(2Δ-1)``-edge coloring via PR-style vertex-class domination."""
    delta = max_degree(graph)
    palette = Palette.of_size(max(1, 2 * delta - 1))
    lists = uniform_lists(graph, palette)
    coloring = PartialEdgeColoring(graph, lists)
    ids = assign_unique_ids(graph, seed=seed)

    if graph.number_of_edges() == 0:
        return BaselineResult(
            name="panconesi_rizzi", coloring={}, rounds=0,
            palette_size=len(palette),
        )

    vertex_colors, setup_rounds = _vertex_coloring(graph, seed)
    class_count = max(vertex_colors.values()) + 1

    sweep_rounds = 0
    max_sub_rounds = 0
    for stage in range(class_count):
        dominators = sorted(
            (node for node, c in vertex_colors.items() if c == stage),
            key=lambda node: ids[node],
        )
        pending = {
            node: [
                edge_key(node, neighbor)
                for neighbor in graph.neighbors(node)
                if not coloring.is_colored(edge_key(node, neighbor))
            ]
            for node in dominators
        }
        sub_rounds = 0
        while any(pending.values()):
            sub_rounds += 1
            if sub_rounds > max(4, delta + 2):  # pragma: no cover
                raise AlgorithmInvariantError(
                    f"stage {stage} exceeded the Δ sub-round bound"
                )
            # Phase 1: every dominator proposes distinct free colors.
            proposals: dict = {}  # (other endpoint, color) -> (id, edge)
            for node in dominators:
                taken_here: set[int] = set()
                for edge in pending[node]:
                    other = other_endpoint(edge, node)
                    free = [
                        color
                        for color in coloring.residual_list(edge)
                        if color not in taken_here
                    ]
                    if not free:  # pragma: no cover — 2Δ-1 suffices
                        raise AlgorithmInvariantError(
                            f"no proposable color for {edge!r}"
                        )
                    color = free[0]
                    taken_here.add(color)
                    key = (other, color)
                    incumbent = proposals.get(key)
                    if incumbent is None or ids[node] < incumbent[0]:
                        proposals[key] = (ids[node], edge, node)
            # Phase 2: receivers accept one proposal per color;
            # winners color their edges, losers retry.
            winners = {
                (edge, node) for (_k, (_id, edge, node)) in proposals.items()
            }
            for edge, node in sorted(winners, key=repr):
                coloring.assign(edge, _proposed_color(proposals, edge))
                pending[node].remove(edge)
        sweep_rounds += max(1, 2 * sub_rounds)  # propose + resolve
        max_sub_rounds = max(max_sub_rounds, sub_rounds)

    if not coloring.is_complete():  # pragma: no cover — sweep is total
        raise AlgorithmInvariantError("PR sweep left edges uncolored")

    return BaselineResult(
        name="panconesi_rizzi",
        coloring=coloring.as_dict(),
        rounds=setup_rounds + sweep_rounds,
        palette_size=len(palette),
        details={
            "setup_rounds": setup_rounds,
            "vertex_classes": class_count,
            "sweep_rounds": sweep_rounds,
            "max_sub_rounds_per_stage": max_sub_rounds,
            "note": "PR01 stage structure; vertex coloring via "
                    "Linial+KW on this substrate",
        },
    )


def _proposed_color(proposals: dict, edge) -> int:
    for (other, color), (_id, proposed_edge, _node) in proposals.items():
        if proposed_edge == edge:
            return color
    raise AlgorithmInvariantError(f"no proposal recorded for {edge!r}")
