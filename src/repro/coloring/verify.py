"""Independent validators for colorings.

These functions re-derive everything from the graph: they do not trust
:class:`~repro.coloring.edge_coloring.PartialEdgeColoring` or any
algorithm's bookkeeping.  Every test and every benchmark funnels its
outputs through this module, realising the DESIGN.md hard rule that
correctness is checked independently of round accounting.

The checks are node-local and ``O(m)``: colored edges are looked up in
the graph's canonical edge set, and colors are counted per node.  No
line graph is built — in particular not the
:class:`~repro.graphs.index.EdgeIndex` the solver itself runs on, so a
bug there cannot hide on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

import networkx as nx

from repro.errors import ColoringValidationError
from repro.coloring.lists import ListAssignment
from repro.graphs.edges import Edge, canonical_edges, edge_set


def check_proper_edge_coloring(
    graph: nx.Graph, coloring: Mapping[Edge, int], *, require_total: bool = True
) -> None:
    """Raise unless ``coloring`` is a proper (partial) edge coloring.

    Parameters
    ----------
    graph:
        Host graph.
    coloring:
        Mapping from canonical edge to color.
    require_total:
        When ``True`` (default) every edge of the graph must be
        colored; when ``False`` the mapping may cover a subset, but
        properness is still enforced on the covered part.
    """
    edges = canonical_edges(graph)
    if not edges.issuperset(coloring):
        foreign = next(edge for edge in coloring if edge not in edges)
        raise ColoringValidationError(
            f"colored edge {foreign!r} does not exist in the graph"
        )
    if require_total and len(coloring) < len(edges):
        missing = [e for e in edge_set(graph) if e not in coloring]
        raise ColoringValidationError(
            f"{len(missing)} edges are uncolored, e.g. {missing[:3]!r}"
        )
    # (node, color) -> the edge holding that color at that node.
    holder: dict[tuple[Hashable, int], Edge] = {}
    for edge, color in coloring.items():
        u, v = edge
        other = holder.setdefault((u, color), edge)
        if other is edge:
            other = holder.setdefault((v, color), edge)
        if other is not edge:
            raise ColoringValidationError(
                f"edges {other!r} and {edge!r} share a node and the "
                f"color {color}"
            )


def check_list_edge_coloring(
    graph: nx.Graph,
    lists: ListAssignment,
    coloring: Mapping[Edge, int],
    *,
    require_total: bool = True,
) -> None:
    """Raise unless ``coloring`` is proper *and* respects the lists."""
    check_proper_edge_coloring(graph, coloring, require_total=require_total)
    for edge, color in coloring.items():
        if color not in lists.list_of(edge):
            raise ColoringValidationError(
                f"edge {edge!r} uses color {color} which is not in its list"
            )


def check_palette_bound(
    coloring: Mapping[Edge, int], palette_size: int, *, start: int = 1
) -> None:
    """Raise unless every used color lies in ``{start, ..., start+size-1}``.

    Used by the ``(2Δ - 1)``-edge coloring wrappers, whose contract is a
    bound on the palette rather than per-edge lists.
    """
    for edge, color in coloring.items():
        if color < start or color >= start + palette_size:
            raise ColoringValidationError(
                f"edge {edge!r} uses color {color} outside the palette "
                f"[{start}, {start + palette_size - 1}]"
            )


def measure_defects(
    graph: nx.Graph, assignment: Mapping[Edge, int]
) -> dict[Edge, int]:
    """Return, per edge, the number of same-colored neighboring edges.

    For a *proper* coloring all defects are 0; for a defective coloring
    this is the quantity the paper bounds by ``deg(e) / (2β)``.  Only
    edges of the graph count; other keys of ``assignment`` are ignored.
    """
    return _defects(canonical_edges(graph), assignment)


def _defects(edges: set[Edge], assignment: Mapping[Edge, int]) -> dict[Edge, int]:
    # In a simple graph two edges share at most one node, so the defect
    # of (u, v) is the count of its color at u, minus 1, plus the count
    # at v, minus 1.
    colored = [(edge, color) for edge, color in assignment.items() if edge in edges]
    count: dict[tuple[Hashable, int], int] = {}
    for (u, v), color in colored:
        count[u, color] = count.get((u, color), 0) + 1
        count[v, color] = count.get((v, color), 0) + 1
    return {
        edge: count[edge[0], color] + count[edge[1], color] - 2
        for edge, color in colored
    }


def check_defective_coloring(
    graph: nx.Graph,
    assignment: Mapping[Edge, int],
    defect_bound: Callable[[int], float],
    *,
    color_bound: int | None = None,
) -> None:
    """Raise unless ``assignment`` is a defective coloring within bounds.

    Parameters
    ----------
    graph:
        Host graph; every edge must be assigned.
    assignment:
        Edge -> defective color.
    defect_bound:
        Callable mapping ``deg(e)`` to the maximum allowed defect for
        an edge of that degree (the paper uses ``deg(e) / (2β)``).
    color_bound:
        If given, the number of distinct colors must not exceed it
        (the paper's ``O(β²)``, instantiated with explicit constants by
        the caller).
    """
    edges = canonical_edges(graph)
    if edges.difference(assignment):
        missing = [e for e in edge_set(graph) if e not in assignment]
        raise ColoringValidationError(
            f"{len(missing)} edges lack a defective color, e.g. {missing[:3]!r}"
        )
    degree = dict(graph.degree())
    over: dict[Edge, tuple[int, int]] = {}
    for edge, defect in _defects(edges, assignment).items():
        edge_degree = degree[edge[0]] + degree[edge[1]] - 2
        if defect > defect_bound(edge_degree):
            over[edge] = (defect, edge_degree)
    if over:
        edge = next(e for e in edge_set(graph) if e in over)
        defect, edge_degree = over[edge]
        raise ColoringValidationError(
            f"edge {edge!r} (deg {edge_degree}) has defect {defect} "
            f"> allowed {defect_bound(edge_degree)}"
        )
    if color_bound is not None:
        used = len(set(assignment.values()))
        if used > color_bound:
            raise ColoringValidationError(
                f"defective coloring uses {used} colors > bound {color_bound}"
            )


@dataclass(frozen=True)
class ColoringReport:
    """Summary statistics of a finished coloring, for benchmark tables."""

    edges: int
    colors_used: int
    max_color: int

    @classmethod
    def from_coloring(cls, coloring: Mapping[Edge, int]) -> "ColoringReport":
        if not coloring:
            return cls(edges=0, colors_used=0, max_color=0)
        values = list(coloring.values())
        return cls(
            edges=len(coloring),
            colors_used=len(set(values)),
            max_color=max(values),
        )
