"""Independent validators for colorings.

These functions re-derive everything from the graph: they do not trust
:class:`~repro.coloring.edge_coloring.PartialEdgeColoring` or any
algorithm's bookkeeping.  Every test and every benchmark funnels its
outputs through this module, realising the DESIGN.md hard rule that
correctness is checked independently of round accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import networkx as nx
import numpy as np

from repro.errors import ColoringValidationError
from repro.coloring.lists import ListAssignment
from repro.graphs.edges import Edge
from repro.graphs.index import EdgeIndex


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
    index = EdgeIndex(graph)
    for edge in coloring:
        if edge not in index.position:
            raise ColoringValidationError(
                f"colored edge {edge!r} does not exist in the graph"
            )
    if require_total:
        missing = [e for e in index.edges if e not in coloring]
        if missing:
            raise ColoringValidationError(
                f"{len(missing)} edges are uncolored, e.g. {missing[:3]!r}"
            )
    same = index.same_value_slots(coloring)
    if not same.any():
        return
    edges = index.edges
    for i, j in zip(index.slot_owners()[same].tolist(), index.neighbors[same].tolist()):
        edge, other = edges[i], edges[j]
        if other > edge:
            raise ColoringValidationError(
                f"edges {edge!r} and {other!r} share a node and the "
                f"color {coloring[edge]}"
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
    this is the quantity the paper bounds by ``deg(e) / (2β)``.
    """
    return _defects(EdgeIndex(graph), assignment)


def _defects(index: EdgeIndex, assignment: Mapping[Edge, int]) -> dict[Edge, int]:
    same = index.same_value_slots(assignment)
    counts = np.bincount(index.slot_owners()[same], minlength=len(index)).tolist()
    return {
        edge: count
        for edge, count in zip(index.edges, counts)
        if edge in assignment
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
    index = EdgeIndex(graph)
    missing = [e for e in index.edges if e not in assignment]
    if missing:
        raise ColoringValidationError(
            f"{len(missing)} edges lack a defective color, e.g. {missing[:3]!r}"
        )
    defects = _defects(index, assignment)
    for edge, degree in zip(index.edges, index.degrees.tolist()):
        defect = defects[edge]
        allowed = defect_bound(degree)
        if defect > allowed:
            raise ColoringValidationError(
                f"edge {edge!r} (deg {degree}) has defect {defect} "
                f"> allowed {allowed}"
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
