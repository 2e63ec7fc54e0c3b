"""Line-graph validators: the oracle for :mod:`repro.coloring.verify`.

The library's validators are node-local: they count colors per node
and never build a line graph.  These are the validators they replaced.
They compare every pair of adjacent edges over an
:class:`~repro.graphs.index.EdgeIndex`.  ``test_coloring_verify_oracle.py``
checks that both sides agree on random colorings.
"""

from __future__ import annotations

from typing import Callable, Mapping

import networkx as nx
import numpy as np

from repro.errors import ColoringValidationError
from repro.graphs.edges import Edge
from repro.graphs.index import EdgeIndex


def check_proper_edge_coloring(
    graph: nx.Graph, coloring: Mapping[Edge, int], *, require_total: bool = True
) -> None:
    """Raise unless ``coloring`` is a proper (partial) edge coloring."""
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
    if index.same_value_slots(coloring).any():
        raise ColoringValidationError("two adjacent edges share a color")


def measure_defects(
    graph: nx.Graph, assignment: Mapping[Edge, int]
) -> dict[Edge, int]:
    """Per colored edge of ``graph``, its number of same-colored neighbors."""
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
    """Raise unless ``assignment`` is a defective coloring within bounds."""
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
