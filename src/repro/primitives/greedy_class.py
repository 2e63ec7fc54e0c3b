"""Greedy list coloring by color classes.

The universal base case of the paper's recursion: given a proper
coloring ``φ`` of the (residual) conflict graph with ``X`` classes,
iterate over the classes; all edges of one class are pairwise
non-adjacent, so they can simultaneously (one LOCAL round per class)
pick the smallest color remaining in their residual lists.  For a
``(deg(e) + 1)``-list instance the residual list of an uncolored edge
is never empty (see the residual invariant in
:mod:`repro.coloring.edge_coloring`), so the sweep always completes.

Round cost: one round per class — ``X`` rounds.  The callers keep ``X``
small by first reducing the class count (Linial to ``O(Δ̄²)``, then
optionally Kuhn-Wattenhofer to ``Δ̄ + 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import AlgorithmInvariantError, InvalidInstanceError
from repro.coloring.edge_coloring import PartialEdgeColoring
from repro.graphs.edges import Edge


@dataclass(frozen=True)
class GreedyClassResult:
    """Outcome of a greedy class sweep.

    Attributes
    ----------
    rounds:
        Rounds consumed — the number of classes processed (every class
        costs a round in lockstep execution, whether or not any of the
        executing node's edges belong to it).
    edges_colored:
        Number of edges colored by the sweep.
    """

    rounds: int
    edges_colored: int


def greedy_by_classes(
    coloring: PartialEdgeColoring,
    classes: Mapping[Edge, int],
    *,
    class_count: int | None = None,
) -> GreedyClassResult:
    """Color all uncolored edges of ``coloring`` by sweeping ``classes``.

    Parameters
    ----------
    coloring:
        Partial coloring to complete; every uncolored edge must appear
        in ``classes``.
    classes:
        A proper coloring of the residual conflict graph: adjacent
        uncolored edges must be in different classes.  (Violations are
        detected — the simultaneous greedy inside a class would then
        produce a conflict, which :class:`PartialEdgeColoring` refuses.)
    class_count:
        The number of classes to charge as rounds.  Defaults to the
        palette size implied by ``classes`` (max class value + 1 when
        classes are 0-based integers, else the number of distinct
        values).  Lockstep execution costs a round per class even if a
        class is empty.

    Returns
    -------
    GreedyClassResult

    Raises
    ------
    AlgorithmInvariantError
        If some edge has an empty residual list — impossible for
        ``(deg(e)+1)``-list instances, so this signals a caller bug.
    """
    pending = coloring.uncolored_edges()
    missing = [edge for edge in pending if edge not in classes]
    if missing:
        raise InvalidInstanceError(
            f"uncolored edges without a class: {missing[:3]!r}"
        )

    by_class: dict[int, list[Edge]] = {}
    for edge in pending:
        by_class.setdefault(classes[edge], []).append(edge)

    if class_count is None:
        values = set(by_class)
        if values and all(isinstance(v, int) and v >= 0 for v in values):
            class_count = max(values) + 1
        else:
            class_count = len(values)

    edges_colored = 0
    for class_value in sorted(by_class):
        # One LOCAL round: all edges of this class act simultaneously.
        # They are pairwise non-adjacent, so PartialEdgeColoring's
        # incremental conflict detection will accept all of them; if the
        # caller supplied an improper class partition, assign() raises.
        for edge in by_class[class_value]:
            residual = coloring.residual_list(edge)
            if not residual:
                raise AlgorithmInvariantError(
                    f"edge {edge!r} ran out of list colors during the "
                    "greedy sweep; the instance was not (deg+1)-feasible"
                )
            coloring.assign(edge, residual[0])
            edges_colored += 1

    return GreedyClassResult(rounds=class_count, edges_colored=edges_colored)
