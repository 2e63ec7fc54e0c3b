"""Extending partial colorings — the paper's motivating application.

The paper (introduction, discussing [Bar15]): *"Being able to solve
list coloring in particular allows to extend an initial partial
coloring of a graph to a full coloring of the graph."*  This module
makes that concrete and useful: after a topology change (new links in
a network), only the new edges need colors, each choosing from the
greedy palette minus the colors its already-colored neighbors hold —
a ``(deg(e)+1)``-list instance by the residual invariant, solved with
the paper's algorithm while **every existing color stays untouched**.

This is the dynamic-network story of distributed coloring: recoloring
cost is proportional to the change, not the graph.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import networkx as nx

from repro.errors import InvalidInstanceError
from repro.coloring.lists import ListAssignment
from repro.coloring.palette import Palette
from repro.coloring.verify import check_proper_edge_coloring
from repro.core.params import ParameterPolicy
from repro.core.solver import SolveResult, solve_list_edge_coloring
from repro.graphs.edges import Edge, edge_key
from repro.graphs.index import EdgeIndex
from repro.graphs.properties import max_degree, validate_simple_graph


def extend_coloring(
    graph: nx.Graph,
    existing: Mapping[Edge, int],
    *,
    policy: ParameterPolicy | None = None,
    seed: int | None = None,
    palette: Palette | None = None,
) -> SolveResult:
    """Color the uncolored edges of ``graph`` without touching ``existing``.

    Parameters
    ----------
    graph:
        The (new) topology; may contain edges absent from ``existing``.
    existing:
        A proper partial edge coloring (validated).  All its colors are
        preserved verbatim in the result.
    policy / seed:
        Forwarded to the list solver.
    palette:
        Color space to draw from; defaults to ``{1, ..., 2Δ-1}`` of the
        *new* graph (which always suffices).

    Returns
    -------
    SolveResult
        Result whose ``coloring`` covers every edge of ``graph``; the
        rounds account only for the residual instance (the point of
        incremental recoloring).

    Raises
    ------
    InvalidInstanceError
        If ``existing`` is not proper on ``graph``, or the supplied
        palette cannot feasibly extend it.
    """
    validate_simple_graph(graph)
    existing = {edge_key(u, v): color for (u, v), color in existing.items()}
    for edge in existing:
        if not graph.has_edge(*edge):
            raise InvalidInstanceError(
                f"existing coloring mentions a non-edge {edge!r}"
            )
    check_proper_edge_coloring(graph, existing, require_total=False)

    if palette is None:
        delta = max_degree(graph)
        palette = Palette.of_size(max(1, 2 * delta - 1))
    missing_palette = [c for c in existing.values() if c not in palette]
    if missing_palette:
        raise InvalidInstanceError(
            f"existing colors outside the palette, e.g. {missing_palette[:3]!r}"
        )

    index = EdgeIndex(graph)
    pending = [edge for edge in index.edges if edge not in existing]
    if not pending:
        return SolveResult(
            coloring=dict(existing),
            rounds=0,
            ledger=_empty_ledger(),
            initial_palette=0,
            policy_name="(nothing to do)",
        )

    # Residual lists: palette minus the colors held by colored
    # neighbors.  By the residual invariant these lists always hold at
    # least residual-degree + 1 colors when the palette is 2Δ-1.
    residual_lists: dict[Edge, frozenset[int]] = {}
    ambient = palette.as_set
    edges, rows = index.edges, index.rows()
    for edge in pending:
        blocked = {
            existing[edges[n]]
            for n in rows[index.position[edge]]
            if edges[n] in existing
        }
        residual_lists[edge] = frozenset(ambient - blocked)

    sub = nx.Graph()
    for u, v in pending:
        sub.add_edge(u, v)
    instance = ListAssignment(residual_lists, palette)
    instance.validate_deg_plus_one(sub)

    result = solve_list_edge_coloring(sub, instance, policy=policy, seed=seed)

    combined = dict(existing)
    combined.update(result.coloring)
    check_proper_edge_coloring(graph, combined)
    return SolveResult(
        coloring=combined,
        rounds=result.rounds,
        ledger=result.ledger,
        initial_palette=result.initial_palette,
        policy_name=result.policy_name,
        stats=result.stats,
    )


def insert_edges(
    graph: nx.Graph,
    existing: Mapping[Edge, int],
    new_edges: Iterable[tuple],
    *,
    policy: ParameterPolicy | None = None,
    seed: int | None = None,
) -> tuple[nx.Graph, SolveResult]:
    """Add ``new_edges`` to ``graph`` and extend the coloring over them.

    Convenience wrapper for the dynamic-update workflow; returns the
    updated graph and the extension result.  Colors of old edges are
    guaranteed unchanged (asserted).
    """
    updated = graph.copy()
    for u, v in new_edges:
        if u == v:
            raise InvalidInstanceError(f"self-loop insertion ({u!r}, {v!r})")
        updated.add_edge(u, v)
    result = extend_coloring(updated, existing, policy=policy, seed=seed)
    for edge, color in existing.items():
        if result.coloring[edge_key(*edge)] != color:
            raise InvalidInstanceError(  # pragma: no cover — by construction
                f"extension modified the existing color of {edge!r}"
            )
    return updated, result


def _empty_ledger():
    from repro.core.ledger import RoundLedger

    return RoundLedger()
