"""The randomized ``O(log n)`` baseline [ABI86, Lub86 style].

The introduction's framing: a trivial randomized algorithm colors
edges in ``O(log n)`` rounds w.h.p. — each round, every uncolored edge
picks a uniformly random color from its residual list (``2Δ-1`` palette
minus neighbor-used colors) and keeps it if no conflicting neighbor
picked the same color this round.  A constant fraction of edges
survives each round in expectation, so ``O(log n)`` rounds suffice.

This is the only randomized algorithm in the library (the paper — and
everything else here — is deterministic); it exists to reproduce the
randomized-vs-deterministic gap the introduction discusses.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.baselines.registry import BaselineResult, register
from repro.coloring.lists import uniform_lists
from repro.coloring.palette import Palette
from repro.coloring.edge_coloring import PartialEdgeColoring
from repro.errors import RoundLimitExceededError
from repro.graphs.properties import max_degree


@register("randomized_luby")
def randomized_luby_coloring(
    graph: nx.Graph,
    *,
    seed: int | None = None,
    max_rounds: int = 10_000,
) -> BaselineResult:
    """``(2Δ-1)``-edge coloring by random trials, ``O(log n)`` w.h.p."""
    rng = random.Random(0 if seed is None else seed)
    delta = max_degree(graph)
    palette = Palette.of_size(max(1, 2 * delta - 1))
    lists = uniform_lists(graph, palette)
    coloring = PartialEdgeColoring(graph, lists)

    rounds = 0
    while not coloring.is_complete():
        if rounds >= max_rounds:
            raise RoundLimitExceededError(
                f"randomized coloring did not finish in {max_rounds} rounds"
            )
        rounds += 1
        pending = coloring.uncolored_edges()
        proposals: dict = {}
        for edge in pending:
            residual = coloring.residual_list(edge)
            # Residual lists are never empty: (2Δ-1)-lists always
            # dominate deg(e)+1.
            proposals[edge] = rng.choice(residual)
        for edge in pending:
            color = proposals[edge]
            conflict = any(
                proposals.get(neighbor) == color
                for neighbor in coloring.neighbors(edge)
                if not coloring.is_colored(neighbor)
            )
            if not conflict:
                coloring.assign(edge, color)

    return BaselineResult(
        name="randomized_luby",
        coloring=coloring.as_dict(),
        rounds=rounds,
        palette_size=len(palette),
        details={"seed": seed, "note": "randomized; rounds are one sample"},
    )
