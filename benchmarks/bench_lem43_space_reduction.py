"""LEM43 — Lemma 4.3: the color space reduction and Equation (2).

Paper claims checked, per split parameter p:
1. the partition has q <= 2p subspaces of size <= C/p;
2. every edge receives a subspace and Equation (2) holds
   (deg' <= 24 H_q log p · (|L'|/|L|) · deg) — zero violations in the
   theory regime of uniform full lists;
3. the per-level phase structure runs (level histogram reported); at
   p = 16 one Figure 6 phase colors the level-4 edges of ``E(1)``
   through the real child :class:`RecursiveSolver`.
"""

from repro.analysis.tables import format_table
from repro.coloring.palette import Palette
from repro.core.ledger import RoundLedger
from repro.core.params import scaled_policy
from repro.core.solver import RecursiveSolver, compute_initial_edge_coloring
from repro.core.space_reduction import reduce_color_space
from repro.graphs.edges import edge_set
from repro.graphs.generators import random_regular
from repro.graphs.line_graph import line_graph_adjacency

from conftest import report


def _uniform_instance(graph, palette_size, seed=1):
    palette = Palette.of_size(palette_size)
    edges = edge_set(graph)
    lists = {edge: palette.as_set for edge in edges}
    adjacency = line_graph_adjacency(graph)
    degrees = {edge: len(adjacency[edge]) for edge in edges}
    initial, _p, _r = compute_initial_edge_coloring(graph, seed=seed)
    return edges, lists, palette, adjacency, degrees, initial


def _index_solver(calls=None):
    policy = scaled_policy()

    def solve(graph, lists, initial, tag):
        if calls is not None:
            calls.append(tag)
        child = RecursiveSolver(graph, lists, initial, policy, RoundLedger())
        return child.solve_internal()

    return solve


def test_lem43_p_sweep(benchmark):
    graph = random_regular(10, 40, seed=6)
    edges, lists, palette, adjacency, degrees, initial = _uniform_instance(
        graph, 80
    )
    rows = []
    for p in (2, 4, 8, 16, 32):
        calls = []
        outcome = reduce_color_space(
            edges, lists, palette, p, adjacency, degrees, initial,
            _index_solver(calls),
        )
        q = len(outcome.subspaces)
        assert q <= 2 * p
        assert all(len(s) <= -(-len(palette) // p) for s in outcome.subspaces)
        assert not outcome.deferred
        assert outcome.eq2_violations == 0
        if p == 16:
            # E(1): one Figure 6 phase at level 4, solved by the child.
            assert outcome.phases_run == 1
            assert set(outcome.level_histogram) == {4}
            assert calls
        histogram = ", ".join(
            f"ℓ{level}:{count}"
            for level, count in sorted(outcome.level_histogram.items())
        )
        rows.append([p, q, outcome.phases_run, histogram, 0])
    report(format_table(
        ["p", "q subspaces", "E(1) phases", "level histogram",
         "Eq.(2) violations"],
        rows,
        title="LEM43: color-space reduction on RR(10,40), C=80, "
              "uniform lists",
    ))
    benchmark.pedantic(
        lambda: reduce_color_space(
            edges, lists, palette, 4, adjacency, degrees, initial,
            _index_solver(),
        ),
        rounds=3, iterations=1,
    )


def test_lem43_subinstance_independence(benchmark):
    """After the reduction, the q sub-instances are (almost all)
    independently solvable: the narrowed list dominates the new degree.

    Exact feasibility for EVERY edge is what the lemma's slack
    precondition ``S >= 24 H_{2p} log p`` buys — a slack (~130 for
    p=4) that no finite palette C = O(Δ̄) can reach, so a handful of
    edges may fall short here and are deferred by the solver (the
    documented fallback).  We assert the violation fraction is tiny
    and report it.
    """
    graph = random_regular(8, 24, seed=9)
    edges, lists, palette, adjacency, degrees, initial = _uniform_instance(
        graph, 48
    )
    p = 4
    outcome = reduce_color_space(
        edges, lists, palette, p, adjacency, degrees, initial,
        _index_solver(),
    )
    infeasible = 0
    for index, subspace in enumerate(outcome.subspaces):
        sub_edges = [e for e in edges if outcome.assignment.get(e) == index]
        for edge in sub_edges:
            new_list = lists[edge] & subspace.as_set
            new_degree = sum(
                1 for n in adjacency[edge]
                if outcome.assignment.get(n) == index
            )
            if len(new_list) < new_degree + 1:
                infeasible += 1
    report(
        f"LEM43: sub-instance feasibility — {infeasible}/{len(edges)} "
        "edges below deg'+1 (deferred by the solver; 0 in the "
        "asymptotic slack regime)"
    )
    assert infeasible <= max(2, len(edges) // 20)

    benchmark.pedantic(
        lambda: reduce_color_space(
            edges, lists, palette, p, adjacency, degrees, initial,
            _index_solver(),
        ),
        rounds=2, iterations=1,
    )
