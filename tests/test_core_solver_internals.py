"""White-box tests of the RecursiveSolver's internals.

The public tests pin down end-to-end correctness; these pin down the
mechanisms DESIGN.md promises: base-case deferral (never mis-coloring),
effective-list narrowing, the index-instance callback contract, and
the depth guard.
"""

import networkx as nx
import pytest

from repro.coloring.edge_coloring import PartialEdgeColoring
from repro.coloring.lists import ListAssignment, deg_plus_one_lists, uniform_lists
from repro.coloring.palette import Palette
from repro.coloring.verify import check_list_edge_coloring
from repro.core.ledger import RoundLedger
from repro.core.params import fixed_policy, resolve_policy, scaled_policy
from repro.core.solver import (
    RecursiveSolver,
    compute_initial_edge_coloring,
    solve_edge_coloring,
    solve_list_edge_coloring,
)
from repro.errors import InvalidInstanceError
from repro.graphs.edges import edge_set
from repro.graphs.families import build_family
from repro.graphs.generators import complete_bipartite, random_regular
from repro.graphs.index import EdgeIndex
from repro.graphs.line_graph import line_graph_adjacency


def _solver(graph, lists=None, policy=None, seed=3):
    if lists is None:
        lists = deg_plus_one_lists(graph, seed=1)
    initial, _p, _r = compute_initial_edge_coloring(graph, seed=seed)
    return RecursiveSolver(
        graph, lists, initial, policy or scaled_policy(), RoundLedger()
    )


class TestEffectiveLists:
    def test_narrowing_intersects_with_residual(self):
        graph = nx.star_graph(3)
        lists = uniform_lists(graph, Palette.of_size(5))
        solver = _solver(graph, lists)
        edge_a, edge_b = (0, 1), (0, 2)
        solver.master.assign(edge_a, 2)
        b = solver.index.position[edge_b]
        narrowed = {b: solver.master.mask_of({1, 2, 3})}
        effective = solver._effective_mask(b, narrowed)
        assert solver.master.colors_of(effective) == [1, 3]  # 2 blocked by neighbor
        assert effective == solver.master.mask_of({1, 3})

    def test_lowest_bit_is_smallest_color_of_unordered_palette(self):
        graph = nx.star_graph(3)
        palette = Palette((9, 4, 7, 1, 6))
        solver = _solver(graph, uniform_lists(graph, palette))
        solver.master.assign((0, 1), 4)
        b = solver.index.position[(0, 2)]
        narrowed = {b: solver.master.mask_of({9, 4, 7})}
        effective = solver._effective_mask(b, narrowed)
        assert solver.master.colors_of(effective) == [7, 9]
        assert solver.master.lowest_color(effective) == 7


class TestBaseCase:
    def test_base_case_defers_on_empty_effective_lists(self):
        """With an adversarially narrowed list, the base case defers
        instead of mis-coloring."""
        graph = nx.path_graph(3)
        lists = uniform_lists(graph, Palette.of_size(3))
        solver = _solver(graph, lists)
        ids = solver.index.ids([(0, 1), (1, 2)])
        narrowed = {
            ids[0]: solver.master.mask_of({1}),
            ids[1]: 0,  # impossible narrow list
        }
        solver._base_case(ids, narrowed, "test")
        assert solver.master.color_of((0, 1)) == 1
        assert not solver.master.is_colored((1, 2))
        assert solver.ledger.counter("deferred_edges") == 1

    def test_base_case_completes_full_lists(self):
        graph = random_regular(4, 12, seed=2)
        lists = deg_plus_one_lists(graph, seed=9)
        solver = _solver(graph, lists)
        ids = solver.index.ids(edge_set(graph))
        work = dict(enumerate(solver.master.list_masks))
        solver._base_case(ids, work, "test")
        assert solver.master.is_complete()
        check_list_edge_coloring(graph, lists, solver.master.as_dict())

    def test_base_case_reason_counted(self):
        graph = nx.cycle_graph(5)
        solver = _solver(graph)
        ids = solver.index.ids(edge_set(graph))
        work = dict(enumerate(solver.master.list_masks))
        solver._base_case(ids, work, "my-reason")
        assert solver.ledger.counter("base_case/my-reason") == 1


class TestDepthGuard:
    def test_max_depth_forces_base_case(self):
        """At max_depth the solver must go straight to the base case:
        no Lemma 4.3 reductions may be recorded."""
        policy = fixed_policy(
            2, 4, base_degree_threshold=4, base_palette_threshold=6,
            max_depth=1,
        )
        graph = complete_bipartite(25, 25)
        initial, _p, _r = compute_initial_edge_coloring(graph, seed=4)
        lists = uniform_lists(graph, Palette.of_size(49))
        solver = RecursiveSolver(graph, lists, initial, policy, RoundLedger())
        coloring = solver.solve_internal()
        check_list_edge_coloring(graph, lists, coloring)
        assert solver.ledger.counter("lem43/reductions") == 0


class TestConstruction:
    def test_missing_initial_colors_rejected(self):
        graph = nx.path_graph(3)
        lists = uniform_lists(graph, Palette.of_size(3))
        with pytest.raises(InvalidInstanceError):
            RecursiveSolver(
                graph, lists, {(0, 1): 1}, scaled_policy(), RoundLedger()
            )

    def test_solver_shares_ledger(self):
        graph = nx.cycle_graph(6)
        ledger = RoundLedger()
        lists = deg_plus_one_lists(graph)
        initial, _p, _r = compute_initial_edge_coloring(graph)
        solver = RecursiveSolver(graph, lists, initial, scaled_policy(), ledger)
        solver.solve_internal()
        assert ledger.total_rounds() > 0


class TestCleanupLoop:
    def test_cleanup_finishes_everything(self):
        """solve_internal's final loop must leave zero uncolored edges
        on any feasible instance."""
        graph = random_regular(6, 18, seed=8)
        lists = deg_plus_one_lists(graph, seed=4)
        solver = _solver(graph, lists)
        coloring = solver.solve_internal()
        assert len(coloring) == graph.number_of_edges()
        check_list_edge_coloring(graph, lists, coloring)


class TestNoLineGraphRows:
    """The master coloring keeps one used-color mask per node, so a
    solve never materialises the line graph's rows as Python lists."""

    @pytest.fixture
    def rows_calls(self, monkeypatch):
        calls = []
        rows = EdgeIndex.rows

        def counted(self):
            calls.append(self)
            return rows(self)

        monkeypatch.setattr(EdgeIndex, "rows", counted)
        return calls

    @pytest.mark.parametrize("policy", ["scaled", "kuhn20", "machinery"])
    def test_solve_on_a_held_index_never_builds_rows(self, rows_calls, policy):
        graph = build_family("complete_bipartite", 25)
        index = EdgeIndex(graph)
        lists = uniform_lists(graph, Palette.of_size(49), index=index)
        result = solve_list_edge_coloring(
            graph, lists, policy=resolve_policy(policy), seed=1, index=index
        )
        check_list_edge_coloring(graph, lists, result.coloring)
        if policy != "scaled":  # child solvers on Lemma 4.3 index instances
            assert result.stats["lem43/reductions"] > 0
        assert rows_calls == []

    @pytest.mark.parametrize("policy", ["scaled", "kuhn20"])
    def test_small_degree_base_case_on_a_held_index_never_builds_rows(
        self, rows_calls, policy
    ):
        # Δ̄ = 4 is at the base-case threshold: the whole instance, which
        # is the held index itself, goes straight to the KW reduction.
        graph = complete_bipartite(3, 3)
        index = EdgeIndex(graph)
        lists = uniform_lists(graph, Palette.of_size(5), index=index)
        result = solve_list_edge_coloring(
            graph, lists, policy=resolve_policy(policy), seed=1, index=index
        )
        check_list_edge_coloring(graph, lists, result.coloring)
        assert any(key.startswith("base_case/") for key in result.stats)
        assert rows_calls == []

    def test_neighbors_and_residual_degree_build_rows_on_demand(self, rows_calls):
        graph = random_regular(4, 10, seed=2)
        adjacency = line_graph_adjacency(graph)
        index = EdgeIndex(graph)
        rows_calls.clear()
        coloring = PartialEdgeColoring(
            graph, uniform_lists(graph, Palette.of_size(7)), index=index
        )
        edge = index.edges[0]
        coloring.assign(adjacency[edge][0], 1)
        assert rows_calls == []
        assert coloring.neighbors(edge) == adjacency[edge]
        assert coloring.residual_degree(edge) == len(adjacency[edge]) - 1
        assert rows_calls == [index, index]


def test_stats_list_counters_in_order_of_first_use():
    """Conflict-free Lemma 4.2 classes add their base-case counter once
    per iteration, flushed before any relaxed solve: on K_{11,11} a
    conflict-free class precedes the first class that enters Lemma 4.3
    directly, so ``base_case/relaxed bottom`` still comes first."""
    policy = fixed_policy(2, 2, base_degree_threshold=1, base_palette_threshold=2)
    graph = build_family("complete_bipartite", 11)
    result = solve_edge_coloring(graph, policy=policy, seed=1)
    assert list(result.stats) == [
        "lem42/iterations", "max_depth_seen", "base_case/relaxed bottom",
        "lem43/reductions", "lem43/deferred", "lem43/eq2_violations",
        "dbar_trajectory", "betas", "relaxed_invocations",
    ]
