"""Tests for the full Theorem 4.1 solver."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ColoringValidationError, InvalidInstanceError
from repro.graphs.edges import edge_set
from repro.graphs.index import EdgeIndex
from repro.coloring.lists import ListAssignment, deg_plus_one_lists, uniform_lists
from repro.coloring.palette import Palette
from repro.coloring.verify import (
    check_list_edge_coloring,
    check_palette_bound,
    check_proper_edge_coloring,
)
from repro.core.params import fixed_policy, kuhn20_style_policy, paper_policy, scaled_policy
from repro.core.solver import (
    RecursiveSolver,
    compute_initial_edge_coloring,
    solve_edge_coloring,
    solve_list_edge_coloring,
)
from repro.graphs.generators import (
    barbell,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    friendship_graph,
    path_graph,
    random_regular,
    star_graph,
)
from repro.graphs.properties import max_degree
from repro.utils.logstar import log_star


class TestInitialColoring:
    def test_proper_and_quadratic(self):
        g = random_regular(6, 18, seed=2)
        coloring, palette, rounds = compute_initial_edge_coloring(g, seed=3)
        check_proper_edge_coloring(g, coloring)
        dbar = 2 * 6 - 2
        assert palette <= 16 * (dbar + 2) ** 2

    def test_logstar_rounds(self):
        g = cycle_graph(256)
        _c, _p, rounds = compute_initial_edge_coloring(g, seed=7)
        n = g.number_of_nodes()
        assert rounds <= log_star(n**4) + 4


class TestEdgeColoring:
    def test_small_graph_zoo(self, small_graphs):
        for name, graph in small_graphs:
            result = solve_edge_coloring(graph, seed=1)
            summary_palette = max(1, 2 * max_degree(graph) - 1)
            check_proper_edge_coloring(graph, result.coloring)
            check_palette_bound(result.coloring, summary_palette)

    def test_single_edge(self):
        g = nx.Graph([(0, 1)])
        result = solve_edge_coloring(g)
        assert result.coloring == {(0, 1): 1}

    def test_empty_graph(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        result = solve_edge_coloring(g)
        assert result.coloring == {}

    def test_medium_instance_with_machinery(self, medium_graph):
        policy = fixed_policy(2, 4, base_degree_threshold=4, base_palette_threshold=6)
        result = solve_edge_coloring(medium_graph, policy=policy, seed=4)
        check_proper_edge_coloring(medium_graph, result.coloring)
        check_palette_bound(result.coloring, 2 * 8 - 1)
        # the machinery must actually engage on this instance
        assert result.stats.get("lem42/iterations", 0) >= 1

    def test_rounds_positive_and_ledger_consistent(self):
        g = complete_bipartite(5, 5)
        result = solve_edge_coloring(g, seed=1)
        assert result.rounds == result.ledger.total_rounds()
        assert result.rounds > 0


class TestListColoring:
    def test_deg_plus_one_adversarial_lists(self):
        g = random_regular(6, 20, seed=5)
        lists = deg_plus_one_lists(g)  # overlapping prefix lists
        result = solve_list_edge_coloring(g, lists, seed=2)
        check_list_edge_coloring(g, lists, result.coloring)

    def test_deg_plus_one_random_lists(self):
        g = random_regular(6, 20, seed=5)
        lists = deg_plus_one_lists(g, seed=13)
        result = solve_list_edge_coloring(g, lists, seed=2)
        check_list_edge_coloring(g, lists, result.coloring)

    def test_rejects_infeasible_instance(self):
        g = path_graph(3)
        bad = ListAssignment(
            {(0, 1): frozenset({1}), (1, 2): frozenset({1})}, Palette.of_size(2)
        )
        with pytest.raises(InvalidInstanceError):
            solve_list_edge_coloring(g, bad)

    def test_heterogeneous_degrees(self):
        """Barbell: dense cores with tiny-degree bridge; per-edge lists
        differ by an order of magnitude."""
        g = barbell(6, 4)
        lists = deg_plus_one_lists(g, seed=3)
        result = solve_list_edge_coloring(g, lists, seed=1)
        check_list_edge_coloring(g, lists, result.coloring)

    def test_precomputed_initial_coloring_reused(self):
        g = complete_graph(7)
        initial, palette, _rounds = compute_initial_edge_coloring(g, seed=5)
        result = solve_list_edge_coloring(
            g,
            uniform_lists(g, Palette.of_size(11)),
            initial_coloring=initial,
            initial_palette=palette,
        )
        check_proper_edge_coloring(g, result.coloring)
        assert result.initial_palette == palette


class TestValidateOnce:
    """Custom lists are validated by the solver; uniform lists are left
    to the runner, whose properness and palette checks imply them."""

    @staticmethod
    def _recolor_one(monkeypatch, color_for):
        """Make the solver return its coloring with one edge recolored."""
        solve_internal = RecursiveSolver.solve_internal

        def corrupted(self, depth=None):
            coloring = solve_internal(self, depth)
            edge = min(coloring, key=repr)
            coloring[edge] = color_for(self, edge, coloring)
            return coloring

        monkeypatch.setattr(RecursiveSolver, "solve_internal", corrupted)

    def test_custom_lists_reject_an_off_list_color(self, monkeypatch):
        g = random_regular(4, 12, seed=3)
        lists = deg_plus_one_lists(g, palette=Palette.of_size(12), seed=7)
        def off_list(solver, edge, coloring):
            # Free at the edge, so only the list check can object.
            used = {coloring[n] for n in solver.master.neighbors(edge)}
            return min(set(lists.palette) - lists.list_of(edge) - used)

        self._recolor_one(monkeypatch, off_list)
        with pytest.raises(ColoringValidationError, match="not in its list"):
            solve_list_edge_coloring(g, lists, seed=1)

    def test_uniform_lists_leave_the_check_to_the_runner(self, monkeypatch):
        g = random_regular(4, 12, seed=3)
        self._recolor_one(monkeypatch, lambda solver, edge, coloring: 10**6)
        result = solve_edge_coloring(g, seed=1)  # no list check here
        assert 10**6 in result.coloring.values()

    def test_uniformity(self):
        g = random_regular(4, 12, seed=3)
        palette = Palette.of_size(7)
        assert uniform_lists(g, palette).is_uniform()
        assert deg_plus_one_lists(g, palette=palette, seed=2).is_uniform()
        wider = Palette.of_size(10)
        assert not deg_plus_one_lists(g, palette=wider, seed=2).is_uniform()
        shared = frozenset(range(1, 7))
        assert not ListAssignment(dict.fromkeys(edge_set(g), shared), palette).is_uniform()

    def test_deg_plus_one_check_on_the_index_keeps_its_message(self):
        g = random_regular(4, 12, seed=3)
        lists = deg_plus_one_lists(g, seed=7)
        edge = edge_set(g)[5]
        short = dict(lists.lists)
        short[edge] = frozenset(sorted(short[edge])[:3])
        bad = ListAssignment(short, lists.palette)
        messages = []
        for index in (None, EdgeIndex(g)):
            with pytest.raises(InvalidInstanceError) as caught:
                bad.validate_deg_plus_one(g, index=index)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert "deg(e)=6 but only 3 list colors" in messages[0]


class TestPolicies:
    @pytest.mark.parametrize(
        "make_policy",
        [scaled_policy, kuhn20_style_policy, paper_policy,
         lambda: fixed_policy(2, 4), lambda: fixed_policy(3, 8)],
    )
    def test_all_policies_produce_valid_colorings(self, make_policy):
        g = random_regular(8, 24, seed=7)
        result = solve_edge_coloring(g, policy=make_policy(), seed=2)
        check_proper_edge_coloring(g, result.coloring)
        check_palette_bound(result.coloring, 15)

    def test_paper_policy_degenerates_to_base_case(self):
        """The documented behaviour: literal asymptotic constants mean
        β > Δ̄ at feasible scale, so runs report base-case fallbacks
        and zero Lemma 4.3 reductions."""
        g = random_regular(8, 24, seed=7)
        result = solve_edge_coloring(g, policy=paper_policy(), seed=2)
        assert result.stats.get("lem43/reductions", 0) == 0

    def test_policy_name_recorded(self):
        g = cycle_graph(8)
        result = solve_edge_coloring(g, policy=kuhn20_style_policy())
        assert result.policy_name == "kuhn20-style(p=2)"


class TestLemma42Observables:
    def test_dbar_trajectory_decreases(self, medium_graph):
        result = solve_edge_coloring(medium_graph, seed=3)
        trajectory = list(result.stats["dbar_trajectory"])
        assert trajectory == sorted(trajectory, reverse=True)
        if len(trajectory) >= 2:
            assert trajectory[1] <= trajectory[0] / 2 + 1

    def test_stats_contain_counters(self):
        g = complete_bipartite(6, 6)
        result = solve_edge_coloring(g, seed=1)
        assert "relaxed_invocations" in result.stats
        assert "dbar_trajectory" in result.stats


class TestDeterminism:
    def test_same_seed_same_result(self):
        g = random_regular(6, 16, seed=9)
        a = solve_edge_coloring(g, seed=4)
        b = solve_edge_coloring(g, seed=4)
        assert a.coloring == b.coloring
        assert a.rounds == b.rounds

    def test_different_ids_still_valid(self):
        g = random_regular(6, 16, seed=9)
        for seed in (1, 2, 3, None):
            result = solve_edge_coloring(g, seed=seed)
            check_proper_edge_coloring(g, result.coloring)


class TestPropertyBased:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_regular_always_valid(self, seed):
        g = random_regular(5, 12, seed=seed % 101)
        lists = deg_plus_one_lists(g, seed=seed)
        result = solve_list_edge_coloring(g, lists, seed=seed % 17)
        check_list_edge_coloring(g, lists, result.coloring)

    @settings(deadline=None, max_examples=8)
    @given(st.integers(min_value=3, max_value=16))
    def test_stars_any_size(self, leaves):
        g = star_graph(leaves)
        result = solve_edge_coloring(g)
        check_proper_edge_coloring(g, result.coloring)
        # a star needs exactly `leaves` colors and has 2Δ-1 available
        assert len(set(result.coloring.values())) == leaves

    @settings(deadline=None, max_examples=8)
    @given(st.integers(min_value=2, max_value=10))
    def test_friendship_graphs(self, triangles):
        g = friendship_graph(triangles)
        result = solve_edge_coloring(g, seed=1)
        check_proper_edge_coloring(g, result.coloring)
        check_palette_bound(result.coloring, 2 * 2 * triangles - 1)
