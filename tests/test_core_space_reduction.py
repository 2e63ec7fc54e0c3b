"""Tests for Lemma 4.3 — the color space reduction."""

import networkx as nx
import pytest

from repro.errors import ParameterError
from repro.coloring.lists import ListAssignment, uniform_lists
from repro.coloring.palette import Palette
from repro.coloring.verify import check_list_edge_coloring
from repro.core.ledger import RoundLedger
from repro.core.solver import RecursiveSolver, compute_initial_edge_coloring
from repro.core.space_reduction import equation_2_bound, reduce_color_space
from repro.core.params import scaled_policy
from repro.graphs.edges import edge_set
from repro.graphs.generators import complete_bipartite, random_regular
from repro.graphs.line_graph import line_graph_adjacency
from repro.utils.harmonic import harmonic_number


def _make_instance(graph, palette_size, seed=1):
    """Uniform lists over the full palette; adjacency + degrees."""
    palette = Palette.of_size(palette_size)
    edges = edge_set(graph)
    lists = {edge: palette.as_set for edge in edges}
    adjacency = line_graph_adjacency(graph)
    degrees = {edge: len(adjacency[edge]) for edge in edges}
    initial, _p, _r = compute_initial_edge_coloring(graph, seed=seed)
    return edges, lists, palette, adjacency, degrees, initial


def _recursive_index_solver(policy=None):
    """The real callback used by the solver: a child RecursiveSolver."""
    policy = policy or scaled_policy()

    def solve(graph, lists, initial, tag):
        child = RecursiveSolver(
            graph, lists, initial, policy, RoundLedger(), depth=0
        )
        return child.solve_internal()

    return solve


class TestReduceColorSpace:
    def test_assigns_every_edge_on_full_lists(self):
        graph = random_regular(8, 24, seed=4)
        edges, lists, palette, adjacency, degrees, initial = _make_instance(
            graph, 64
        )
        outcome = reduce_color_space(
            edges, lists, palette, 4, adjacency, degrees, initial,
            _recursive_index_solver(),
        )
        assert not outcome.deferred
        assert set(outcome.assignment) == set(edges)
        assert all(
            0 <= index < len(outcome.subspaces)
            for index in outcome.assignment.values()
        )

    def test_new_lists_are_nonempty(self):
        graph = complete_bipartite(6, 6)
        edges, lists, palette, adjacency, degrees, initial = _make_instance(
            graph, 40
        )
        outcome = reduce_color_space(
            edges, lists, palette, 4, adjacency, degrees, initial,
            _recursive_index_solver(),
        )
        for edge, index in outcome.assignment.items():
            assert lists[edge] & outcome.subspaces[index].as_set

    def test_equation_2_holds_on_uniform_instances(self):
        """With full uniform lists the theory regime is comfortably
        satisfied, so Equation (2) must hold for every edge."""
        graph = random_regular(8, 24, seed=9)
        edges, lists, palette, adjacency, degrees, initial = _make_instance(
            graph, 60
        )
        outcome = reduce_color_space(
            edges, lists, palette, 3, adjacency, degrees, initial,
            _recursive_index_solver(),
        )
        assert outcome.eq2_violations == 0

    def test_level_histogram_populated(self):
        graph = random_regular(6, 16, seed=2)
        edges, lists, palette, adjacency, degrees, initial = _make_instance(
            graph, 32
        )
        outcome = reduce_color_space(
            edges, lists, palette, 4, adjacency, degrees, initial,
            _recursive_index_solver(),
        )
        assert sum(outcome.level_histogram.values()) == len(edges)

    def test_empty_list_edges_deferred(self):
        graph = nx.path_graph(3)
        edges = edge_set(graph)
        palette = Palette.of_size(8)
        lists = {edges[0]: frozenset(), edges[1]: frozenset({1, 2, 3})}
        adjacency = line_graph_adjacency(graph)
        degrees = {e: len(adjacency[e]) for e in edges}
        initial, _p, _r = compute_initial_edge_coloring(graph)
        outcome = reduce_color_space(
            edges, lists, palette, 2, adjacency, degrees, initial,
            _recursive_index_solver(),
        )
        assert edges[0] in outcome.deferred
        assert edges[1] in outcome.assignment

    def test_rejects_bad_p(self):
        graph = nx.path_graph(3)
        edges, lists, palette, adjacency, degrees, initial = _make_instance(
            graph, 8
        )
        with pytest.raises(ParameterError):
            reduce_color_space(
                edges, lists, palette, 1, adjacency, degrees, initial,
                _recursive_index_solver(),
            )
        with pytest.raises(ParameterError):
            reduce_color_space(
                edges, lists, palette, 99, adjacency, degrees, initial,
                _recursive_index_solver(),
            )

    def test_subspace_instances_are_independent(self):
        """Adjacent edges in the same subspace keep overlapping lists;
        the per-subspace slack must track Equation (2)'s promise —
        verified here as: new degree <= bound for every edge."""
        graph = random_regular(10, 30, seed=6)
        edges, lists, palette, adjacency, degrees, initial = _make_instance(
            graph, 80
        )
        p = 4
        outcome = reduce_color_space(
            edges, lists, palette, p, adjacency, degrees, initial,
            _recursive_index_solver(),
        )
        q = len(outcome.subspaces)
        for edge, index in outcome.assignment.items():
            same = sum(
                1
                for n in adjacency[edge]
                if outcome.assignment.get(n) == index
            )
            new_list = len(lists[edge] & outcome.subspaces[index].as_set)
            bound = equation_2_bound(q, p, len(lists[edge]), new_list, degrees[edge])
            assert same <= bound


class TestFigure6Phase:
    """E(1) through the real child solver: random_regular(10, 40) on
    C = 80 uniform lists puts every edge on level 4 at p = 16, so one
    Figure 6 phase runs (``bench_lem43``'s case)."""

    GRAPH = dict(degree=10, n=40, seed=6)

    def _reduce(self, p, seen):
        graph = random_regular(**self.GRAPH)
        edges, lists, palette, adjacency, degrees, initial = _make_instance(
            graph, 80
        )
        child_solve = _recursive_index_solver()

        def solve(instance_graph, instance_lists, instance_initial, tag):
            degree = dict(instance_graph.degree())
            if tag.startswith("phase"):
                # Figure 6: each virtual copy has degree <= 2^{ℓ-2}.
                level = int(tag.split("ℓ=")[1].split()[0])
                assert max(degree.values()) <= 2 ** (level - 2)
            for u, v in edge_set(instance_graph):
                menu = instance_lists.list_of((u, v))
                assert len(menu) >= degree[u] + degree[v] - 2 + 1
            chosen = child_solve(
                instance_graph, instance_lists, instance_initial, tag
            )
            check_list_edge_coloring(instance_graph, instance_lists, chosen)
            seen.append((tag, instance_graph.number_of_edges()))
            return chosen

        return reduce_color_space(
            edges, lists, palette, p, adjacency, degrees, initial, solve
        )

    def test_p16_runs_one_level_4_phase(self):
        seen = []
        outcome = self._reduce(16, seen)
        assert outcome.phases_run == 1
        assert set(outcome.level_histogram) == {4}
        assert seen == [("phase ℓ=4 index assignment", 200)]
        assert outcome.eq2_violations == 0
        assert not outcome.deferred
        assert len(outcome.assignment) == 200

    def test_p32_runs_clean(self):
        # Level 5 needs deg(e) >= 32 for E(1); every edge has 18, so
        # the whole instance goes to E(2).
        seen = []
        outcome = self._reduce(32, seen)
        assert outcome.phases_run == 0
        assert seen == [("E(2) index assignment", 200)]
        assert outcome.eq2_violations == 0
        assert not outcome.deferred
        assert len(outcome.assignment) == 200


class TestEquation2Bound:
    def test_formula(self):
        import math

        value = equation_2_bound(8, 4, 10, 5, 6)
        expected = 24 * harmonic_number(8) * math.log2(4) * 0.5 * 6
        assert value == pytest.approx(expected)

    def test_rejects_zero_list(self):
        with pytest.raises(ParameterError):
            equation_2_bound(4, 2, 0, 1, 3)
