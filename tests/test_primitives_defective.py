"""Tests for the Section 4.1 defective edge coloring — checked against
the paper's exact promises: defect <= deg(e)/(2β), O(β²) colors,
O(log* X) rounds."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstanceError, ParameterError
from repro.coloring.verify import check_defective_coloring, measure_defects
from repro.core.solver import compute_initial_edge_coloring
from repro.graphs.edges import edge_set
from repro.graphs.generators import (
    complete_bipartite,
    complete_graph,
    random_regular,
    star_graph,
)
from repro.graphs.line_graph import edge_degree
from repro.primitives.defective import defect_bound, defective_edge_coloring
from repro.utils.logstar import log_star


def _initial(graph, seed=1):
    coloring, _palette, _rounds = compute_initial_edge_coloring(graph, seed=seed)
    return coloring


@pytest.mark.parametrize("beta", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: complete_graph(9),
        lambda: complete_bipartite(6, 6),
        lambda: random_regular(6, 20, seed=8),
        lambda: star_graph(17),
    ],
)
def test_paper_promises_hold(make_graph, beta):
    """The theorem of Section 4.1 on a zoo of graphs and betas."""
    graph = make_graph()
    initial = _initial(graph)
    result = defective_edge_coloring(graph, beta, initial)
    # (1) every edge colored, within the O(β²) bound
    check_defective_coloring(
        graph,
        result.colors,
        lambda deg: defect_bound(deg, beta),
        color_bound=result.color_count,
    )
    # (2) the color bound is 3 * 4β(4β+1)/2 = O(β²)
    assert result.color_count == 3 * (4 * beta) * (4 * beta + 1) // 2


@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize(
    "make_graph",
    [
        lambda: complete_graph(8),
        lambda: complete_bipartite(5, 5),
        lambda: star_graph(12),
        lambda: random_regular(6, 16, seed=4),
    ],
    ids=["k8", "k55", "star12", "rr6_16"],
)
def test_defect_bounds_per_edge(make_graph, beta):
    """Every edge's defect is at most deg(e)/2β, the id-aligned labels
    cover the edge set once and stay inside the palette."""
    graph = make_graph()
    result = defective_edge_coloring(graph, beta, _initial(graph, seed=2))
    assert len(result.ids) == len(result.labels) == graph.number_of_edges()
    assert set(result.colors) == set(edge_set(graph))
    assert all(0 <= c < result.color_count for c in result.labels)
    defects = measure_defects(graph, result.colors)
    for edge in edge_set(graph):
        assert defects[edge] <= defect_bound(edge_degree(graph, edge), beta)


class TestStructure:
    def test_groups_have_bounded_size(self):
        graph = complete_graph(10)
        result = defective_edge_coloring(graph, 1, _initial(graph))
        for node, node_groups in result.groups.items():
            from collections import Counter

            sizes = Counter(node_groups.values())
            assert all(size <= 4 for size in sizes.values())  # 4β = 4

    def test_single_group_means_zero_defect(self):
        """If 4β >= Δ every node has one group -> proper coloring."""
        graph = random_regular(4, 10, seed=2)
        result = defective_edge_coloring(graph, 2, _initial(graph))  # 4β=8 > 4
        defects = measure_defects(graph, result.colors)
        assert all(d == 0 for d in defects.values())

    def test_rounds_are_logstar_scale(self):
        graph = random_regular(8, 30, seed=5)
        initial = _initial(graph)
        x = max(initial.values()) + 1
        result = defective_edge_coloring(graph, 1, initial)
        # 1 exchange + chain coloring (<= log* X + 3ish) + 1 publish
        assert result.rounds <= 2 + log_star(x) + 6

    def test_rounds_flat_in_n(self):
        rounds = []
        for n in (16, 64, 128):
            graph = random_regular(4, n, seed=7)
            result = defective_edge_coloring(graph, 2, _initial(graph))
            rounds.append(result.rounds)
        assert max(rounds) - min(rounds) <= 3

    def test_empty_graph(self):
        graph = nx.Graph()
        result = defective_edge_coloring(graph, 2, {})
        assert result.colors == {}
        assert result.rounds == 0


class TestValidation:
    def test_rejects_bad_beta(self):
        graph = nx.path_graph(3)
        with pytest.raises(ParameterError):
            defective_edge_coloring(graph, 0, _initial(graph))

    def test_rejects_missing_initial_colors(self):
        graph = nx.path_graph(4)
        with pytest.raises(InvalidInstanceError):
            defective_edge_coloring(graph, 1, {(0, 1): 1})


class TestPropertyBased:
    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_random_regular_instances(self, beta, seed):
        graph = random_regular(6, 16, seed=seed % 89)
        initial = _initial(graph, seed=seed % 31 + 1)
        result = defective_edge_coloring(graph, beta, initial)
        defects = measure_defects(graph, result.colors)
        for edge in edge_set(graph):
            assert defects[edge] <= defect_bound(edge_degree(graph, edge), beta)

    @settings(deadline=None, max_examples=12)
    @given(st.integers(min_value=5, max_value=30))
    def test_stars_any_size(self, leaves):
        """Stars are the extreme case: all edges share one node."""
        graph = star_graph(leaves)
        initial = _initial(graph)
        beta = 2
        result = defective_edge_coloring(graph, beta, initial)
        defects = measure_defects(graph, result.colors)
        for edge in edge_set(graph):
            assert defects[edge] <= defect_bound(edge_degree(graph, edge), beta)
