"""Tests for the Linial-style color reduction."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from compile_oracle import edge_identifier
from repro.errors import InvalidInstanceError
from repro.graphs.generators import random_regular
from repro.graphs.line_graph import line_graph_adjacency
from repro.graphs.properties import assign_unique_ids
from repro.primitives.linial import (
    linial_fixpoint_palette,
    linial_reduce,
    linial_step_parameters,
)
from repro.utils.gf import FieldPolynomial
from repro.utils.logstar import log_star


def _check_proper(adjacency, colors):
    for item, neighbors in adjacency.items():
        for other in neighbors:
            assert colors[item] != colors[other]


def _graph_adjacency(graph):
    return {node: sorted(graph.neighbors(node)) for node in graph.nodes()}


class TestStepParameters:
    def test_collision_bound_holds(self):
        params = linial_step_parameters(1000, 10)
        assert params.q > 10 * (params.k - 1)
        assert params.q ** params.k >= 1000

    def test_rejects_tiny_palette(self):
        with pytest.raises(InvalidInstanceError):
            linial_step_parameters(1, 5)

    @given(
        st.integers(min_value=2, max_value=10**7),
        st.integers(min_value=0, max_value=60),
    )
    def test_parameters_always_sound(self, palette, degree):
        params = linial_step_parameters(palette, degree)
        assert params.q > degree * max(0, params.k - 1)
        # every color must be encodable in k digits
        assert params.q ** params.k >= palette


class TestLinialReduce:
    def test_reduces_to_quadratic_palette(self):
        g = random_regular(4, 20, seed=2)
        adjacency = _graph_adjacency(g)
        ids = assign_unique_ids(g, seed=3)
        result = linial_reduce(adjacency, ids)
        _check_proper(adjacency, result.colors)
        assert result.palette_size <= 16 * (4 + 2) ** 2

    def test_initial_colors_beyond_int64(self):
        g = nx.cycle_graph(9)
        adjacency = _graph_adjacency(g)
        ids = {node: 2**70 + node * 7919 for node in g.nodes()}
        result = linial_reduce(adjacency, ids)
        _check_proper(adjacency, result.colors)
        assert result.palette_size <= 25

    def test_round_count_logstar_scale(self):
        g = nx.cycle_graph(64)
        adjacency = _graph_adjacency(g)
        ids = {node: 10**9 + node * 104729 for node in g.nodes()}
        result = linial_reduce(adjacency, ids)
        _check_proper(adjacency, result.colors)
        assert result.rounds <= log_star(10**10) + 4

    def test_on_line_graph_gives_edge_coloring(self):
        g = random_regular(5, 12, seed=4)
        adjacency = line_graph_adjacency(g)
        node_ids = assign_unique_ids(g)
        max_id = max(node_ids.values())
        edge_ids = {e: edge_identifier(e, node_ids, max_id) for e in adjacency}
        result = linial_reduce(adjacency, edge_ids)
        _check_proper(adjacency, result.colors)
        dbar = max(len(v) for v in adjacency.values())
        assert result.palette_size <= 16 * (dbar + 2) ** 2

    def test_empty_adjacency(self):
        result = linial_reduce({}, {})
        assert result.colors == {} and result.rounds == 0

    def test_isolated_items_get_single_color(self):
        result = linial_reduce({0: [], 1: []}, {0: 5, 1: 9})
        assert result.palette_size == 1
        assert result.rounds == 0

    def test_isolated_items_still_checked(self):
        # The no-conflict shortcut keeps the input checks: every item
        # needs a color, and colors must be non-negative.
        with pytest.raises(InvalidInstanceError):
            linial_reduce({0: [], 1: []}, {0: 5})
        with pytest.raises(InvalidInstanceError):
            linial_reduce({0: [], 1: []}, {0: 5, 1: -1})
        # Equal colors do not clash without an edge between them.
        assert linial_reduce({0: [], 1: []}, {0: 4, 1: 4}).colors == {0: 0, 1: 0}

    def test_stop_at_early_exit(self):
        g = nx.cycle_graph(30)
        adjacency = _graph_adjacency(g)
        ids = assign_unique_ids(g, seed=1)
        full = linial_reduce(adjacency, ids)
        early = linial_reduce(adjacency, ids, stop_at=10**6)
        assert early.rounds <= full.rounds

    def test_rejects_improper_input(self):
        with pytest.raises(InvalidInstanceError):
            linial_reduce({0: [1], 1: [0]}, {0: 3, 1: 3})

    def test_rejects_missing_colors(self):
        with pytest.raises(InvalidInstanceError):
            linial_reduce({0: [1], 1: [0]}, {0: 3})

    def test_matches_agreement_points_semantics(self):
        """The vectorised round must forbid exactly the agreement
        points of the polynomial encoding (cross-check vs the slow
        textbook form)."""
        g = nx.path_graph(6)
        adjacency = _graph_adjacency(g)
        ids = {node: [300, 1100, 700, 1900, 200, 1500][node] for node in g.nodes()}
        result = linial_reduce(adjacency, ids)
        assert result.step_parameters, "instance too small to exercise a step"
        params = result.step_parameters[0]
        q, k = params.q, params.k
        for node, neighbors in adjacency.items():
            own = FieldPolynomial.from_color(ids[node], q, k)
            forbidden = set()
            for other in neighbors:
                forbidden.update(
                    own.agreement_points(
                        FieldPolynomial.from_color(ids[other], q, k)
                    )
                )
            # first round's chosen x must avoid all agreement points
            first_round_color = _first_round_color(ids, adjacency, node, params)
            x = first_round_color // q
            assert x not in forbidden


def _first_round_color(ids, adjacency, node, params):
    import numpy as np

    from repro.graphs.index import Csr
    from repro.primitives.linial import _one_round

    graph = Csr.from_adjacency(adjacency)
    colors = np.array([ids[item] for item in graph.items], dtype=np.int64)
    new_colors = _one_round(graph, colors, params, graph.slot_owners())
    return int(new_colors[graph.items.index(node)])


class TestFixpointPalette:
    def test_known_values(self):
        assert linial_fixpoint_palette(0) == 1
        assert linial_fixpoint_palette(1) == 4  # prime 2 > 1
        assert linial_fixpoint_palette(4) == 25
        assert linial_fixpoint_palette(6) == 49

    @given(st.integers(min_value=1, max_value=500))
    def test_quadratic_scale(self, degree):
        assert degree**2 < linial_fixpoint_palette(degree) <= 16 * (degree + 2) ** 2
