"""Tests for the message-passing primitives on the simulator —
cross-validated against the functional forms."""

import networkx as nx
import pytest

from repro.coloring.verify import check_proper_edge_coloring
from repro.graphs.edges import edge_set
from repro.graphs.generators import complete_bipartite, random_regular
from repro.graphs.line_graph import line_graph_adjacency
from repro.model.edge_network import line_graph_network
from repro.model.network import Network
from repro.model.scheduler import Scheduler, run_on_graph
from repro.primitives.linial import linial_reduce
from repro.primitives.node_algorithms import (
    FloodMaxAlgorithm,
    LinialColorReductionAlgorithm,
    build_linial_schedule,
)
from repro.scenarios.programs import ResilientGreedySweepAlgorithm
from repro.utils.logstar import log_star


class TestLinialMessagePassing:
    def test_produces_proper_coloring_on_graph(self):
        g = random_regular(4, 12, seed=7)
        net = Network(g)
        result = Scheduler(net).run(
            LinialColorReductionAlgorithm(id_space=net.max_id())
        )
        for u, v in g.edges():
            assert result.outputs[u] != result.outputs[v]

    def test_on_line_graph_gives_edge_coloring(self):
        g = complete_bipartite(4, 4)
        net = line_graph_network(g)
        result = Scheduler(net).run(
            LinialColorReductionAlgorithm(id_space=net.max_id())
        )
        check_proper_edge_coloring(g, dict(result.outputs))

    def test_rounds_match_schedule_length(self):
        g = nx.cycle_graph(20)
        net = Network(g)
        schedule = build_linial_schedule(net.max_id(), net.max_degree)
        result = Scheduler(net).run(
            LinialColorReductionAlgorithm(id_space=net.max_id())
        )
        assert result.rounds == len(schedule)
        assert result.rounds <= log_star(net.max_id()) + 4

    def test_message_passing_agrees_with_functional_rounds(self):
        """Same schedule => same number of rounds as linial_reduce on
        the same instance (both run to the fixpoint)."""
        g = random_regular(3, 10, seed=2)
        net = Network(g)
        adjacency = {node: sorted(g.neighbors(node)) for node in g.nodes()}
        functional = linial_reduce(adjacency, net.ids())
        simulated = Scheduler(net).run(
            LinialColorReductionAlgorithm(id_space=net.max_id())
        )
        # Same fixpoint-driven schedule: round counts within 1
        # (functional may stop one step earlier via its palette check).
        assert abs(simulated.rounds - functional.rounds) <= 1


    def test_schedule_is_built_once_per_run(self, monkeypatch):
        import repro.primitives.node_algorithms as module

        calls = []

        def counting(id_space, degree_bound):
            calls.append((id_space, degree_bound))
            return build_linial_schedule(id_space, degree_bound)

        monkeypatch.setattr(module, "build_linial_schedule", counting)
        net = Network(random_regular(4, 12, seed=7))
        Scheduler(net).run(LinialColorReductionAlgorithm(id_space=net.max_id()))
        assert calls == [(net.max_id(), net.max_degree)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_value_tables_match_textbook_agreement_points(self, seed):
        """Cached value tables pick the same colors as the per-neighbor
        ``agreement_points`` form of the step."""
        g = random_regular(5, 14, seed=seed)
        net = line_graph_network(g)
        cached = Scheduler(net).run(
            LinialColorReductionAlgorithm(id_space=net.max_id())
        )
        textbook = Scheduler(net).run(
            _TextbookLinial(id_space=net.max_id())
        )
        assert cached.outputs == textbook.outputs
        assert cached.rounds == textbook.rounds


class _TextbookLinial(LinialColorReductionAlgorithm):
    """One reduction step straight from the definition, per neighbor."""

    def receive_messages(self, ctx, inbox):
        from repro.utils.gf import FieldPolynomial

        params = ctx.state["schedule"][ctx.state["step"]]
        q, k = params.q, params.k
        own = FieldPolynomial.from_color(ctx.state["color"], q, k)
        forbidden = set()
        for color in inbox.values():
            other = FieldPolynomial.from_color(color, q, k)
            forbidden.update(own.agreement_points(other))
        x = min(set(range(q)) - forbidden)
        ctx.state["color"] = x * q + own.evaluate(x)
        ctx.state["step"] += 1
        if ctx.state["step"] == len(ctx.state["schedule"]):
            ctx.halt()


class TestGreedyClassSweepMessagePassing:
    def test_colors_the_line_graph(self):
        g = complete_bipartite(3, 3)
        adjacency = line_graph_adjacency(g)
        # simple proper classes: use functional Linial
        net = line_graph_network(g)
        classes_result = linial_reduce(adjacency, net.ids())
        classes = classes_result.colors
        class_count = classes_result.palette_size
        delta = 3
        lists = {
            e: frozenset(range(1, 2 * delta)) for e in edge_set(g)
        }
        algorithm = ResilientGreedySweepAlgorithm(classes, lists, class_count)
        result = Scheduler(net, max_rounds=class_count + 5).run(algorithm)
        coloring = dict(result.outputs)
        assert all(c is not None for c in coloring.values())
        check_proper_edge_coloring(g, coloring)
        assert result.rounds == class_count + 1


class TestFloodMax:
    def test_converges_to_global_max(self):
        g = nx.path_graph(7)
        result = run_on_graph(FloodMaxAlgorithm(horizon=6), g)
        assert all(value == 7 for value in result.outputs.values())

    def test_rejects_negative_horizon(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            FloodMaxAlgorithm(-1)
