"""Scheduler equivalence: the fast path vs the preserved seed loop.

The simulation core was rebuilt around precomputed, integer-indexed
structures (see :mod:`repro.model.scheduler`); these property-style
tests are the contract that the rebuild changed *nothing observable*:
on a zoo of random graphs x ID assignments, ``rounds``,
``messages_sent`` and ``outputs`` must be bit-identical between
:func:`repro.model.reference.reference_run` (the seed loop) and
:meth:`repro.model.scheduler.Scheduler.run` (the fast path).

The determinism contract of the *consumers* is pinned too: Luby's
randomized baseline and the full BKO20 solver must be invariant under
graph-construction insertion order (everything orders by the single
canonical sort) and reproducible run-to-run.
"""

import random

import networkx as nx
import pytest

from repro.baselines.randomized_luby import randomized_luby_coloring
from repro.core.solver import solve_edge_coloring
from repro.graphs.edges import edge_set
from repro.graphs.generators import random_regular
from repro.graphs.properties import assign_unique_ids, max_degree
from repro.model.algorithm import NodeAlgorithm
from repro.model.edge_network import line_graph_network
from repro.model.network import Network
from repro.model.reference import reference_run
from repro.model.scheduler import Scheduler, shared_arena
from repro.primitives.node_algorithms import (
    FloodMaxAlgorithm,
    LinialColorReductionAlgorithm,
)
from repro.scenarios.programs import ResilientGreedySweepAlgorithm


class MixedSendPattern(NodeAlgorithm):
    """Exercises every delivery path of the columnar engine at once.

    By ``unique_id % 3`` a node, each round: broadcasts one shared
    tuple through every port (the broadcast-column pull path), sends a
    distinct payload per *even* port (the partial push path), or stays
    silent.  Receivers accumulate ``list(inbox.items())`` per round, so
    the *iteration order* of every inbox — not just its contents — is
    part of the output the equivalence check diffs.
    """

    def __init__(self, horizon: int) -> None:
        self._horizon = horizon

    def initialize(self, ctx):
        ctx.state["round"] = 0
        ctx.state["seen"] = []

    def compose_messages(self, ctx):
        mode = ctx.unique_id % 3
        if mode == 0:
            message = ("bcast", ctx.unique_id, ctx.state["round"])
            return dict.fromkeys(range(ctx.degree), message)
        if mode == 1:
            return {
                port: ("uni", ctx.unique_id, port)
                for port in range(0, ctx.degree, 2)
            }
        return {}

    def receive_messages(self, ctx, inbox):
        ctx.state["seen"].append(list(inbox.items()))
        ctx.state["round"] += 1
        if ctx.state["round"] >= self._horizon:
            ctx.halt()

    def output(self, ctx):
        return ctx.state["seen"]


def _random_graph(seed: int) -> nx.Graph:
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    p = rng.uniform(0.2, 0.6)
    return nx.gnp_random_graph(n, p, seed=seed)


def _assert_equivalent(network: Network, make_algorithm, max_rounds=10_000):
    """Run both loops with fresh algorithm instances and diff results."""
    ref = reference_run(network, make_algorithm(), max_rounds=max_rounds)
    fast = Scheduler(network, max_rounds=max_rounds).run(make_algorithm())
    assert ref.rounds == fast.rounds
    assert ref.messages_sent == fast.messages_sent
    assert ref.outputs == fast.outputs
    return fast


class TestFastPathMatchesReference:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("id_seed", [None, 3])
    def test_floodmax_on_random_graphs(self, seed, id_seed):
        """20 cells: random graph x ID assignment, multi-round flood."""
        graph = _random_graph(seed)
        ids = assign_unique_ids(graph, seed=id_seed)
        network = Network(graph, ids=ids)
        horizon = 1 + seed % 5
        _assert_equivalent(network, lambda: FloodMaxAlgorithm(horizon))

    @pytest.mark.parametrize("seed", range(5))
    def test_linial_on_random_line_graphs(self, seed):
        graph = _random_graph(seed)
        if graph.number_of_edges() == 0:
            pytest.skip("edgeless instance")
        ids = assign_unique_ids(graph, seed=seed)
        network = line_graph_network(graph, node_ids=ids)
        _assert_equivalent(
            network,
            lambda: LinialColorReductionAlgorithm(id_space=network.max_id()),
        )

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_full_linial_greedy_pipeline(self, seed):
        """Both stages of the message-passing pipeline, reference vs
        fast, including the stage-1 -> stage-2 stitching."""
        graph = _random_graph(seed)
        if graph.number_of_edges() == 0:
            pytest.skip("edgeless instance")
        delta = max_degree(graph)
        ids = assign_unique_ids(graph, seed=2)
        network = line_graph_network(graph, node_ids=ids)

        stage1 = _assert_equivalent(
            network,
            lambda: LinialColorReductionAlgorithm(id_space=network.max_id()),
        )
        classes = dict(stage1.outputs)
        class_palette = max(classes.values()) + 1
        palette = frozenset(range(1, max(2, 2 * delta)))
        lists = {edge: palette for edge in edge_set(graph)}
        _assert_equivalent(
            network,
            lambda: ResilientGreedySweepAlgorithm(classes, lists, class_palette),
            max_rounds=100_000,
        )

    def test_max_message_size_matches_reference(self):
        graph = _random_graph(4)
        network = Network(graph)
        ref = reference_run(network, FloodMaxAlgorithm(3))
        fast = Scheduler(network).run(FloodMaxAlgorithm(3))
        assert ref.max_message_size == fast.max_message_size

    def test_max_message_size_exact_for_mutated_payloads(self):
        """Payloads mutated after sending must be sized at send time,
        exactly like the reference's eager accounting."""
        from repro.model.algorithm import NodeAlgorithm

        class GrowThenShrink(NodeAlgorithm):
            """Round 1: send a big shared list; round 2: clear it and
            send it again (small); then halt."""

            def initialize(self, ctx):
                ctx.state["payload"] = list(range(50))
                ctx.state["round"] = 0

            def compose_messages(self, ctx):
                return {port: ctx.state["payload"] for port in range(ctx.degree)}

            def receive_messages(self, ctx, inbox):
                ctx.state["round"] += 1
                ctx.state["payload"].clear()
                if ctx.state["round"] >= 2:
                    ctx.halt()

            def output(self, ctx):
                return None

        network = Network(nx.path_graph(3))
        ref = reference_run(network, GrowThenShrink())
        fast = Scheduler(network).run(GrowThenShrink())
        assert ref.max_message_size == fast.max_message_size
        assert fast.max_message_size == len(repr(list(range(50))))

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_push_pull_rounds_preserve_inbox_order(self, seed):
        """Broadcast, partial-push and silent senders in the same
        round: contents *and* iteration order of every inbox must
        match the reference (the outputs embed list(inbox.items()))."""
        graph = _random_graph(seed)
        ids = assign_unique_ids(graph, seed=seed % 3 or None)
        network = Network(graph, ids=ids)
        _assert_equivalent(network, lambda: MixedSendPattern(3 + seed % 3))

    def test_equal_but_distinct_payloads_are_not_collapsed(self):
        """The broadcast column requires the *same object* on every
        port: ==-equal but distinct payloads (1 vs 1.0, fresh tuples)
        must keep exact per-port delivery and size accounting."""

        class EqualNotIdentical(NodeAlgorithm):
            def initialize(self, ctx):
                ctx.state["seen"] = []

            def compose_messages(self, ctx):
                # Port 0 sends int 1, later ports send float 1.0 —
                # all == equal, none interchangeable for CONGEST or
                # repr-size purposes.
                return {
                    port: 1 if port == 0 else 1.0
                    for port in range(ctx.degree)
                }

            def receive_messages(self, ctx, inbox):
                ctx.state["seen"] = [
                    (port, value, type(value).__name__)
                    for port, value in inbox.items()
                ]
                ctx.halt()

            def output(self, ctx):
                return ctx.state["seen"]

        network = Network(nx.path_graph(3))
        ref = reference_run(network, EqualNotIdentical())
        fast = Scheduler(network).run(EqualNotIdentical())
        assert ref.outputs == fast.outputs
        assert ref.max_message_size == fast.max_message_size == len("1.0")

    def test_noninteger_ports_raise_like_the_reference(self):
        """Float port keys — integral or not — must not slip through
        the broadcast path's pigeonhole check."""

        class FloatPorts(NodeAlgorithm):
            def compose_messages(self, ctx):
                if ctx.degree >= 2:
                    keys = [0, 1.5] + list(range(2, ctx.degree))
                    return dict.fromkeys(keys, "x")
                return dict.fromkeys(range(ctx.degree), "x")

            def receive_messages(self, ctx, inbox):
                ctx.halt()

            def output(self, ctx):
                return None

        network = Network(nx.star_graph(3))
        with pytest.raises(TypeError):
            reference_run(network, FloatPorts())
        with pytest.raises(TypeError):
            Scheduler(network).run(FloatPorts())

    def test_mixed_pattern_under_a_shared_arena(self):
        """Arena reuse across back-to-back runs must not leak stale
        slots into later executions (stamps are monotone)."""
        graphs = [_random_graph(s) for s in (2, 8)]
        networks = [Network(g, ids=assign_unique_ids(g)) for g in graphs]
        with shared_arena():
            for network in networks + networks:  # reuse both twice
                _assert_equivalent(network, lambda: MixedSendPattern(3))
                _assert_equivalent(network, lambda: FloodMaxAlgorithm(2))

    @pytest.mark.slow
    def test_equivalence_on_10k_node_instance(self):
        """Acceptance anchor: the columnar engine stays bit-identical
        to the seed loop on a 10,000-node instance (the scale the
        recorded BENCH_scheduler.json rows are measured at)."""
        graph = random_regular(6, 10_000, seed=11)
        ids = assign_unique_ids(graph, seed=5)
        network = Network(graph, ids=ids)
        fast = _assert_equivalent(network, lambda: FloodMaxAlgorithm(2))
        assert fast.messages_sent == 10_000 * 6 * 2

    def test_trace_matches_reference(self):
        graph = _random_graph(5)
        network = Network(graph)
        ref = reference_run(network, FloodMaxAlgorithm(2), record_trace=True)
        fast = Scheduler(network, record_trace=True).run(FloodMaxAlgorithm(2))
        assert len(ref.trace) == len(fast.trace)
        assert {
            (m.sender, m.receiver, m.round_index, m.payload) for m in ref.trace
        } == {
            (m.sender, m.receiver, m.round_index, m.payload) for m in fast.trace
        }


class TestConsumerDeterminism:
    """Luby and the full BKO20 solver: canonical ordering means results
    do not depend on graph-construction insertion order."""

    @staticmethod
    def _shuffled_copy(graph: nx.Graph, seed: int) -> nx.Graph:
        edges = list(graph.edges())
        random.Random(seed).shuffle(edges)
        copy = nx.Graph()
        copy.add_nodes_from(reversed(sorted(graph.nodes(), key=repr)))
        copy.add_edges_from(edges)
        return copy

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_luby_invariant_under_insertion_order(self, seed):
        graph = _random_graph(seed)
        if graph.number_of_edges() == 0:
            pytest.skip("edgeless instance")
        first = randomized_luby_coloring(graph, seed=7)
        second = randomized_luby_coloring(
            self._shuffled_copy(graph, seed), seed=7
        )
        assert first.rounds == second.rounds
        assert first.coloring == second.coloring

    @pytest.mark.parametrize("seed", [2, 6])
    def test_bko20_solver_invariant_under_insertion_order(self, seed):
        graph = _random_graph(seed)
        if graph.number_of_edges() == 0:
            pytest.skip("edgeless instance")
        first = solve_edge_coloring(graph, seed=3)
        second = solve_edge_coloring(self._shuffled_copy(graph, seed), seed=3)
        assert first.rounds == second.rounds
        assert first.coloring == second.coloring
