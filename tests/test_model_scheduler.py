"""Tests for the synchronous scheduler — the LOCAL model's semantics."""

import networkx as nx
import pytest

from repro.errors import RoundLimitExceededError
from repro.model.algorithm import NodeAlgorithm
from repro.model.network import Network
from repro.model.scheduler import (
    RoundArena,
    Scheduler,
    run_on_graph,
    shared_arena,
)
from repro.primitives.node_algorithms import FloodMaxAlgorithm
from repro.scenarios import ScenarioHook
from test_model_scheduler_equivalence import MixedSendPattern


class EchoOnce(NodeAlgorithm):
    """Sends its ID once, halts after receiving; output = sorted inbox."""

    def initialize(self, ctx):
        ctx.state["seen"] = []

    def compose_messages(self, ctx):
        return {port: ctx.unique_id for port in range(ctx.degree)}

    def receive_messages(self, ctx, inbox):
        ctx.state["seen"] = sorted(inbox.values())
        ctx.halt()

    def output(self, ctx):
        return ctx.state["seen"]


class NeverHalts(NodeAlgorithm):
    def compose_messages(self, ctx):
        return {}

    def receive_messages(self, ctx, inbox):
        pass

    def output(self, ctx):  # pragma: no cover
        return None


class TestSynchronousSemantics:
    def test_one_round_echo(self):
        result = run_on_graph(EchoOnce(), nx.path_graph(3))
        assert result.rounds == 1
        # node 1 (ID 2) hears both neighbors (IDs 1 and 3)
        assert result.outputs[1] == [1, 3]
        assert result.outputs[0] == [2]

    def test_message_count(self):
        result = run_on_graph(EchoOnce(), nx.cycle_graph(5))
        assert result.messages_sent == 10  # 2 per node

    def test_information_travels_one_hop_per_round(self):
        """FloodMax with horizon h: only nodes within distance h of the
        max-ID node learn the max — the defining property of
        synchronous rounds."""
        g = nx.path_graph(6)  # IDs 1..6 in node order; max at node 5
        for horizon in (1, 2, 5):
            result = run_on_graph(FloodMaxAlgorithm(horizon), g)
            for node in g.nodes():
                distance = 5 - node
                if distance <= horizon:
                    assert result.outputs[node] == 6
                else:
                    assert result.outputs[node] < 6

    def test_round_budget_enforced(self):
        scheduler = Scheduler(Network(nx.path_graph(2)), max_rounds=3)
        with pytest.raises(RoundLimitExceededError):
            scheduler.run(NeverHalts())

    def test_trace_recording(self):
        scheduler = Scheduler(Network(nx.path_graph(2)), record_trace=True)
        result = scheduler.run(EchoOnce())
        assert len(result.trace) == 2
        senders = {m.sender for m in result.trace}
        assert senders == {0, 1}

    def test_max_message_size_reported(self):
        result = run_on_graph(EchoOnce(), nx.path_graph(2))
        assert result.max_message_size >= 1

    def test_message_size_estimate_cached(self):
        from repro.model.message import Message

        message = Message(sender=0, receiver=1, round_index=1, payload=[1, 2])
        first = message.size_estimate()
        message.payload.append(3)  # cache means later mutation is invisible
        assert message.size_estimate() == first == len(repr([1, 2]))

    def test_halted_nodes_are_not_iterated(self):
        """Active-set scheduling: compose is never called on a node
        that halted in an earlier round."""

        class HaltEarly(NodeAlgorithm):
            def __init__(self):
                self.composed: list[tuple[int, int]] = []

            def initialize(self, ctx):
                ctx.state["round"] = 0

            def compose_messages(self, ctx):
                self.composed.append((ctx.unique_id, ctx.state["round"]))
                return {}

            def receive_messages(self, ctx, inbox):
                ctx.state["round"] += 1
                # Node with ID k halts after round k.
                if ctx.state["round"] >= ctx.unique_id:
                    ctx.halt()

            def output(self, ctx):
                return ctx.state["round"]

        algorithm = HaltEarly()
        result = run_on_graph(algorithm, nx.path_graph(3))
        assert result.rounds == 3
        for unique_id, round_index in algorithm.composed:
            assert round_index < unique_id

    def test_zero_horizon_floodmax_halts_immediately(self):
        result = run_on_graph(FloodMaxAlgorithm(0), nx.path_graph(3))
        assert result.rounds == 0
        assert result.outputs[2] == 3


class TestMaxMessageSizeFlagMatrix:
    """The size audit always runs: tracing must not change
    ``max_message_size``, and the trace holds one record per message
    only when it is on."""

    @pytest.mark.parametrize("trace", [True, False])
    def test_with_and_without_trace(self, trace):
        scheduler = Scheduler(Network(nx.path_graph(4)), record_trace=trace)
        result = scheduler.run(FloodMaxAlgorithm(2))
        assert result.max_message_size == len(repr(4))  # largest flooded ID
        assert len(result.trace) == (result.messages_sent if trace else 0)

    @pytest.mark.parametrize("trace", [True, False])
    def test_hooked_run_audits_the_same_size(self, trace):
        """The hooked mode shares the audit: a pass-through hook
        reports the same size, with or without a trace."""
        scheduler = Scheduler(
            Network(nx.path_graph(4)),
            record_trace=trace,
            delivery_hook=ScenarioHook(seed=0),
        )
        result = scheduler.run(FloodMaxAlgorithm(2))
        assert result.max_message_size == len(repr(4))
        assert len(result.trace) == (result.messages_sent if trace else 0)

    def test_silent_run_reports_zero(self):
        result = run_on_graph(FloodMaxAlgorithm(0), nx.path_graph(3))
        assert result.messages_sent == 0
        assert result.max_message_size == 0

    def test_audit_equals_largest_traced_payload(self):
        """Broadcast-column and push accounting agree with sizing every
        delivered message one by one."""
        network = Network(nx.gnp_random_graph(12, 0.4, seed=5))
        plain = Scheduler(network).run(MixedSendPattern(4))
        traced = Scheduler(network, record_trace=True).run(
            MixedSendPattern(4)
        )
        largest = max(len(repr(m.payload)) for m in traced.trace)
        assert plain.max_message_size == traced.max_message_size == largest


class TestRoundArena:
    def test_shared_arena_reuse_is_observably_free(self):
        """Back-to-back runs of different networks in one arena match
        fresh private-arena runs exactly (stale stamps cannot leak)."""
        big = Network(nx.random_regular_graph(4, 24, seed=3))
        small = Network(nx.path_graph(5))
        fresh = [
            Scheduler(big).run(FloodMaxAlgorithm(3)),
            Scheduler(small).run(FloodMaxAlgorithm(2)),
            Scheduler(big).run(FloodMaxAlgorithm(1)),
        ]
        with shared_arena() as arena:
            pooled = [
                Scheduler(big).run(FloodMaxAlgorithm(3)),
                Scheduler(small).run(FloodMaxAlgorithm(2)),
                Scheduler(big).run(FloodMaxAlgorithm(1)),
            ]
        for a, b in zip(fresh, pooled):
            assert a.rounds == b.rounds
            assert a.messages_sent == b.messages_sent
            assert a.outputs == b.outputs
            assert a.max_message_size == b.max_message_size
        # Exiting the context cleared payload references.
        assert set(arena._payload_buf) == {None}

    def test_explicit_arena_parameter(self):
        arena = RoundArena()
        network = Network(nx.cycle_graph(6))
        first = Scheduler(network, arena=arena).run(FloodMaxAlgorithm(2))
        second = Scheduler(network, arena=arena).run(FloodMaxAlgorithm(2))
        assert first.outputs == second.outputs
        assert arena._clock == first.rounds + second.rounds

    def test_trace_covers_every_message(self):
        graph = nx.path_graph(4)
        result = Scheduler(Network(graph), record_trace=True).run(
            FloodMaxAlgorithm(2)
        )
        assert len(result.trace) == result.messages_sent
        assert all(graph.has_edge(m.sender, m.receiver) for m in result.trace)
        assert {m.round_index for m in result.trace} == set(
            range(1, result.rounds + 1)
        )

    def test_failed_run_leaves_no_stale_trace(self):
        scheduler = Scheduler(
            Network(nx.path_graph(3)), record_trace=True, max_rounds=2
        )
        first = scheduler.run(FloodMaxAlgorithm(1))
        with shared_arena() as arena:
            with pytest.raises(RoundLimitExceededError):
                scheduler.run(NeverHalts())
            assert not arena._in_use
        again = scheduler.run(FloodMaxAlgorithm(1))
        assert again.trace == first.trace
        assert len(again.trace) == again.messages_sent
