"""Tests for the CONGEST execution mode."""

import networkx as nx
import pytest

from repro.errors import ModelViolationError, ParameterError
from repro.coloring.verify import check_proper_edge_coloring
from repro.graphs.properties import assign_unique_ids
from repro.model.congest import (
    CongestScheduler,
    payload_bits,
    standard_bandwidth,
)
from repro.model.edge_network import line_graph_network
from repro.model.network import Network
from repro.primitives.node_algorithms import (
    FloodMaxAlgorithm,
    LinialColorReductionAlgorithm,
)


class TestPayloadBits:
    def test_integers(self):
        assert payload_bits(0) == 1
        assert payload_bits(1) == 1
        assert payload_bits(255) == 8
        assert payload_bits(256) == 9

    def test_none_and_bool(self):
        assert payload_bits(None) == 1
        assert payload_bits(True) == 1

    def test_tuples_add_framing(self):
        assert payload_bits((3, 5)) == (2 + 2) + (3 + 2)

    def test_strings(self):
        assert payload_bits("ab") == 16

    def test_rejects_unknown_types(self):
        with pytest.raises(ModelViolationError):
            payload_bits(object())


class TestStandardBandwidth:
    def test_log_n_scale(self):
        assert standard_bandwidth(1024, constant=4) == 40

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            standard_bandwidth(0)


class TestCongestExecution:
    def test_floodmax_is_congest_compatible(self):
        g = nx.path_graph(10)
        net = Network(g)
        scheduler = CongestScheduler(
            net, bandwidth_bits=standard_bandwidth(10)
        )
        report = scheduler.run_congest(FloodMaxAlgorithm(horizon=9))
        assert report.congest_compatible
        assert all(v == 10 for v in report.result.outputs.values())

    def test_linial_is_congest_compatible(self):
        """The reproduction finding: Linial's color reduction sends
        single colors (O(log n + log Δ) bits), so it already fits
        CONGEST — the paper's recursion is LOCAL only because of its
        *composition*, not its primitives."""
        g = nx.complete_bipartite_graph(4, 4)
        ids = assign_unique_ids(g, seed=3)
        net = line_graph_network(g, node_ids=ids)
        scheduler = CongestScheduler(
            net, bandwidth_bits=standard_bandwidth(net.n, constant=8)
        )
        report = scheduler.run_congest(
            LinialColorReductionAlgorithm(id_space=net.max_id())
        )
        assert report.congest_compatible
        check_proper_edge_coloring(g, dict(report.result.outputs))

    def test_strict_mode_raises_on_violation(self):
        g = nx.path_graph(6)
        net = Network(g, ids={i: 2**40 + i for i in range(6)})
        scheduler = CongestScheduler(net, bandwidth_bits=8, strict=True)
        with pytest.raises(
            ModelViolationError,
            match="round 1: message 0 -> 1 uses 41 bits > budget 8",
        ):
            scheduler.run_congest(FloodMaxAlgorithm(horizon=2))

    def test_lenient_mode_counts_violations(self):
        g = nx.path_graph(6)
        net = Network(g, ids={i: 2**40 + i for i in range(6)})
        scheduler = CongestScheduler(net, bandwidth_bits=8, strict=False)
        report = scheduler.run_congest(FloodMaxAlgorithm(horizon=2))
        assert not report.congest_compatible
        assert report.violations == 20
        assert report.max_bits_seen >= 41
        assert len(report.result.trace) == report.result.messages_sent

    def test_violations_are_the_traced_messages_over_budget(self):
        g = nx.path_graph(6)
        net = Network(g, ids={i: 2**40 + i for i in range(6)})
        scheduler = CongestScheduler(net, bandwidth_bits=8, strict=False)
        report = scheduler.run_congest(FloodMaxAlgorithm(horizon=2))
        bits = [payload_bits(m.payload) for m in report.result.trace]
        assert report.violations == sum(b > 8 for b in bits)
        assert report.max_bits_seen == max(bits)

    def test_result_still_reports_repr_size_metric(self):
        """The bit audit must not cost the LOCAL size metric:
        max_message_size stays available on CONGEST results."""
        g = nx.path_graph(10)
        scheduler = CongestScheduler(
            Network(g), bandwidth_bits=standard_bandwidth(10)
        )
        report = scheduler.run_congest(FloodMaxAlgorithm(horizon=2))
        assert report.result.max_message_size == len(repr(10))

    def test_rejects_bad_bandwidth(self):
        net = Network(nx.path_graph(3))
        with pytest.raises(ParameterError):
            CongestScheduler(net, bandwidth_bits=0)

    def test_audit_stays_type_strict_across_equal_payloads(self):
        """The size memo must not let 1.0 (unsupported float) reuse the
        cached size of the equal-comparing int 1."""
        from repro.model.algorithm import NodeAlgorithm

        class IntThenFloat(NodeAlgorithm):
            def initialize(self, ctx):
                ctx.state["round"] = 0

            def compose_messages(self, ctx):
                payload = 1 if ctx.state["round"] == 0 else 1.0
                return {port: payload for port in range(ctx.degree)}

            def receive_messages(self, ctx, inbox):
                ctx.state["round"] += 1
                if ctx.state["round"] >= 2:
                    ctx.halt()

            def output(self, ctx):
                return None

        net = Network(nx.path_graph(3))
        scheduler = CongestScheduler(net, bandwidth_bits=8, strict=False)
        with pytest.raises(ModelViolationError, match="float"):
            scheduler.run_congest(IntThenFloat())
