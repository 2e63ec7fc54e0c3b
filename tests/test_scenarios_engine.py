"""Tests for the scheduler's delivery-hook seam and the model hooks.

The engine-level half of the scenario subsystem: the hooked loop must
be bit-for-bit the fast path when no hook exists (that is pinned by
the equivalence suite already — here we pin the *identity model* to
it), and each adversarial hook must realise its documented semantics
deterministically.
"""

import pytest

from repro.graphs.generators import complete_bipartite, cycle_graph, path_graph
from repro.model.network import Network
from repro.model.scheduler import Scheduler
from repro.primitives.node_algorithms import FloodMaxAlgorithm
from repro.scenarios import ScenarioHook, run_under_model
from repro.scenarios.registry import get_model


def flood_result(network, horizon=8):
    return Scheduler(network).run(FloodMaxAlgorithm(horizon))


class TestIdentityModel:
    def test_synchronous_is_bit_for_bit_the_plain_engine(self):
        network = Network(complete_bipartite(4, 4))
        plain = flood_result(network)
        wrapped = run_under_model(
            network, FloodMaxAlgorithm(8), model="synchronous"
        )
        assert wrapped.rounds == plain.rounds
        assert wrapped.messages_sent == plain.messages_sent
        assert wrapped.outputs == plain.outputs
        assert wrapped.max_message_size == plain.max_message_size

    def test_identity_model_builds_no_hook(self):
        model = get_model("synchronous")
        assert model.build_hook(0, {}) is None


class TestPassThroughHook:
    def test_sync_delivery_hook_matches_plain_run(self):
        # The base hook gates nothing: same rounds/messages/outputs as
        # the fast path even though the hooked loop runs per-message.
        network = Network(cycle_graph(7))
        plain = flood_result(network, horizon=4)
        hooked = Scheduler(
            network, delivery_hook=ScenarioHook(seed=0)
        ).run(FloodMaxAlgorithm(4))
        assert hooked.rounds == plain.rounds
        assert hooked.messages_sent == plain.messages_sent
        assert hooked.outputs == plain.outputs

    def test_hooked_run_supports_trace(self):
        network = Network(path_graph(4))
        scheduler = Scheduler(
            network,
            record_trace=True,
            delivery_hook=ScenarioHook(seed=0),
        )
        result = scheduler.run(FloodMaxAlgorithm(2))
        assert len(result.trace) == result.messages_sent


class TestBoundedAsynchrony:
    def test_quota_limits_per_round_deliveries(self):
        network = Network(path_graph(5))
        result = run_under_model(
            network,
            FloodMaxAlgorithm(3),
            model="bounded_async",
            seed=1,
            params={"quota": 1},
        )
        # FloodMax halts on its round counter, so the horizon bounds
        # rounds; with quota 1 at most `rounds` messages ever flush.
        assert result.messages_sent <= result.rounds

    def test_information_is_delayed_not_lost(self):
        # On a path with a tiny quota, distant nodes cannot learn the
        # max in time: the identity run floods it everywhere, the
        # quota run must leave some node behind.
        network = Network(path_graph(6))
        sync = run_under_model(network, FloodMaxAlgorithm(5))
        slow = run_under_model(
            network,
            FloodMaxAlgorithm(5),
            model="bounded_async",
            seed=1,
            params={"quota": 1},
        )
        assert set(sync.outputs.values()) == {max(sync.outputs.values())}
        assert slow.outputs != sync.outputs

    def test_seeded_jitter_is_deterministic(self):
        network = Network(complete_bipartite(3, 3))

        def go():
            return run_under_model(
                network,
                FloodMaxAlgorithm(4),
                model="bounded_async",
                seed=5,
                params={"quota": 2, "jitter": 3},
            )

        first, second = go(), go()
        assert first.outputs == second.outputs
        assert first.messages_sent == second.messages_sent


class TestCrashStop:
    def test_crashed_nodes_are_excluded_from_outputs(self):
        network = Network(cycle_graph(8))
        result = run_under_model(
            network,
            FloodMaxAlgorithm(4),
            model="crash_stop",
            seed=3,
            params={"f": 2, "horizon": 2},
        )
        assert len(result.outputs) == network.n - 2

    def test_crash_schedule_is_seeded(self):
        network = Network(cycle_graph(8))

        def survivors(seed):
            result = run_under_model(
                network,
                FloodMaxAlgorithm(4),
                model="crash_stop",
                seed=seed,
                params={"f": 3, "horizon": 2},
            )
            return frozenset(result.outputs)

        assert survivors(1) == survivors(1)
        # Different adversary seeds pick different victims somewhere in
        # this seed range (8 choose 3 leaves plenty of room).
        assert len({survivors(seed) for seed in range(6)}) > 1

    def test_f_zero_is_harmless(self):
        network = Network(path_graph(4))
        sync = run_under_model(network, FloodMaxAlgorithm(3))
        result = run_under_model(
            network,
            FloodMaxAlgorithm(3),
            model="crash_stop",
            seed=1,
            params={"f": 0},
        )
        assert result.outputs == sync.outputs
        assert result.messages_sent == sync.messages_sent


class TestLossyLinks:
    def test_drop_zero_duplicate_zero_is_sync(self):
        network = Network(complete_bipartite(3, 3))
        sync = run_under_model(network, FloodMaxAlgorithm(4))
        clean = run_under_model(
            network,
            FloodMaxAlgorithm(4),
            model="lossy_links",
            seed=1,
            params={"drop": 0.0, "duplicate": 0.0},
        )
        assert clean.outputs == sync.outputs
        assert clean.messages_sent == sync.messages_sent
        assert clean.rounds == sync.rounds

    def test_drops_reduce_delivered_messages(self):
        network = Network(complete_bipartite(4, 4))
        sync = run_under_model(network, FloodMaxAlgorithm(4))
        lossy = run_under_model(
            network,
            FloodMaxAlgorithm(4),
            model="lossy_links",
            seed=2,
            params={"drop": 0.5},
        )
        assert lossy.messages_sent < sync.messages_sent

    def test_duplicates_echo_on_a_later_round(self):
        # With duplication certain, echoes collide with the next
        # round's fresh sends on the same links; the per-link rule
        # requeues them, and everything stays deterministic.
        network = Network(path_graph(3))

        def go():
            return run_under_model(
                network,
                FloodMaxAlgorithm(3),
                model="lossy_links",
                seed=4,
                params={"drop": 0.0, "duplicate": 0.9},
            )

        first, second = go(), go()
        assert first.outputs == second.outputs
        assert first.messages_sent == second.messages_sent
        # Echoes add deliveries beyond the synchronous count.
        sync = run_under_model(network, FloodMaxAlgorithm(3))
        assert first.messages_sent >= sync.messages_sent


class TestHookBookkeeping:
    def test_stats_are_json_safe_counters(self):
        model = get_model("lossy_links")
        hook = model.build_hook(1, {"drop": 0.3, "duplicate": 0.2})
        network = Network(complete_bipartite(3, 3))
        Scheduler(network, delivery_hook=hook).run(FloodMaxAlgorithm(4))
        stats = hook.stats()
        for key in (
            "messages_dropped",
            "messages_deferred",
            "messages_duplicated",
            "undelivered_at_finish",
            "crashed_count",
            "stages",
        ):
            assert isinstance(stats[key], int), key
        assert stats["stages"] == 1

    def test_multi_stage_runs_share_one_adversary_timeline(self):
        model = get_model("crash_stop")
        hook = model.build_hook(2, {"f": 2, "horizon": 1})
        network = Network(cycle_graph(6))
        first = Scheduler(network, delivery_hook=hook).run(FloodMaxAlgorithm(3))
        crashed_after_first = set(hook.crashed)
        assert len(crashed_after_first) == 2
        # Stage two re-applies the crash set before round 1 — victims
        # stay dead, and no new crashes appear (horizon passed).
        second = Scheduler(network, delivery_hook=hook).run(FloodMaxAlgorithm(3))
        assert hook.crashed == crashed_after_first
        assert set(second.outputs) == set(first.outputs)
        assert hook.stats()["stages"] == 2

    def test_round_limit_still_enforced_under_hook(self):
        from repro.errors import RoundLimitExceededError

        network = Network(path_graph(4))
        hook = get_model("bounded_async").build_hook(1, {"quota": 1})
        scheduler = Scheduler(network, max_rounds=2, delivery_hook=hook)
        with pytest.raises(RoundLimitExceededError):
            scheduler.run(FloodMaxAlgorithm(10))


class TestBacklogOrder:
    """The hooks' FIFO backlog, driven by hand: what leaves, in which
    order, and what the counters record."""

    @staticmethod
    def sends(*tags):
        return [(tag, tag + 1, f"m{tag}") for tag in tags]

    def test_bounded_async_flushes_the_oldest_quota(self):
        hook = get_model("bounded_async").build_hook(1, {"quota": 2})
        assert hook.gate(1, self.sends(1, 2, 3)) == self.sends(1, 2)
        assert hook.deferred == 1
        assert hook.gate(2, self.sends(4)) == self.sends(3, 4)
        assert hook.gate(3, []) == []
        assert hook.deferred == 1

    def test_requeued_sends_rejoin_the_front_in_order(self):
        hook = get_model("bounded_async").build_hook(1, {"quota": 2})
        hook.gate(1, self.sends(1, 2, 3, 4))
        hook.requeue(1, self.sends(8, 9))
        assert hook.deferred == 2 + 2
        assert hook.gate(2, self.sends(5)) == self.sends(8, 9)
        assert hook.gate(3, []) == self.sends(3, 4)
        hook.end_run(3)
        assert hook.undelivered_at_finish == 1
        assert hook.gate(4, []) == []

    def test_jitter_draws_match_a_fresh_rng(self):
        import random

        hook = get_model("bounded_async").build_hook(5, {"quota": 1, "jitter": 3})
        rng = random.Random(5)
        pending = self.sends(*range(40))
        delivered, waiting, deferred = [], 0, 0
        for round_index in range(1, 12):
            batch, pending = pending[:4], pending[4:]
            out = hook.gate(round_index, batch)
            waiting += len(batch)
            assert len(out) == min(1 + rng.randint(0, 3), waiting)
            waiting -= len(out)
            deferred += waiting
            delivered.extend(out)
        assert delivered == self.sends(*range(len(delivered)))
        assert hook.deferred == deferred

    def test_lossy_echoes_lead_the_next_round(self):
        hook = get_model("lossy_links").build_hook(
            3, {"drop": 0.0, "duplicate": 0.99}
        )
        first = hook.gate(1, self.sends(1, 2))
        assert first == self.sends(1, 2)
        hook.requeue(1, self.sends(7))
        second = hook.gate(2, self.sends(3))
        assert second[:3] == self.sends(7, 1, 2)
        assert second[3] == self.sends(3)[0]
