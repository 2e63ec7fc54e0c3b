"""The hooked round loop: the path every adversarial run takes.

With a delivery hook installed, :meth:`Scheduler.run` skips the
broadcast column and pushes every message individually through the
hook's gate.  These tests pin that mode of the loop four ways:

1. with a pass-through hook (the base :class:`ScenarioHook` gates
   nothing) it must equal the seed loop in
   :mod:`repro.model.reference` on every observable — rounds,
   messages, outputs, inbox iteration order, traces;
2. under each adversarial model its results must not depend on the
   round arena it runs on (a shared arena dirtied by earlier runs, or
   a private one) nor on whether a trace is recorded;
3. a hook that raises during run setup leaves a shared arena free,
   and a run that dies mid-loop still closes the hook's run;
4. through the executor, a run is reproducible byte for byte, and a
   disk-cached result is served without re-executing.
"""

from __future__ import annotations

import json

import networkx as nx
import pytest

from repro.api import InstanceSpec, RunSpec, ScenarioSpec
from repro.api.runner import clear_result_cache, run
from repro.errors import RoundLimitExceededError
from repro.graphs.generators import random_regular
from repro.graphs.properties import assign_unique_ids
from repro.model.network import Network
from repro.model.reference import reference_run
from repro.model.scheduler import RoundArena, Scheduler, shared_arena
from repro.primitives.node_algorithms import (
    FloodMaxAlgorithm,
    LinialColorReductionAlgorithm,
)
from repro.scenarios import ScenarioHook, run_under_model
from repro.scenarios.registry import get_model
from test_model_scheduler_equivalence import MixedSendPattern

#: The three adversarial delivery models, with non-default parameters
#: so their hooks actually defer / crash / drop / duplicate.
ADVERSARIAL_MODELS = [
    ("bounded_async", {"quota": 5, "jitter": 2}),
    ("crash_stop", {"f": 2, "horizon": 6}),
    ("lossy_links", {"drop": 0.2, "duplicate": 0.1}),
]


def _network(seed: int, n: int = 14, p: float = 0.4) -> Network:
    graph = nx.gnp_random_graph(n, p, seed=seed)
    return Network(graph, ids=assign_unique_ids(graph, seed=seed))


def _assert_identical(a, b):
    """Diff every observable of two ExecutionResults."""
    assert a.rounds == b.rounds
    assert a.messages_sent == b.messages_sent
    assert a.outputs == b.outputs
    assert a.trace == b.trace
    assert a.max_message_size == b.max_message_size


def _pass_through(network, algorithm, *, record_trace=False):
    scheduler = Scheduler(
        network, record_trace=record_trace, delivery_hook=ScenarioHook(seed=0)
    )
    return scheduler.run(algorithm)


def _trace_keys(trace):
    return [(m.sender, m.receiver, m.round_index, m.payload) for m in trace]


class TestPassThroughMatchesReference:
    """A hook that gates nothing changes nothing the seed loop shows."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
    def test_floodmax(self, seed):
        network = _network(seed)
        ref = reference_run(network, FloodMaxAlgorithm(6))
        hooked = _pass_through(network, FloodMaxAlgorithm(6))
        assert hooked.rounds == ref.rounds
        assert hooked.messages_sent == ref.messages_sent
        assert hooked.outputs == ref.outputs
        assert hooked.max_message_size == ref.max_message_size

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_mixed_pattern_inbox_order(self, seed):
        # MixedSendPattern's output is every inbox as a list of items,
        # so inbox iteration order is compared, not just contents.
        network = _network(seed)
        ref = reference_run(network, MixedSendPattern(5))
        hooked = _pass_through(network, MixedSendPattern(5))
        assert hooked.rounds == ref.rounds
        assert hooked.messages_sent == ref.messages_sent
        assert hooked.outputs == ref.outputs

    def test_linial_on_regular_graph(self):
        network = Network(random_regular(4, 30, seed=3))
        ref = reference_run(
            network, LinialColorReductionAlgorithm(id_space=network.max_id())
        )
        hooked = _pass_through(
            network, LinialColorReductionAlgorithm(id_space=network.max_id())
        )
        assert hooked.rounds == ref.rounds
        assert hooked.messages_sent == ref.messages_sent
        assert hooked.outputs == ref.outputs

    def test_trace_matches_reference(self):
        network = _network(4)
        ref = reference_run(network, MixedSendPattern(4), record_trace=True)
        hooked = _pass_through(network, MixedSendPattern(4), record_trace=True)
        assert len(hooked.trace) == hooked.messages_sent
        assert sorted(_trace_keys(hooked.trace), key=repr) == sorted(
            _trace_keys(ref.trace), key=repr
        )


class TestAdversarialRunsAreArenaIndependent:
    """Arena reuse must not leak stale slots into a hooked run."""

    @staticmethod
    def _dirty_arena() -> RoundArena:
        # Leave payloads and stamps of an unrelated run in the buffers.
        arena = RoundArena()
        with shared_arena(arena):
            Scheduler(_network(11, n=20, p=0.5)).run(MixedSendPattern(4))
        return arena

    def _both(self, network, make_algorithm, model, params, seed):
        private = run_under_model(
            network, make_algorithm(), model=model, seed=seed, params=params
        )
        with shared_arena(self._dirty_arena()):
            shared = run_under_model(
                network, make_algorithm(), model=model, seed=seed, params=params
            )
        return private, shared

    @pytest.mark.parametrize("model,params", ADVERSARIAL_MODELS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_broadcast_flood(self, model, params, seed):
        private, shared = self._both(
            _network(seed), lambda: FloodMaxAlgorithm(6), model, params, seed
        )
        _assert_identical(private, shared)

    @pytest.mark.parametrize("model,params", ADVERSARIAL_MODELS)
    def test_object_payloads(self, model, params):
        # Tuple payloads and per-port sends; inbox iteration order is
        # part of MixedSendPattern's output.
        private, shared = self._both(
            _network(5), lambda: MixedSendPattern(5), model, params, 2
        )
        _assert_identical(private, shared)

    @pytest.mark.parametrize("model,params", ADVERSARIAL_MODELS)
    def test_trace_recording_is_observational(self, model, params):
        network = _network(7)
        hook_model = get_model(model)
        plain = Scheduler(
            network, delivery_hook=hook_model.build_hook(9, params)
        ).run(MixedSendPattern(6))
        traced = Scheduler(
            network,
            record_trace=True,
            delivery_hook=hook_model.build_hook(9, params),
        ).run(MixedSendPattern(6))
        assert traced.rounds == plain.rounds
        assert traced.messages_sent == plain.messages_sent
        assert traced.outputs == plain.outputs
        assert len(traced.trace) == traced.messages_sent


class TestHookFailureReleasesArena:
    """A run that fails — in hook setup or mid-loop — must not strand
    a shared arena, and the hook's run is still closed."""

    def test_raising_begin_run_frees_shared_arena(self):
        class BrokenHook(ScenarioHook):
            def begin_run(self, network):
                raise RuntimeError("hook setup failed")

        network = _network(1)
        with shared_arena() as arena:
            with pytest.raises(RuntimeError, match="hook setup failed"):
                Scheduler(network, delivery_hook=BrokenHook(seed=0)).run(
                    FloodMaxAlgorithm(3)
                )
            assert not arena._in_use
            clock = arena._clock
            result = Scheduler(network).run(FloodMaxAlgorithm(3))
            assert result.rounds > 0
            assert arena._clock == clock + result.rounds

    def test_round_limit_still_ends_the_hooks_run(self):
        """``end_run`` runs in the loop's ``finally``: a run that exceeds
        its round budget reports the rounds and deliveries it made."""

        class RecordingHook(ScenarioHook):
            def __init__(self, seed):
                super().__init__(seed=seed)
                self.ended = []

            def end_run(self, rounds, delivered=0):
                self.ended.append((rounds, delivered))
                super().end_run(rounds, delivered)

        network = _network(2)
        hook = RecordingHook(seed=0)
        with shared_arena() as arena:
            with pytest.raises(RoundLimitExceededError):
                Scheduler(network, max_rounds=2, delivery_hook=hook).run(
                    FloodMaxAlgorithm(5)
                )
            assert not arena._in_use
        flood = Scheduler(network).run(FloodMaxAlgorithm(2))
        assert hook.ended == [(2, flood.messages_sent)]


class TestExecutorReproducibility:
    """Through ``run``: same spec, same bytes; cached, not re-run."""

    @staticmethod
    def _specs() -> list[RunSpec]:
        instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
        return [
            RunSpec(instance=instance, algorithm="bko20"),
            RunSpec(instance=instance, algorithm="linial_greedy"),
            RunSpec(
                instance=instance,
                algorithm="greedy_sequential",
                scenario=ScenarioSpec(
                    model="lossy_links", seed=3, params={"drop": 0.2}
                ),
            ),
        ]

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_uncached_runs_byte_identical(self, index):
        spec = self._specs()[index]
        clear_result_cache()
        first = run(spec, cache=False)
        second = run(spec, cache=False)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_disk_cached_result_is_served_without_rerunning(
        self, tmp_path, monkeypatch
    ):
        import repro.api.runner as runner_module

        spec = self._specs()[0]
        clear_result_cache()
        first = run(spec, cache_dir=tmp_path)
        cached_bytes = {
            path.name: path.read_bytes() for path in tmp_path.rglob("*.json")
        }
        assert cached_bytes  # the first run actually populated the cache
        clear_result_cache()  # force the disk-cache path
        monkeypatch.setattr(
            runner_module,
            "_execute_with_policy",
            lambda *args, **kwargs: pytest.fail("disk lookup missed the cache"),
        )
        second = run(spec, cache_dir=tmp_path)
        assert second.fingerprint == first.fingerprint
        assert second.to_dict() == first.to_dict()
        assert {
            path.name: path.read_bytes() for path in tmp_path.rglob("*.json")
        } == cached_bytes  # the cached run rewrote nothing
