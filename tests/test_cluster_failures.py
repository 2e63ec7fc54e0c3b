"""Cluster failure domains: dead letters, corrupt-state recovery, reaping.

Pins the robustness contracts of the cluster layer:

* captured spec failures are quarantined as sealed dead letters in the
  job's ``failed/`` directory, reported by ``job_status``, merged into
  their batch slots, and **reused on resume** (a poison spec is never
  re-looped);
* every kind of corrupt job state — a torn ``manifest.json``, a
  truncated shard result, a garbage lease heartbeat, a tampered dead
  letter — is treated as absent and recovered by re-running, never
  half-trusted and never wedging the job;
* the coordinator's bounded wait reaps wedged worker subprocesses
  (terminate → kill) and records the events.
* a spawned worker backs off on the coordinator's schedule, or is not
  spawned at all.
"""

from __future__ import annotations

import subprocess
import sys
import time

import pytest

from repro.api import FailurePolicy, InstanceSpec, RunSpec, run_many
from repro.api import runner as runner_module
from repro.api.runner import clear_result_cache
from repro.cluster import (
    dead_letter_path,
    ensure_plan,
    job_status,
    load_dead_letter,
    load_dead_letters,
    load_plan,
    merge_results,
    run_sharded,
    spawn_local_worker,
    wait_for_workers,
)
from repro.cluster.planner import manifest_path
from repro.cluster.queue import ShardQueue, claim_path, result_path
from repro.errors import ClusterError, InjectedFault, ParameterError
from repro.results import canonical_json
from repro.telemetry.events import emit_event, events_dir_of


def small_specs() -> list[RunSpec]:
    instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
    return [
        RunSpec(instance=instance, algorithm="greedy_sequential"),
        RunSpec(instance=instance, algorithm="bko20"),
        RunSpec(instance=instance, algorithm="linial_greedy"),
    ]


CAPTURE = FailurePolicy(on_error="capture")


@pytest.fixture(autouse=True)
def clean_state():
    clear_result_cache()
    assert runner_module._FAULT_HOOK is None
    yield
    runner_module._FAULT_HOOK = None
    clear_result_cache()


def poison(fingerprint: str):
    def hook(fp: str, attempt: int) -> None:
        if fp == fingerprint:
            raise InjectedFault(f"poisoned {fp[:12]}")

    return hook


class TestDeadLetters:
    def test_poison_spec_is_quarantined_and_merged(self, tmp_path):
        specs = small_specs()
        target = specs[1].fingerprint()
        runner_module._FAULT_HOOK = poison(target)
        merged = run_sharded(
            specs, tmp_path, shards=2, on_error=CAPTURE
        )
        assert merged[1].is_failure()
        assert merged[1].error_type == "InjectedFault"
        assert not merged[0].is_failure() and not merged[2].is_failure()
        assert dead_letter_path(tmp_path, target).exists()
        plan_fingerprint = load_plan(tmp_path).plan_fingerprint()
        letters = load_dead_letters(
            tmp_path, plan_fingerprint=plan_fingerprint
        )
        assert set(letters) == {target}
        assert letters[target].traceback_text  # full traceback preserved
        status = job_status(tmp_path)
        assert set(status["failed"]) == {target}
        assert status["failed"][target]["error_type"] == "InjectedFault"

    def test_dead_letter_reused_on_resume_without_rerunning(self, tmp_path):
        specs = small_specs()
        target = specs[1].fingerprint()
        runner_module._FAULT_HOOK = poison(target)
        first = run_sharded(specs, tmp_path, shards=2, on_error=CAPTURE)
        # Wipe the shard results but keep the quarantine: the resumed
        # job must reuse the dead letter even though the fault is gone.
        runner_module._FAULT_HOOK = None
        clear_result_cache()
        plan = load_plan(tmp_path)
        for shard in range(plan.shards):
            result_path(tmp_path, shard).unlink()
        second = run_sharded(specs, tmp_path, shards=2, on_error=CAPTURE)
        assert second[1].is_failure()
        assert canonical_json(second[1].to_dict()) == canonical_json(
            first[1].to_dict()
        )

    def test_tampered_dead_letter_treated_as_absent(self, tmp_path):
        specs = small_specs()
        target = specs[1].fingerprint()
        runner_module._FAULT_HOOK = poison(target)
        run_sharded(specs, tmp_path, shards=2, on_error=CAPTURE)
        plan_fingerprint = load_plan(tmp_path).plan_fingerprint()
        path = dead_letter_path(tmp_path, target)
        path.write_text(path.read_text()[:-40])
        assert (
            load_dead_letter(
                tmp_path, target, plan_fingerprint=plan_fingerprint
            )
            is None
        )
        # And recovery: with the fault gone and results wiped, the spec
        # re-runs cleanly instead of trusting the torn quarantine.
        runner_module._FAULT_HOOK = None
        clear_result_cache()
        for shard in range(2):
            result_path(tmp_path, shard).unlink()
        merged = run_sharded(specs, tmp_path, shards=2, on_error=CAPTURE)
        assert not any(result.is_failure() for result in merged)

    def test_failure_slots_match_serial_capture(self, tmp_path):
        specs = small_specs() + [small_specs()[1]]  # duplicate the poison
        target = specs[1].fingerprint()
        runner_module._FAULT_HOOK = poison(target)
        serial = run_many(specs, cache=False, on_error=CAPTURE)
        clear_result_cache()
        sharded = run_sharded(specs, tmp_path, shards=2, on_error=CAPTURE)
        assert [canonical_json(r.to_dict()) for r in sharded] == [
            canonical_json(r.to_dict()) for r in serial
        ]


class TestCorruptStateRecovery:
    def test_torn_manifest_is_replanned_on_adoption(self, tmp_path):
        specs = small_specs()
        ensure_plan(specs, tmp_path, shards=2)
        original = load_plan(tmp_path).plan_fingerprint()
        path = manifest_path(tmp_path)
        path.write_text(path.read_text()[: 50])  # torn mid-write
        with pytest.raises(ClusterError):
            load_plan(tmp_path)
        adopted = ensure_plan(specs, tmp_path, shards=2)
        assert adopted.plan_fingerprint() == original
        assert load_plan(tmp_path).plan_fingerprint() == original

    def test_valid_foreign_manifest_still_refuses(self, tmp_path):
        ensure_plan(small_specs(), tmp_path, shards=2)
        other = [small_specs()[0]]
        with pytest.raises(ClusterError, match="refusing to mix"):
            ensure_plan(other, tmp_path, shards=2)

    def test_truncated_shard_result_is_rerun(self, tmp_path):
        specs = small_specs()
        baseline = run_many(specs, cache=False)
        clear_result_cache()
        run_sharded(specs, tmp_path, shards=2)
        # Truncate one published shard result: merge must refuse it,
        # and a re-run must heal it rather than trust it.
        victim = result_path(tmp_path, 0)
        victim.write_text(victim.read_text()[:30])
        with pytest.raises(ClusterError, match="incomplete"):
            merge_results(specs, tmp_path)
        clear_result_cache()
        merged = run_sharded(specs, tmp_path, shards=2)
        assert [canonical_json(r.to_dict()) for r in merged] == [
            canonical_json(r.to_dict()) for r in baseline
        ]

    def test_garbage_heartbeat_counts_as_stale(self, tmp_path):
        queue = ShardQueue(tmp_path, worker_id="t:1", lease_ttl=60.0)
        assert queue.is_stale({"worker": "x:9", "heartbeat_at": "garbage"})
        assert queue.is_stale({"worker": "x:9"})
        path = claim_path(tmp_path, 0)
        path.parent.mkdir(parents=True)
        path.write_text('{"worker": "x:9", "heartbeat_at": "garbage"}')
        assert queue.claimable(0)
        assert queue.claim(0)


class TestWorkerReaping:
    def test_hung_worker_is_escalated(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(300)"]
        )
        started = time.monotonic()
        events = wait_for_workers(
            [proc], tmp_path, lease_ttl=0.5, grace_s=1.0, poll_s=0.05
        )
        assert time.monotonic() - started < 30.0
        assert proc.poll() is not None
        assert len(events) == 1
        assert events[0]["event"] == "worker_hung"
        assert events[0]["action"] in ("terminated", "killed")
        assert events[0]["pid"] == proc.pid

    def test_nonzero_exit_is_recorded(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])
        events = wait_for_workers(
            [proc], tmp_path, lease_ttl=0.5, grace_s=5.0, poll_s=0.05
        )
        assert events == [
            {"event": "worker_exit_nonzero", "pid": proc.pid, "returncode": 3}
        ]

    def test_clean_exit_yields_no_events(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        assert (
            wait_for_workers(
                [proc], tmp_path, lease_ttl=0.5, grace_s=5.0, poll_s=0.05
            )
            == []
        )

    def test_stream_events_surface_in_status_in_order(self, tmp_path):
        ensure_plan(small_specs(), tmp_path, shards=2)
        stream = events_dir_of(tmp_path)
        emit_event("worker_hung", stream, pid=7, action="killed")
        emit_event("worker_spawn", stream, pid=9)  # not a worker event
        emit_event("worker_exit_nonzero", stream, pid=8, returncode=86)
        emit_event("worker_stopped", stream, pid=10, action="terminated")
        assert job_status(tmp_path)["worker_events"] == [
            {"event": "worker_hung", "pid": 7, "action": "killed"},
            {"event": "worker_exit_nonzero", "pid": 8, "returncode": 86},
            {"event": "worker_stopped", "pid": 10, "action": "terminated"},
        ]

    def test_watch_emits_its_events_to_the_stream(self, tmp_path):
        ensure_plan(small_specs(), tmp_path, shards=2)
        proc = subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])
        events = wait_for_workers(
            [proc], tmp_path, lease_ttl=0.5, grace_s=5.0, poll_s=0.05
        )
        assert job_status(tmp_path)["worker_events"] == events


class TestSpawnedWorkerPolicy:
    """A worker gets its failure policy as CLI flags.  There is no flag
    for ``max_backoff_s`` or ``backoff_seed``, so a backing-off policy
    that changes either is refused before any process starts."""

    @pytest.fixture()
    def spawned(self, monkeypatch):
        from repro.cluster import coordinator

        commands: list[list[str]] = []
        real_popen = subprocess.Popen

        def fake_popen(command, **kwargs):
            if command[1:4] != ["-m", "repro", "worker"]:
                return real_popen(command, **kwargs)
            commands.append(command)
            return real_popen([sys.executable, "-c", "pass"])

        monkeypatch.setattr(coordinator.subprocess, "Popen", fake_popen)
        return commands

    @pytest.mark.parametrize(
        "changed", [{"max_backoff_s": 5.0}, {"backoff_seed": 7}]
    )
    def test_unforwardable_backoff_spawns_no_worker(
        self, tmp_path, spawned, changed
    ):
        policy = FailurePolicy(on_error="capture", backoff_s=0.5, **changed)
        with pytest.raises(ParameterError, match=next(iter(changed))):
            spawn_local_worker(tmp_path, on_error=policy)
        with pytest.raises(ParameterError):
            run_sharded(
                small_specs(), tmp_path / "job", local_workers=2,
                on_error=policy,
            )
        assert spawned == []

    @pytest.mark.parametrize(
        "policy",
        [
            # The chaos smoke's policy: no backoff, so the seed is moot.
            FailurePolicy(
                on_error="capture", retries=1, backoff_s=0.0,
                timeout_s=20.0, backoff_seed=3,
            ),
            FailurePolicy(on_error="capture", retries=2, backoff_s=0.5),
        ],
    )
    def test_forwardable_policy_spawns(self, tmp_path, spawned, policy):
        spawn_local_worker(tmp_path, on_error=policy).wait()
        [command] = spawned
        flags = dict(zip(command[5::2], command[6::2]))
        assert flags["--retries"] == str(policy.retries)
        assert flags["--backoff-s"] == str(policy.backoff_s)
