"""Cluster satellites: streaming merge, auto shards, retry, timing.

* :func:`~repro.cluster.coordinator.run_sharded_iter` yields every
  batch index exactly once with payloads byte-identical to
  ``run_sharded`` / serial ``run_many`` (same merge discipline:
  duplicates get independent deep copies), and a completed job replays
  entirely from sealed shards — zero re-executions.
* ``shards="auto"`` sizes the plan from CPU count and batch width, and
  the *resolved* integer is what the manifest records.
* :func:`~repro.cluster.coordinator.retry_failed` re-queues exactly
  the quarantined specs: dead letters and their shards' sealed results
  go away, everything else stays byte-identical.
* Workers emit a ``shard_sealed`` event per published shard that
  ``job_status`` folds into a ``timing`` map (wall-clock, specs/sec);
  the event stream is the job's only observational record.
"""

from __future__ import annotations

import copy
import subprocess
import sys

import pytest

from repro.api import FailurePolicy, InstanceSpec, RunSpec, run_many
from repro.api.runner import clear_result_cache
from repro.cluster import (
    ensure_plan,
    job_status,
    merge_results,
    resolve_shards,
    retry_failed,
    run_sharded,
    run_sharded_iter,
    wait_for_workers,
    work_loop,
)
from repro.cluster.planner import load_plan, plan_shards
from repro.cluster.queue import result_path
from repro.cluster.worker import dead_letter_path
from repro.errors import ClusterError
from repro.results import canonical_json
from repro.telemetry.events import emit_event, events_dir_of, read_events


def small_batch() -> list[RunSpec]:
    instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
    other = InstanceSpec(family="grid", size=3, seed=1)
    specs = [
        RunSpec(instance=instance, algorithm="greedy_sequential"),
        RunSpec(instance=other, algorithm="greedy_sequential"),
        RunSpec(instance=instance, algorithm="linial_greedy"),
        RunSpec(instance=other, algorithm="linial_greedy"),
    ]
    return specs + [specs[0]]  # a duplicate: merge fans one result out


def serial_payloads(specs):
    clear_result_cache()
    serial = run_many(specs, cache=False)
    clear_result_cache()
    return [canonical_json(result.to_dict()) for result in serial]


class TestRunShardedIter:
    def test_yields_every_index_once_byte_identical_to_serial(self, tmp_path):
        specs = small_batch()
        expected = serial_payloads(specs)
        seen = {}
        for index, result in run_sharded_iter(
            specs, tmp_path / "job", shards=2
        ):
            assert index not in seen, f"index {index} emitted twice"
            seen[index] = canonical_json(result.to_dict())
        assert sorted(seen) == list(range(len(specs)))
        assert [seen[i] for i in range(len(specs))] == expected

    def test_duplicate_slots_share_one_result(self, tmp_path):
        specs = small_batch()
        results = dict(run_sharded_iter(specs, tmp_path / "job", shards=2))
        first, dupe = results[0], results[len(specs) - 1]
        assert canonical_json(first.to_dict()) == canonical_json(
            dupe.to_dict()
        )
        assert first is dupe

    def test_completed_job_replays_without_reexecution(self, tmp_path):
        from repro.api import runner as runner_module

        specs = small_batch()
        job = tmp_path / "job"
        baseline = dict(run_sharded_iter(specs, job, shards=2))
        executions = []
        previous = runner_module._FAULT_HOOK
        runner_module._FAULT_HOOK = lambda fp, attempt: executions.append(fp)
        try:
            replay = dict(run_sharded_iter(specs, job, shards=2))
        finally:
            runner_module._FAULT_HOOK = previous
        assert executions == []
        assert {
            i: canonical_json(r.to_dict()) for i, r in replay.items()
        } == {i: canonical_json(r.to_dict()) for i, r in baseline.items()}

    def test_run_sharded_is_the_drained_iterator(self, tmp_path):
        specs = small_batch()
        expected = serial_payloads(specs)
        ordered = run_sharded(specs, tmp_path / "job", shards=2)
        assert [canonical_json(r.to_dict()) for r in ordered] == expected
        # ...and byte-identical to the classic merge of the same job dir.
        merged = merge_results(None, tmp_path / "job")
        assert [canonical_json(r.to_dict()) for r in merged] == expected


class TestAutoShards:
    def test_resolve_auto_is_min_of_cpus_and_batch(self):
        assert resolve_shards("auto", 10, cpu_count=4) == 4
        assert resolve_shards("auto", 3, cpu_count=8) == 3
        assert resolve_shards("auto", 0, cpu_count=8) == 1  # never zero
        assert resolve_shards(5, 2) == 5  # explicit counts pass through

    def test_resolve_rejects_non_auto_strings(self):
        # Strings other than "auto" are the CLI's job to coerce; the
        # library refuses them rather than guessing.
        with pytest.raises(ClusterError):
            resolve_shards("many", 4)
        with pytest.raises(ClusterError):
            resolve_shards("7", 4)

    def test_manifest_records_the_resolved_integer(self, tmp_path):
        specs = small_batch()
        plan = ensure_plan(specs, tmp_path / "job", shards="auto")
        assert isinstance(plan.shards, int)
        assert plan.shards >= 1
        reloaded = load_plan(tmp_path / "job")
        assert reloaded.shards == plan.shards
        assert reloaded.plan_fingerprint() == plan.plan_fingerprint()

    def test_auto_plan_equals_explicit_plan_of_same_width(self):
        specs = small_batch()
        auto = plan_shards(specs, shards="auto")
        explicit = plan_shards(specs, shards=auto.shards)
        assert auto.plan_fingerprint() == explicit.plan_fingerprint()


def poisoned_batch():
    specs = small_batch()
    poison = RunSpec(
        instance=InstanceSpec(family="path", size=5, seed=3),
        algorithm="no_such_algorithm",
    )
    return specs + [poison], poison


class TestRetryFailed:
    def drain(self, specs, job, **kwargs):
        ensure_plan(specs, job, shards=2)
        return work_loop(
            job, on_error=FailurePolicy(on_error="capture"), **kwargs
        )

    def test_requeues_only_quarantined_specs(self, tmp_path):
        specs, poison = poisoned_batch()
        job = tmp_path / "job"
        self.drain(specs, job)
        target = poison.fingerprint()
        status = job_status(job)
        assert list(status["failed"]) == [target]
        survivors_before = {
            canonical_json(r.to_dict())
            for r in merge_results(None, job)
            if not r.is_failure()
        }

        summary = retry_failed(job)
        assert summary["requeued"] == [target]
        assert summary["remaining_failures"] == []
        assert not dead_letter_path(job, target).exists()
        plan = load_plan(job)
        poisoned_shard = plan.shard_of(target)
        assert summary["shards_reset"] == [poisoned_shard]
        # Only the poisoned shard's seal went away.
        assert not result_path(job, poisoned_shard).exists()
        for shard in range(plan.shards):
            if shard != poisoned_shard:
                assert result_path(job, shard).exists()

        # Re-drain: the poison fails again (still unregistered), the
        # survivors come back byte-identical.
        self.drain(specs, job)
        status = job_status(job)
        assert status["complete"] is True
        assert list(status["failed"]) == [target]
        survivors_after = {
            canonical_json(r.to_dict())
            for r in merge_results(None, job)
            if not r.is_failure()
        }
        assert survivors_after == survivors_before

    def test_fingerprint_filter_limits_the_retry(self, tmp_path):
        specs, poison = poisoned_batch()
        job = tmp_path / "job"
        self.drain(specs, job)
        summary = retry_failed(job, fingerprints=["0" * 64])
        assert summary["requeued"] == []
        assert summary["remaining_failures"] == [poison.fingerprint()]
        assert dead_letter_path(job, poison.fingerprint()).exists()
        assert job_status(job)["complete"] is True  # nothing was reset

    def test_retry_on_clean_job_is_a_no_op(self, tmp_path):
        specs = small_batch()
        job = tmp_path / "job"
        run_sharded(specs, job, shards=2)
        summary = retry_failed(job)
        assert summary["requeued"] == []
        assert summary["shards_reset"] == []
        assert job_status(job)["complete"] is True


def sealed_events(job):
    events, _ = read_events(events_dir_of(job))
    return [event for event in events if event["event"] == "shard_sealed"]


class TestShardTiming:
    def test_workers_emit_sealed_events(self, tmp_path):
        specs = small_batch()
        job = tmp_path / "job"
        plan = ensure_plan(specs, job, shards=2)
        work_loop(job, worker_id="w-one")
        sealed = {event["shard"]: event for event in sealed_events(job)}
        assert set(sealed) == set(range(plan.shards))
        for shard, event in sealed.items():
            assert event["plan_fingerprint"] == plan.plan_fingerprint()
            assert event["shard_worker"] == "w-one"
            assert event["wall_clock_s"] >= 0
            assert event["specs_total"] == len(plan.assignment[shard])

    def test_job_status_folds_timing_into_done_shards(self, tmp_path):
        specs = small_batch()
        job = tmp_path / "job"
        run_sharded(specs, job, shards=2)
        status = job_status(job)
        assert set(status["timing"]) == {"0", "1"}  # JSON-safe str keys
        for entry in status["timing"].values():
            assert entry["state"] == "done"
            assert entry["wall_clock_s"] >= 0
            assert entry["specs_executed"] >= 0
            assert entry["worker"]
        executed = sum(
            entry["specs_executed"] for entry in status["timing"].values()
        )
        assert executed == len({spec.fingerprint() for spec in specs})

    def test_foreign_seal_event_is_ignored(self, tmp_path):
        specs = small_batch()
        job = tmp_path / "job"
        ensure_plan(specs, job, shards=2)
        work_loop(job, worker_id="w-real")
        # A later seal of another plan (the directory was re-planned)
        # must not shadow this plan's seal...
        emit_event(
            "shard_sealed",
            events_dir_of(job),
            shard=0,
            plan_fingerprint="f" * 64,
            shard_worker="w-foreign",
            specs_total=1,
            specs_executed=1,
            wall_clock_s=9.0,
        )
        timing = job_status(job)["timing"]
        assert timing["0"]["worker"] == "w-real"
        assert timing["1"]["worker"] == "w-real"
        # ...and a foreign seal alone gives no entry at all.
        for path in events_dir_of(job).glob("*.jsonl"):
            path.unlink()
        emit_event(
            "shard_sealed",
            events_dir_of(job),
            shard=0,
            plan_fingerprint="f" * 64,
            shard_worker="w-foreign",
            specs_total=1,
            specs_executed=1,
            wall_clock_s=9.0,
        )
        assert job_status(job)["timing"] == {}

    def test_finished_job_keeps_only_the_event_stream(self, tmp_path):
        job = tmp_path / "job"
        run_sharded(small_batch(), job, shards=2)
        proc = subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])
        wait_for_workers([proc], job, lease_ttl=0.5, grace_s=5.0, poll_s=0.05)
        status = job_status(job)
        assert set(status["timing"]) == {"0", "1"}
        assert status["worker_events"] == [
            {"event": "worker_exit_nonzero", "pid": proc.pid, "returncode": 3}
        ]
        assert (job / "events").is_dir()
        assert not (job / "events.json").exists()
        assert not (job / "timings").exists()

    def test_timing_reports_the_new_seal_after_retry(self, tmp_path):
        specs, poison = poisoned_batch()
        job = tmp_path / "job"
        ensure_plan(specs, job, shards=2)
        capture = FailurePolicy(on_error="capture")
        work_loop(job, worker_id="w-first", on_error=capture)
        shard = str(load_plan(job).shard_of(poison.fingerprint()))
        assert job_status(job)["timing"][shard]["worker"] == "w-first"

        retry_failed(job)
        # The old seal event stays in the stream, but the shard is not
        # done, so it has no done-timing entry.
        assert shard not in job_status(job)["timing"]

        work_loop(job, worker_id="w-second", on_error=capture)
        entry = job_status(job)["timing"][shard]
        seals = [
            event for event in sealed_events(job) if str(event["shard"]) == shard
        ]
        assert [event["shard_worker"] for event in seals] == [
            "w-first",
            "w-second",
        ]
        assert entry["worker"] == "w-second"
        assert entry["wall_clock_s"] == seals[-1]["wall_clock_s"]
        assert entry["specs_executed"] == seals[-1]["specs_executed"]
