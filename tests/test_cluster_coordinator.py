"""The cluster contract: sharded == serial, byte for byte, and resumable.

Pins the two acceptance claims of the subsystem:

* ``run_sharded`` over a 26-spec mixed batch (plain algorithms plus
  ``crash_stop`` and ``lossy_links`` scenarios, duplicates included)
  drained by **2 concurrent worker subprocesses** returns results
  byte-identical to serial :func:`repro.api.run_many`;
* killing a worker mid-job (a left-behind lease plus a half-spilled
  shard) and re-running the coordinator completes the job from the
  surviving shard state — finished shard files are reused bit-for-bit.
"""

from __future__ import annotations

import json

import pytest

from repro.api import InstanceSpec, RunSpec, ScenarioSpec, run_many
from repro.api.runner import clear_result_cache
from repro.cluster import (
    cache_dir_of,
    ensure_plan,
    job_status,
    merge_results,
    run_sharded,
    spawn_local_worker,
    wait_for_workers,
    work_loop,
)
from repro.cluster.queue import ShardQueue, result_path
from repro.cluster.worker import publish_shard_result
from repro.errors import ClusterError
from repro.results import RunResult, canonical_json


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def mixed_specs() -> list[RunSpec]:
    """28 mixed specs: 3 programs × 2 instances × 4 worlds, +bko20, +dupes."""
    instances = [
        InstanceSpec(family="complete_bipartite", size=3, seed=2),
        InstanceSpec(family="grid", size=3, seed=1),
    ]
    scenarios = [
        None,
        ScenarioSpec(model="crash_stop", seed=5, params={"f": 2}),
        ScenarioSpec(model="lossy_links", seed=5, params={"drop": 0.2}),
        ScenarioSpec(model="bounded_async", seed=5, params={"quota": 6}),
    ]
    specs = [
        RunSpec(instance=instance, algorithm=algorithm, scenario=scenario)
        for instance in instances
        for algorithm in (
            "greedy_sequential", "randomized_luby", "linial_greedy"
        )
        for scenario in scenarios
    ]
    specs += [
        RunSpec(instance=instances[0], algorithm="bko20"),
        RunSpec(instance=instances[1], algorithm="bko20"),
        # Duplicates: merge must fan one shard result over them.
        specs[1],
        specs[2],
    ]
    assert len(specs) >= 24
    return specs


def payloads(results) -> list[str]:
    return [canonical_json(result.to_dict()) for result in results]


@pytest.fixture()
def serial_baseline():
    specs = mixed_specs()
    clear_result_cache()
    serial = run_many(specs, cache=False)
    clear_result_cache()
    return specs, serial


class TestAcceptance:
    def test_two_concurrent_workers_byte_identical_to_serial(
        self, tmp_path, serial_baseline
    ):
        # Drive the 2 worker subprocesses explicitly and require that
        # *they* complete the whole job (run_sharded's self-healing
        # in-process drain would mask a broken worker entry point).
        specs, serial = serial_baseline
        job = tmp_path / "job"
        ensure_plan(specs, job, shards=4)
        procs = [spawn_local_worker(job, lease_ttl=60.0) for _ in range(2)]
        assert wait_for_workers(procs, job, lease_ttl=60.0) == []
        assert [proc.returncode for proc in procs] == [0, 0]
        status = job_status(job)
        assert status["complete"]
        assert status["shards"] == 4
        merged = merge_results(specs, job)
        assert payloads(merged) == payloads(serial)
        # The trailing duplicates share their first occurrence's result.
        assert merged[-2] is merged[1]
        assert merged[-1] is merged[2]

    def test_killed_worker_job_resumes_from_surviving_state(
        self, tmp_path, serial_baseline
    ):
        specs, serial = serial_baseline
        job = tmp_path / "job"
        plan = ensure_plan(specs, job, shards=3)
        clock = FakeClock(0.0)

        # A healthy worker completes every shard except 0, then stops.
        victim_shard = next(
            shard for shard in range(3) if plan.assignment[shard]
        )
        queue = ShardQueue(
            job, worker_id="doomed", lease_ttl=30.0, clock=clock
        )
        assert queue.claim(victim_shard)
        # The doomed worker got through part of its shard before dying:
        # its finished specs sit in the shared job cache...
        victim_fingerprints = plan.assignment[victim_shard]
        partial = [plan.spec_of(f) for f in victim_fingerprints[:2]]
        clear_result_cache()
        run_many(partial, cache=False, cache_dir=cache_dir_of(job))
        # ...and its claim file is left behind, mid-lease (no result).
        assert not queue.is_done(victim_shard)

        # Every other shard finishes normally (the lease is live, so
        # the healthy worker skips the doomed shard).
        summary = work_loop(
            job, worker_id="healthy", lease_ttl=30.0, clock=clock
        )
        assert victim_shard not in summary["completed"]
        assert summary["outstanding"] == [victim_shard]
        survivors = {
            shard: result_path(job, shard).read_bytes()
            for shard in summary["completed"]
        }

        # Re-run the coordinator after the lease went stale: it must
        # reclaim shard 0, finish it, and reuse the surviving shards.
        clock.now = 120.0  # > lease_ttl past the doomed heartbeat
        clear_result_cache()
        merged = run_sharded(
            specs, job, shards=3, local_workers=0,
            lease_ttl=30.0, clock=clock,
        )
        assert payloads(merged) == payloads(serial)
        for shard, frozen in survivors.items():
            assert result_path(job, shard).read_bytes() == frozen
        assert job_status(job, clock=clock)["complete"]


class TestCoordinator:
    def test_in_process_run_matches_serial(self, tmp_path, serial_baseline):
        specs, serial = serial_baseline
        merged = run_sharded(specs, tmp_path / "job", shards=5)
        assert payloads(merged) == payloads(serial)

    def test_rerun_on_complete_job_replays_without_workers(
        self, tmp_path, serial_baseline
    ):
        specs, serial = serial_baseline
        job = tmp_path / "job"
        run_sharded(specs, job, shards=3)
        frozen = {
            shard: result_path(job, shard).read_bytes() for shard in range(3)
        }
        clear_result_cache()
        merged = run_sharded(specs, job, shards=3)
        assert payloads(merged) == payloads(serial)
        for shard in range(3):
            assert result_path(job, shard).read_bytes() == frozen[shard]

    def test_shard_file_from_sealed_json_is_the_to_dict_file(
        self, tmp_path, serial_baseline, monkeypatch
    ):
        """A drain takes each executed result's dict from the JSON text
        the executor sealed it with; the shard's result file, seal
        included, is byte for byte the one ``to_dict()`` gives, and no
        executed result is serialized twice."""
        specs, serial = serial_baseline
        serialized = []
        to_dict = RunResult.to_dict

        def counted(self, **kwargs):
            serialized.append(self)
            return to_dict(self, **kwargs)

        monkeypatch.setattr(RunResult, "to_dict", counted)
        job = tmp_path / "job"
        run_sharded(specs, job, shards=1)
        executed = [result for result in serialized if not result.is_failure()]
        assert executed
        assert len(executed) == len(set(map(id, executed)))
        monkeypatch.undo()

        drained = result_path(job, 0).read_bytes()
        reference = tmp_path / "reference"
        publish_shard_result(
            reference,
            0,
            json.loads(drained)["plan_fingerprint"],
            {
                spec.fingerprint(): result.to_dict()
                for spec, result in zip(specs, serial)
            },
        )
        assert result_path(reference, 0).read_bytes() == drained

    def test_duplicate_specs_share_one_immutable_result(self, tmp_path):
        spec = RunSpec(
            instance=InstanceSpec(family="complete_bipartite", size=3, seed=2),
            algorithm="greedy_sequential",
        )
        merged = run_sharded([spec, spec], tmp_path / "job", shards=2)
        assert merged[0] is merged[1]
        with pytest.raises(AttributeError):
            merged[1].coloring.clear()
        assert merged[0].coloring  # first occurrence untouched

    def test_merge_of_incomplete_job_names_missing_shards(
        self, tmp_path
    ):
        specs = [
            RunSpec(
                instance=InstanceSpec(
                    family="complete_bipartite", size=3, seed=s
                ),
                algorithm="greedy_sequential",
            )
            for s in (1, 2, 3)
        ]
        ensure_plan(specs, tmp_path / "job", shards=2)
        with pytest.raises(ClusterError, match="incomplete"):
            merge_results(specs, tmp_path / "job")

    def test_corrupt_shard_result_counts_as_not_done_and_reruns(
        self, tmp_path
    ):
        specs = [
            RunSpec(
                instance=InstanceSpec(
                    family="complete_bipartite", size=3, seed=s
                ),
                algorithm="greedy_sequential",
            )
            for s in (1, 2)
        ]
        job = tmp_path / "job"
        clear_result_cache()
        expected = payloads(run_sharded(specs, job, shards=1))
        # Tamper with the sealed result: the merge must not trust it...
        path = result_path(job, 0)
        path.write_text(path.read_text().replace('"rounds": ', '"rounds":9'))
        with pytest.raises(ClusterError, match="incomplete"):
            merge_results(specs, job)
        # ...and a re-run heals the job (cache replays the specs).
        clear_result_cache()
        assert payloads(run_sharded(specs, job, shards=1)) == expected

    def test_scenario_sweep_sharded_path_matches_direct(self, tmp_path):
        from repro.analysis.harness import run_scenario_sweep

        instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
        specs = [
            RunSpec(instance=instance, algorithm="greedy_sequential"),
            RunSpec(
                instance=instance,
                algorithm="greedy_sequential",
                scenario=ScenarioSpec(
                    model="lossy_links", seed=3, params={"drop": 0.2}
                ),
            ),
        ]
        clear_result_cache()
        direct = run_scenario_sweep(specs, cache=False)
        clear_result_cache()
        sharded = run_scenario_sweep(
            specs, job_dir=tmp_path / "job", shards=2
        )
        assert [row.values for row in sharded.rows] == [
            row.values for row in direct.rows
        ]


class TestShardTimingGuards:
    """Degenerate ``shard_sealed`` events must never corrupt ``status``.

    The event rounds wall-clock to microseconds, so a sub-millisecond
    shard legitimately records ``wall_clock_s == 0.0`` — the derived
    rate must come out ``None`` (unknowable), not ``ZeroDivisionError``
    or ``Infinity``; hand-edited/corrupt events with non-finite,
    negative or boolean walls must be ignored outright.
    """

    @staticmethod
    def _done_job(tmp_path):
        from repro.cluster import load_plan

        spec = RunSpec(
            instance=InstanceSpec(family="complete_bipartite", size=3, seed=2),
            algorithm="greedy_sequential",
        )
        job = tmp_path / "job"
        clear_result_cache()
        run_sharded([spec], job, shards=1)
        return job, load_plan(job).plan_fingerprint()

    def _stamp_timing(self, job, plan_fingerprint, wall):
        # A later seal of the same shard supersedes the real one.
        from repro.telemetry.events import emit_event, events_dir_of

        emit_event(
            "shard_sealed",
            events_dir_of(job),
            shard=0,
            plan_fingerprint=plan_fingerprint,
            shard_worker="w-test",
            wall_clock_s=wall,
            specs_total=1,
            specs_executed=1,
        )

    def test_zero_wall_clock_reports_rate_unknown_not_infinite(
        self, tmp_path
    ):
        import json

        from repro.telemetry.top import shard_progress_table

        job, plan_fingerprint = self._done_job(tmp_path)
        self._stamp_timing(job, plan_fingerprint, 0.0)
        status = job_status(job)
        entry = status["timing"]["0"]
        assert entry["wall_clock_s"] == 0.0
        assert entry["specs_per_s"] is None
        # The whole snapshot must stay strict-JSON (no Infinity/NaN)...
        json.dumps(status, allow_nan=False)
        # ...and the CLI table renders the unknowable rate as "-".
        table = shard_progress_table(status)
        assert "0.000" in table and "w-test" in table

    @pytest.mark.parametrize(
        "wall", [float("inf"), float("nan"), -1.0, True]
    )
    def test_non_finite_or_negative_seal_is_ignored(self, tmp_path, wall):
        import json

        from repro.telemetry.top import shard_progress_table

        job, plan_fingerprint = self._done_job(tmp_path)
        assert "0" in job_status(job)["timing"]
        self._stamp_timing(job, plan_fingerprint, wall)
        status = job_status(job)
        assert "0" not in status["timing"]  # silent, never lying
        json.dumps(status, allow_nan=False)
        shard_progress_table(status)
