"""The chaos harness: fault specs, the injector, and a seeded schedule.

Pins the :mod:`repro.faults` contracts:

* fault descriptions are validated, normalised, fingerprinted, and
  round-trip exactly through JSON (the worker-environment channel);
* the injector is deterministic, scoped (install/uninstall leaves no
  residue, even across failures), and refuses to stack;
* torn-write injection produces exactly the artefact every reader
  treats as absent, and recovery re-publishes;
* a seeded chaos schedule — poison + flaky + hang specs, torn shard
  results, killed workers, a stale lease, all at once through
  ``run_sharded`` — terminates with exact quarantine, byte-identical
  survivors, serially-reproducible failure records and an honest run
  ledger.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.api import (
    FailurePolicy,
    InstanceSpec,
    RunSpec,
    ScenarioSpec,
    run,
    run_many,
)
from repro.api import diskcache as diskcache_module
from repro.api import runner as runner_module
from repro.api.diskcache import atomic_write_json, read_json
from repro.api.runner import clear_result_cache
from repro.cluster import ensure_plan, job_status, run_sharded
from repro.cluster.queue import ShardQueue, claim_path
from repro.errors import FaultError, InjectedFault
from repro.faults import (
    ENV_VAR,
    KILL_EXIT_CODE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    active_faults,
    apply_stale_leases,
    env_with_faults,
    install_from_env,
    make_fault,
)
from repro.results import canonical_json
from repro.telemetry.ledger import read_ledger_rows


@pytest.fixture(autouse=True)
def clean_seams():
    clear_result_cache()
    assert runner_module._FAULT_HOOK is None
    assert diskcache_module._PUBLISH_FAULT is None
    yield
    runner_module._FAULT_HOOK = None
    diskcache_module._PUBLISH_FAULT = None
    clear_result_cache()


def tiny_spec() -> RunSpec:
    return RunSpec(
        instance=InstanceSpec(family="complete_bipartite", size=3, seed=2),
        algorithm="greedy_sequential",
    )


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            make_fault("meteor_strike", target="*")

    def test_missing_and_extra_params_rejected(self):
        with pytest.raises(FaultError, match="requires params"):
            make_fault("poison")
        with pytest.raises(FaultError, match="does not take"):
            make_fault("poison", target="*", count=2)

    def test_value_validation(self):
        with pytest.raises(FaultError):
            make_fault("flaky", target="*", fail_attempts=0)
        with pytest.raises(FaultError):
            make_fault("hang", target="*", sleep_s=0)
        with pytest.raises(FaultError):
            make_fault("torn_write", match="", count=1)
        with pytest.raises(FaultError):
            make_fault("worker_kill", after_specs=-1)
        with pytest.raises(FaultError):
            make_fault("stale_lease", shard=-1, age_s=10)

    def test_matching(self):
        fault = make_fault("poison", target="abc")
        assert fault.matches("abcdef")
        assert not fault.matches("abd")
        assert make_fault("poison", target="*").matches("anything")

    def test_plan_round_trip_and_fingerprint(self):
        plan = FaultPlan(
            seed=7,
            faults=(
                make_fault("poison", target="aa"),
                make_fault("torn_write", match="results/", count=2),
            ),
        )
        loaded = FaultPlan.from_json(plan.to_json())
        assert loaded == plan
        assert loaded.fingerprint() == plan.fingerprint()
        # A different seed is a different plan.
        other = FaultPlan(seed=8, faults=plan.faults)
        assert other.fingerprint() != plan.fingerprint()

    def test_bad_json_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_json("{not json")
        with pytest.raises(FaultError):
            FaultPlan.from_json('{"format": 99, "seed": 0, "faults": []}')


class TestInjector:
    def test_scoped_install_and_uninstall(self):
        plan = FaultPlan(faults=(make_fault("poison", target="zz"),))
        with active_faults(plan):
            assert runner_module._FAULT_HOOK is not None
            assert diskcache_module._PUBLISH_FAULT is not None
        assert runner_module._FAULT_HOOK is None
        assert diskcache_module._PUBLISH_FAULT is None

    def test_uninstalls_on_exception(self):
        plan = FaultPlan(faults=(make_fault("poison", target="zz"),))
        with pytest.raises(RuntimeError, match="boom"):
            with active_faults(plan):
                raise RuntimeError("boom")
        assert runner_module._FAULT_HOOK is None

    def test_refuses_to_stack(self):
        plan = FaultPlan(faults=(make_fault("poison", target="zz"),))
        with active_faults(plan):
            with pytest.raises(InjectedFault, match="already installed"):
                FaultInjector(plan).install()

    def test_poison_through_the_executor(self):
        spec = tiny_spec()
        plan = FaultPlan(
            faults=(make_fault("poison", target=spec.fingerprint()),)
        )
        with active_faults(plan):
            result = run(spec, cache=False, on_error="capture")
        assert result.is_failure()
        assert result.error_type == "InjectedFault"

    def test_flaky_keys_on_runner_attempt_number(self):
        spec = tiny_spec()
        plan = FaultPlan(
            faults=(
                make_fault(
                    "flaky", target=spec.fingerprint(), fail_attempts=1
                ),
            )
        )
        with active_faults(plan):
            result = run(
                spec,
                cache=False,
                on_error=FailurePolicy(on_error="capture", retries=1),
            )
        assert not result.is_failure()

    def test_worker_kill_inert_outside_workers(self):
        spec = tiny_spec()
        plan = FaultPlan(faults=(make_fault("worker_kill", after_specs=0),))
        with active_faults(plan):  # in_worker=False: must NOT exit
            result = run(spec, cache=False)
        assert not result.is_failure()

    def test_torn_write_and_recovery(self, tmp_path):
        plan = FaultPlan(
            faults=(make_fault("torn_write", match=str(tmp_path), count=1),)
        )
        target = tmp_path / "victim.json"
        with active_faults(plan):
            atomic_write_json(target, {"key": "value"})
            assert target.exists()
            assert read_json(target) is None  # torn: unreadable, not absent
            atomic_write_json(target, {"key": "value"})  # budget exhausted
            assert read_json(target) == {"key": "value"}

    def test_env_round_trip(self):
        plan = FaultPlan(seed=3, faults=(make_fault("poison", target="ab"),))
        env = env_with_faults(plan)
        assert set(env) == {ENV_VAR}
        injector = install_from_env(env)
        try:
            assert injector is not None
            assert injector.in_worker
            assert injector.plan == plan
        finally:
            injector.uninstall()
        assert install_from_env({}) is None

    def test_apply_stale_leases(self, tmp_path):
        plan = FaultPlan(
            faults=(make_fault("stale_lease", shard=1, age_s=1e6),)
        )
        assert apply_stale_leases(plan, tmp_path) == [1]
        lease = read_json(claim_path(tmp_path, 1))
        assert lease["worker"] == "chaos-ghost:0"
        queue = ShardQueue(tmp_path, worker_id="t:1", lease_ttl=60.0)
        assert queue.is_stale(lease)
        assert queue.claim(1)


#: Per-attempt deadline of the chaos schedule's failure policy; the
#: hang fault sleeps well past it, so both attempts time out.
CHAOS_TIMEOUT_S = 0.5
CHAOS_HANG_SLEEP_S = 4.0


def chaos_batch() -> list[RunSpec]:
    """The adversarial batch: plain, scenario, and duplicate specs."""
    instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
    return [
        RunSpec(instance=instance, algorithm="greedy_sequential"),
        RunSpec(instance=instance, algorithm="bko20"),
        RunSpec(
            instance=instance,
            algorithm="greedy_sequential",
            scenario=ScenarioSpec(model="crash_stop", seed=5, params={"f": 2}),
        ),
        RunSpec(
            instance=instance,
            algorithm="greedy_sequential",
            scenario=ScenarioSpec(
                model="lossy_links", seed=5, params={"drop": 0.2}
            ),
        ),
        # A duplicate: a failed fingerprint must fan its FailedResult
        # over every occurrence exactly as successes fan out.
        RunSpec(instance=instance, algorithm="greedy_sequential"),
    ]


def chaos_plan(seed: int, fingerprints: list[str]) -> FaultPlan:
    """The seeded fault schedule over a batch's distinct fingerprints.

    Rotating the sorted distinct fingerprints by ``seed`` picks which
    spec is poisoned, which hangs and which is flaky, so different
    seeds exercise different specs and a seed always rebuilds its plan.
    """
    distinct = sorted(set(fingerprints))
    assert len(distinct) >= 3
    poison = distinct[seed % len(distinct)]
    hang = distinct[(seed + 1) % len(distinct)]
    flaky = distinct[(seed + 2) % len(distinct)]
    return FaultPlan(
        seed=seed,
        faults=(
            make_fault("poison", target=poison),
            make_fault("hang", target=hang, sleep_s=CHAOS_HANG_SLEEP_S),
            make_fault("flaky", target=flaky, fail_attempts=1),
            make_fault("torn_write", match="results/", count=1),
            make_fault("worker_kill", after_specs=1),
            make_fault("stale_lease", shard=0, age_s=1e6),
        ),
    )


class TestChaosSmoke:
    """One seeded schedule of every fault kind through ``run_sharded``.

    A poison spec, a hang spec past the per-attempt deadline, a flaky
    spec that recovers on retry, a torn shard result file, worker
    subprocesses that kill themselves mid-job and a pre-planted stale
    lease, all in one sharded run with two real worker subprocesses.
    """

    @pytest.fixture(scope="class")
    def chaos(self, tmp_path_factory):
        clear_result_cache()
        specs = chaos_batch()
        fingerprints = [spec.fingerprint() for spec in specs]
        plan = chaos_plan(0, fingerprints)
        policy = FailurePolicy(
            on_error="capture",
            retries=1,
            backoff_s=0.0,
            timeout_s=CHAOS_TIMEOUT_S,
            backoff_seed=0,
        )
        # Fault-free serial baseline: what every surviving slot equals.
        baseline = run_many(specs, cache=False)
        job_dir = tmp_path_factory.mktemp("chaos") / "job"
        # Plant the stale lease before any worker starts; the plan is
        # active in the worker subprocesses (via the environment) and
        # in this process, whose drain executes specs too.
        ensure_plan(specs, job_dir, shards=2)
        apply_stale_leases(plan, job_dir)
        with active_faults(plan):
            merged = run_sharded(
                specs,
                job_dir,
                shards=2,
                local_workers=2,
                lease_ttl=2.0,
                on_error=policy,
                worker_env=env_with_faults(plan),
            )
        status = job_status(job_dir)
        ledger_rows = [
            row
            for row in read_ledger_rows(job_dir / "ledger")
            if row.get("kind") == "run"
        ]
        # A serial pass under the same plan and policy.
        with active_faults(plan):
            replay = run_many(specs, cache=False, on_error=policy)

        def target(kind):
            return plan.of_kind(kind)[0].params["target"]

        return SimpleNamespace(
            specs=specs,
            fingerprints=fingerprints,
            policy=policy,
            poison=target("poison"),
            doomed={target("poison"), target("hang")},
            flaky=target("flaky"),
            baseline=baseline,
            merged=merged,
            status=status,
            ledger_rows=ledger_rows,
            replay=replay,
        )

    def test_chaos_plan_is_seed_deterministic(self):
        fingerprints = [f"{i:x}" * 16 for i in range(4)]
        assert chaos_plan(2, fingerprints) == chaos_plan(2, fingerprints)
        assert (
            chaos_plan(0, fingerprints).fingerprint()
            != chaos_plan(1, fingerprints).fingerprint()
        )

    def test_the_run_terminates_with_every_slot(self, chaos):
        assert len(chaos.merged) == len(chaos.specs)

    def test_exactly_the_doomed_specs_are_quarantined(self, chaos):
        doomed_slots = {
            index
            for index, fingerprint in enumerate(chaos.fingerprints)
            if fingerprint in chaos.doomed
        }
        failed_slots = {
            index
            for index, result in enumerate(chaos.merged)
            if result.is_failure()
        }
        assert failed_slots == doomed_slots
        assert set(chaos.status["failed"]) == chaos.doomed
        for index in sorted(doomed_slots):
            failed = chaos.merged[index]
            assert failed.error_type == (
                "InjectedFault"
                if chaos.fingerprints[index] == chaos.poison
                else "SpecTimeoutError"
            )
            assert failed.attempts == chaos.policy.attempts

    def test_survivors_match_the_fault_free_baseline(self, chaos):
        # The flaky spec's recovery leaves no mark on its result.
        for index, (ours, theirs) in enumerate(
            zip(chaos.merged, chaos.baseline)
        ):
            if chaos.fingerprints[index] not in chaos.doomed:
                assert canonical_json(ours.to_dict()) == canonical_json(
                    theirs.to_dict()
                ), chaos.specs[index].label()

    def test_a_serial_replay_reproduces_every_slot(self, chaos):
        # Failure records obey serial == sharded, like successes.
        assert [canonical_json(r.to_dict()) for r in chaos.merged] == [
            canonical_json(r.to_dict()) for r in chaos.replay
        ]

    def test_the_ledger_accounts_for_every_spec(self, chaos):
        rows = chaos.ledger_rows
        assert set(chaos.fingerprints) <= {row["fingerprint"] for row in rows}
        for target in sorted(chaos.doomed):
            attempts = [
                row["attempts"]
                for row in rows
                if row["fingerprint"] == target
                and row["disposition"] == "failed"
            ]
            assert attempts
            assert set(attempts) == {chaos.policy.attempts}
        # The flaky spec fails its first attempt in every process.
        flaky_attempts = [
            row["attempts"]
            for row in rows
            if row["fingerprint"] == chaos.flaky
            and row["disposition"] == "executed"
        ]
        assert flaky_attempts
        assert set(flaky_attempts) == {2}

    def test_a_worker_kill_is_observed(self, chaos):
        returncodes = [
            event.get("returncode") for event in chaos.status["worker_events"]
        ]
        assert KILL_EXIT_CODE in returncodes
