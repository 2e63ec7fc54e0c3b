"""Failure domains at the executor level: capture, retry, backoff, timeout.

Pins the PR's executor contracts:

* ``on_error="capture"`` turns a poison spec into a deterministic
  :class:`~repro.results.FailedResult` — byte-identical between serial
  and process-pool execution, never stored in any cache;
* retries with seeded deterministic backoff recover flaky specs and
  leave **no marks** on the recovered result;
* ``timeout_s`` interrupts a hung attempt mid-flight;
* under the default ``on_error="raise"`` a batch failure propagates
  with its original type plus the failing spec's index/fingerprint.
"""

from __future__ import annotations

import importlib.util
import pickle
from pathlib import Path

import pytest

from repro.api import (
    FailedResult,
    FailurePolicy,
    InstanceSpec,
    RunSpec,
    backoff_delay,
    resolve_policy,
    run,
    run_many,
)
from repro.api import failures as failures_module
from repro.api import runner as runner_module
from repro.api.failures import execution_deadline, traceback_digest
from repro.api.runner import clear_result_cache
from repro.errors import (
    InjectedFault,
    ParameterError,
    SpecTimeoutError,
)
from repro.results import RunResult, canonical_json


def small_specs() -> list[RunSpec]:
    instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
    return [
        RunSpec(instance=instance, algorithm="greedy_sequential"),
        RunSpec(instance=instance, algorithm="bko20"),
        RunSpec(instance=instance, algorithm="linial_greedy"),
    ]


@pytest.fixture(autouse=True)
def clean_state():
    clear_result_cache()
    assert runner_module._FAULT_HOOK is None
    yield
    runner_module._FAULT_HOOK = None
    clear_result_cache()


def poison(fingerprint: str):
    """A fault hook that fails every attempt of one fingerprint."""

    def hook(fp: str, attempt: int) -> None:
        if fp == fingerprint:
            raise InjectedFault(f"poisoned {fp[:12]}")

    return hook


class TestFailurePolicy:
    def test_validation(self):
        with pytest.raises(ParameterError):
            FailurePolicy(on_error="explode")
        with pytest.raises(ParameterError):
            FailurePolicy(retries=-1)
        with pytest.raises(ParameterError):
            FailurePolicy(backoff_s=-0.1)
        with pytest.raises(ParameterError):
            FailurePolicy(timeout_s=0)

    def test_resolve(self):
        policy = FailurePolicy(on_error="capture", retries=3)
        assert resolve_policy(policy) is policy
        assert resolve_policy("capture").captures
        assert not resolve_policy("raise").captures
        assert resolve_policy("raise").attempts == 1

    def test_round_trip(self):
        # A policy crosses a worker pool's pipe pickled, as it is.
        policy = FailurePolicy(
            on_error="capture", retries=2, backoff_s=0.5, timeout_s=3.0,
            backoff_seed=9,
        )
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestBackoff:
    def test_deterministic_and_bounded(self):
        policy = FailurePolicy(retries=3, backoff_s=0.5, max_backoff_s=10.0)
        first = backoff_delay(policy, "ab" * 32, 1)
        assert first == backoff_delay(policy, "ab" * 32, 1)
        # Exponential base with jitter in [1, 2).
        assert 0.5 <= first < 1.0
        assert 1.0 <= backoff_delay(policy, "ab" * 32, 2) < 2.0

    def test_cap_and_zero(self):
        capped = FailurePolicy(retries=8, backoff_s=4.0, max_backoff_s=5.0)
        assert backoff_delay(capped, "cd" * 32, 6) == 5.0
        assert backoff_delay(FailurePolicy(), "cd" * 32, 1) == 0.0

    def test_seed_changes_schedule(self):
        a = FailurePolicy(backoff_s=1.0, backoff_seed=0)
        b = FailurePolicy(backoff_s=1.0, backoff_seed=1)
        assert backoff_delay(a, "ef" * 32, 1) != backoff_delay(b, "ef" * 32, 1)


class TestCapture:
    def test_poison_spec_becomes_failed_result(self):
        spec = small_specs()[0]
        runner_module._FAULT_HOOK = poison(spec.fingerprint())
        result = run(spec, cache=False, on_error="capture")
        assert isinstance(result, FailedResult)
        assert result.is_failure()
        assert result.error_type == "InjectedFault"
        assert result.fingerprint == spec.fingerprint()
        assert result.attempts == 1
        assert result.wall_clock_s is not None
        assert result.traceback_text

    def test_failures_never_cached(self):
        spec = small_specs()[0]
        runner_module._FAULT_HOOK = poison(spec.fingerprint())
        assert run(spec, on_error="capture").is_failure()
        runner_module._FAULT_HOOK = None
        # Memory cache must not have memoised the failure.
        assert not run(spec).is_failure()

    def test_failure_record_is_deterministic(self):
        spec = small_specs()[0]
        runner_module._FAULT_HOOK = poison(spec.fingerprint())
        first = run(spec, cache=False, on_error="capture")
        second = run(spec, cache=False, on_error="capture")
        # Observational extras stay out of the canonical record.
        assert "wall_clock" not in canonical_json(first.to_dict())
        assert canonical_json(first.to_dict()) == canonical_json(
            second.to_dict()
        )

    def test_round_trip_through_run_result(self):
        spec = small_specs()[0]
        runner_module._FAULT_HOOK = poison(spec.fingerprint())
        failed = run(spec, cache=False, on_error="capture")
        loaded = RunResult.from_dict(failed.to_dict())
        assert isinstance(loaded, FailedResult)
        assert canonical_json(loaded.to_dict()) == canonical_json(
            failed.to_dict()
        )

    def test_serial_equals_parallel_including_failures(self):
        specs = small_specs() + [small_specs()[0]]  # duplicate the poison
        runner_module._FAULT_HOOK = poison(specs[0].fingerprint())
        serial = run_many(specs, cache=False, on_error="capture")
        clear_result_cache()
        # Pool workers are forked on Linux, inheriting the hook.
        parallel = run_many(
            specs, parallel=2, cache=False, on_error="capture"
        )
        assert [canonical_json(r.to_dict()) for r in serial] == [
            canonical_json(r.to_dict()) for r in parallel
        ]
        assert parallel[0].traceback_digest == serial[0].traceback_digest
        assert parallel[3] is parallel[0]
        assert serial[0].is_failure() and serial[3].is_failure()
        assert not serial[1].is_failure() and not serial[2].is_failure()


class TestTracebackDigest:
    """The digest names what raised and where, not where the code lives."""

    MODULE = (
        "def fail(message):\n"
        "    raise ValueError(message)\n"
    )

    @staticmethod
    def digest_from(directory, source, message="boom"):
        path = directory / "poison_module.py"
        directory.mkdir()
        path.write_text(source)
        loaded = importlib.util.spec_from_file_location(
            f"poison_module_{directory.name}", path
        )
        module = importlib.util.module_from_spec(loaded)
        loaded.loader.exec_module(module)
        try:
            module.fail(message)
        except ValueError as exc:
            return traceback_digest(exc)
        raise AssertionError("the module did not raise")

    def test_the_same_failure_in_two_directories_agrees(self, tmp_path):
        first = self.digest_from(tmp_path / "one", self.MODULE)
        # Another directory, and the raise one line lower.
        second = self.digest_from(tmp_path / "two", "\n" + self.MODULE)
        assert first == second

    def test_a_different_message_differs(self, tmp_path):
        first = self.digest_from(tmp_path / "one", self.MODULE)
        other = self.digest_from(tmp_path / "two", self.MODULE, "bang")
        assert first != other

    def test_a_captured_failure_carries_it(self):
        spec = small_specs()[0]
        runner_module._FAULT_HOOK = poison(spec.fingerprint())
        result = run(spec, cache=False, on_error="capture")
        assert len(result.traceback_digest) == 64
        assert "Traceback" in result.traceback_text
        assert str(Path(runner_module.__file__)) in result.traceback_text


class TestRetry:
    def test_flaky_spec_recovers_without_marks(self):
        spec = small_specs()[0]
        baseline = run(spec, cache=False)

        def flaky_once(fp: str, attempt: int) -> None:
            if fp == spec.fingerprint() and attempt == 1:
                raise InjectedFault("doomed first attempt")

        runner_module._FAULT_HOOK = flaky_once
        recovered = run(
            spec,
            cache=False,
            on_error=FailurePolicy(on_error="capture", retries=1),
        )
        assert not recovered.is_failure()
        assert canonical_json(recovered.to_dict()) == canonical_json(
            baseline.to_dict()
        )

    def test_attempts_exhausted_then_captured(self):
        spec = small_specs()[0]
        runner_module._FAULT_HOOK = poison(spec.fingerprint())
        result = run(
            spec,
            cache=False,
            on_error=FailurePolicy(on_error="capture", retries=2),
        )
        assert result.is_failure()
        assert result.attempts == 3

    def test_backoff_schedule_is_slept(self, monkeypatch):
        spec = small_specs()[0]
        policy = FailurePolicy(
            on_error="capture", retries=2, backoff_s=0.5, backoff_seed=4
        )
        slept: list[float] = []
        monkeypatch.setattr(failures_module, "_sleep", slept.append)
        runner_module._FAULT_HOOK = poison(spec.fingerprint())
        run(spec, cache=False, on_error=policy)
        fingerprint = spec.fingerprint()
        assert slept == [
            backoff_delay(policy, fingerprint, 1),
            backoff_delay(policy, fingerprint, 2),
        ]


class TestTimeout:
    def test_hung_attempt_is_interrupted(self):
        import time as time_module

        spec = small_specs()[0]

        def hang(fp: str, attempt: int) -> None:
            if fp == spec.fingerprint():
                time_module.sleep(30.0)

        runner_module._FAULT_HOOK = hang
        started = time_module.monotonic()
        result = run(
            spec,
            cache=False,
            on_error=FailurePolicy(on_error="capture", timeout_s=0.2),
        )
        assert time_module.monotonic() - started < 5.0
        assert result.is_failure()
        assert result.error_type == "SpecTimeoutError"

    def test_deadline_direct(self):
        import time as time_module

        with execution_deadline(None):
            pass  # no-op without a budget
        with pytest.raises(SpecTimeoutError):
            with execution_deadline(0.05):
                time_module.sleep(10.0)

    def test_timeout_raises_under_raise_policy(self):
        import time as time_module

        spec = small_specs()[0]

        def hang(fp: str, attempt: int) -> None:
            time_module.sleep(30.0)

        runner_module._FAULT_HOOK = hang
        with pytest.raises(SpecTimeoutError):
            run(spec, cache=False, on_error=FailurePolicy(timeout_s=0.2))


class TestRaiseAnnotation:
    def test_serial_batch_names_the_failing_spec(self):
        specs = small_specs()
        runner_module._FAULT_HOOK = poison(specs[1].fingerprint())
        with pytest.raises(InjectedFault) as excinfo:
            run_many(specs, cache=False)
        assert excinfo.value.spec_index == 1
        assert excinfo.value.spec_fingerprint == specs[1].fingerprint()
        assert any(
            "spec 1" in note for note in excinfo.value.__notes__
        )

    def test_parallel_batch_names_the_failing_spec(self):
        specs = small_specs()
        runner_module._FAULT_HOOK = poison(specs[2].fingerprint())
        with pytest.raises(InjectedFault) as excinfo:
            run_many(specs, parallel=2, cache=False)
        assert excinfo.value.spec_index == 2
        assert excinfo.value.spec_fingerprint == specs[2].fingerprint()
        notes = excinfo.value.__notes__
        assert any(note.startswith("in solve worker") for note in notes)
        assert any("spec 2" in note for note in notes)
