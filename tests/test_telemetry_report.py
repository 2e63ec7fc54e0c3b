"""The fleet rollup: ledger directories in, benchmark tables out.

Pins ``repro.telemetry.report`` over *real* artifacts — a sharded job
drained in-process (whose workers default the ledger on), retries and
captured failures injected at the fault-hook seam — plus the CLI
surface (``python -m repro report``, ``--json``) and the
ledger columns ``repro shard status`` joins into its table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro.api.runner as runner_module
from repro.api import FailurePolicy, InstanceSpec, RunSpec, run_many
from repro.api.runner import clear_result_cache
from repro.cluster import run_sharded
from repro.cluster.coordinator import job_status
from repro.errors import InjectedFault
from repro.telemetry.report import find_ledger_dir, format_report, rollup


def batch() -> list[RunSpec]:
    instance = InstanceSpec(family="complete_bipartite", size=3, seed=6)
    return [
        RunSpec(instance=instance, algorithm="bko20"),
        RunSpec(instance=instance, algorithm="greedy_sequential"),
        RunSpec(instance=instance, algorithm="linial_greedy"),
    ]


@pytest.fixture(autouse=True)
def clean_state():
    clear_result_cache()
    assert runner_module._FAULT_HOOK is None
    yield
    runner_module._FAULT_HOOK = None
    clear_result_cache()


class TestFindLedgerDir:
    def test_job_dir_resolves_to_nested_ledger(self, tmp_path):
        (tmp_path / "ledger").mkdir()
        assert find_ledger_dir(tmp_path) == tmp_path / "ledger"

    def test_bare_directory_is_the_ledger_itself(self, tmp_path):
        assert find_ledger_dir(tmp_path) == tmp_path


class TestRollup:
    def test_rolls_a_real_sharded_job(self, tmp_path):
        specs = batch()
        job_dir = tmp_path / "job"
        run_sharded(specs, job_dir, shards=2, local_workers=0)
        summary = rollup(job_dir)
        assert summary["specs_distinct"] == 3
        assert summary["run_records"] == 3
        assert set(summary["by_algorithm"]) == {
            "bko20",
            "greedy_sequential",
            "linial_greedy",
        }
        for group in summary["by_algorithm"].values():
            assert group["executed"] == 1
            latency = group["latency_s"]
            assert 0 <= latency["p50"] <= latency["p90"] <= latency["max"]
        assert summary["cache"] == {
            "hits": 0,
            "executions": 3,
            "hit_rate": 0.0,
        }
        (worker_stats,) = summary["workers"].values()
        assert worker_stats["executed"] == 3
        assert summary["environments"][0]["python"]

    def test_cache_and_retry_rates(self, tmp_path):
        specs = batch()
        flaky_fingerprint = specs[1].fingerprint()

        def hook(fp: str, attempt: int) -> None:
            if fp == flaky_fingerprint and attempt == 1:
                raise InjectedFault("doomed first attempt")

        runner_module._FAULT_HOOK = hook
        run_many(
            specs,
            cache_dir=tmp_path / "cache",
            ledger_dir=tmp_path / "ledger",
            on_error=FailurePolicy(on_error="capture", retries=1),
        )
        runner_module._FAULT_HOOK = None
        clear_result_cache()  # force the replay onto the disk layer
        run_many(
            specs, cache_dir=tmp_path / "cache", ledger_dir=tmp_path / "ledger"
        )
        summary = rollup(tmp_path / "ledger")
        assert summary["cache"] == {
            "hits": 3,
            "executions": 3,
            "hit_rate": 0.5,
        }
        assert summary["retries"] == {
            "specs_retried": 1,
            "extra_attempts": 1,
            "retry_rate": round(1 / 6, 4),
        }
        retried_group = summary["by_algorithm"]["greedy_sequential"]
        assert retried_group["retried"] == 1

    def test_failed_records_and_dead_letters(self, tmp_path):
        specs = batch()
        doomed = specs[2].fingerprint()

        def hook(fp: str, attempt: int) -> None:
            if fp == doomed:
                raise InjectedFault(f"poisoned {fp[:12]}")

        job_dir = tmp_path / "job"
        runner_module._FAULT_HOOK = hook
        run_sharded(
            specs,
            job_dir,
            shards=2,
            local_workers=0,
            on_error=FailurePolicy(on_error="capture", retries=1),
        )
        summary = rollup(job_dir)
        assert summary["failures"]["failed_records"] == 1
        (letter,) = summary["failures"]["dead_letters"]
        assert letter["fingerprint"] == doomed
        assert letter["error_type"] == "InjectedFault"
        assert letter["attempts"] == 2
        rendered = format_report(summary)
        assert f"dead letter {doomed[:12]}" in rendered

    def test_empty_directory_rolls_to_zero(self, tmp_path):
        summary = rollup(tmp_path)
        assert summary["run_records"] == 0
        assert summary["cache"]["hit_rate"] is None
        assert summary["by_algorithm"] == {}


class TestRetryAdvice:
    """Ledger-driven budgeting: flaky recoveries vs poison specs."""

    def test_flaky_recovery_suggests_the_observed_depth(self, tmp_path):
        specs = batch()
        flaky = specs[1].fingerprint()

        def hook(fp: str, attempt: int) -> None:
            if fp == flaky and attempt <= 2:
                raise InjectedFault("doomed below attempt 3")

        runner_module._FAULT_HOOK = hook
        run_many(
            specs,
            cache=False,
            ledger_dir=tmp_path,
            on_error=FailurePolicy(on_error="capture", retries=3),
        )
        advice = rollup(tmp_path)["retry_advice"]
        # The flaky spec needed 2 retries to land; nothing was poison.
        assert advice["suggested_retries"] == 2
        assert advice["poison_specs"] == 0
        group = advice["by_group"]["greedy_sequential"]
        assert group["terminal"] == 1
        assert group["flaky_recoveries"] == 1
        assert group["retries_needed"] == 2
        assert group["flaky_rate"] == 1.0
        assert group["poison_rate"] == 0.0
        clean = advice["by_group"]["bko20"]
        assert clean["flaky_recoveries"] == 0
        assert clean["flaky_rate"] == 0.0

    def test_poison_specs_are_not_a_retry_problem(self, tmp_path):
        specs = batch()
        doomed = specs[2].fingerprint()

        def hook(fp: str, attempt: int) -> None:
            if fp == doomed:
                raise InjectedFault("poisoned for good")

        runner_module._FAULT_HOOK = hook
        run_many(
            specs,
            cache=False,
            ledger_dir=tmp_path,
            on_error=FailurePolicy(on_error="capture", retries=2),
        )
        advice = rollup(tmp_path)["retry_advice"]
        assert advice["suggested_retries"] == 0
        assert advice["poison_specs"] == 1
        group = advice["by_group"]["linial_greedy"]
        assert group["poison"] == 1
        assert group["poison_rate"] == 1.0
        assert group["retries_needed"] == 0

    def test_cache_replays_do_not_dilute_the_rates(self, tmp_path):
        specs = batch()[:1]
        run_many(specs, cache_dir=tmp_path / "cache", ledger_dir=tmp_path)
        clear_result_cache()
        run_many(specs, cache_dir=tmp_path / "cache", ledger_dir=tmp_path)
        advice = rollup(tmp_path)["retry_advice"]
        # Only the terminal (executed/failed) record counts; the
        # cache_disk replay is not a second data point.
        assert advice["by_group"]["bko20"]["terminal"] == 1

    def test_all_clean_run_gives_quiet_advice(self, tmp_path):
        run_many(batch(), cache=False, ledger_dir=tmp_path)
        summary = rollup(tmp_path)
        assert summary["retry_advice"]["suggested_retries"] == 0
        assert summary["retry_advice"]["poison_specs"] == 0
        assert "retry advice:" not in format_report(summary)

    def test_format_report_renders_both_advice_lines(self, tmp_path):
        specs = batch()
        flaky = specs[0].fingerprint()
        doomed = specs[2].fingerprint()

        def hook(fp: str, attempt: int) -> None:
            if fp == flaky and attempt == 1:
                raise InjectedFault("doomed first attempt")
            if fp == doomed:
                raise InjectedFault("poisoned for good")

        runner_module._FAULT_HOOK = hook
        run_many(
            specs,
            cache=False,
            ledger_dir=tmp_path,
            on_error=FailurePolicy(on_error="capture", retries=1),
        )
        text = format_report(rollup(tmp_path))
        assert (
            "retry advice: 1 flaky spec(s) recovered within 1 retry — "
            "suggested FailurePolicy(retries=1)" in text
        )
        assert "1 poison spec(s) failed every attempt" in text

    def test_poison_only_report_says_retries_wont_help(self, tmp_path):
        spec = batch()[2]

        def hook(fp: str, attempt: int) -> None:
            raise InjectedFault("poisoned for good")

        runner_module._FAULT_HOOK = hook
        run_many(
            [spec],
            cache=False,
            ledger_dir=tmp_path,
            on_error=FailurePolicy(on_error="capture", retries=1),
        )
        text = format_report(rollup(tmp_path))
        assert "raising retries won't help" in text


class TestFormatReport:
    def test_renders_every_table(self, tmp_path):
        job_dir = tmp_path / "job"
        run_sharded(batch(), job_dir, shards=2, local_workers=0)
        text = format_report(rollup(job_dir))
        assert "per-algorithm / per-scenario" in text
        assert "cache / retry" in text
        assert "throughput per worker" in text
        assert "bko20" in text


class TestSmoke:
    def test_a_sharded_job_rolls_up_into_every_table(self, tmp_path):
        # The whole pipeline on a fault-free sharded job: plan, drain
        # (the worker defaults the ledger on), roll up, render.
        specs = [
            RunSpec(
                instance=InstanceSpec(family="path", size=6, seed=seed),
                algorithm=algorithm,
            )
            for seed, algorithm in enumerate(
                ("greedy_sequential", "greedy_sequential", "linial_greedy",
                 "bko20")
            )
        ]
        specs.append(specs[0])  # a duplicate: executes once, one ledger row
        job_dir = tmp_path / "job"
        results = run_sharded(specs, job_dir, shards=2, local_workers=0)
        assert len(results) == len(specs)
        summary = rollup(job_dir)
        assert summary["ledger_dir"] == str(job_dir / "ledger")
        assert summary["specs_distinct"] == 4
        assert summary["run_records"] >= 4
        assert set(summary["by_algorithm"]) == {
            "greedy_sequential", "linial_greedy", "bko20"
        }
        for key, group in summary["by_algorithm"].items():
            assert group["executed"] >= 1, key
            latency = group["latency_s"]
            assert 0 <= latency["p50"] <= latency["p90"] <= latency["max"], key
        assert summary["cache"]["executions"] == 4
        assert summary["retries"]["specs_retried"] == 0
        assert summary["retries"]["retry_rate"] == 0.0
        assert summary["failures"]["failed_records"] == 0
        assert summary["workers"]
        for stats in summary["workers"].values():
            assert stats["specs_per_s"] is None or stats["specs_per_s"] > 0
        assert summary["environments"]
        text = format_report(summary)
        assert "per-algorithm / per-scenario" in text
        assert "throughput per worker" in text


def _repro_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


class TestCli:
    def test_report_command_on_a_job_dir(self, tmp_path):
        job_dir = tmp_path / "job"
        run_sharded(batch(), job_dir, shards=2, local_workers=0)
        proc = _repro_cli("report", str(job_dir))
        assert proc.returncode == 0, proc.stderr
        assert "per-algorithm / per-scenario" in proc.stdout

        as_json = _repro_cli("report", str(job_dir), "--json")
        assert as_json.returncode == 0, as_json.stderr
        payload = json.loads(as_json.stdout)
        assert payload["specs_distinct"] == 3

    def test_report_command_on_empty_dir_exits_nonzero(self, tmp_path):
        proc = _repro_cli("report", str(tmp_path))
        assert proc.returncode == 1
        assert "no run records" in proc.stdout

    def test_report_command_requires_a_target(self):
        proc = _repro_cli("report")
        assert proc.returncode != 0

    def test_shard_status_joins_ledger_columns(self, tmp_path):
        job_dir = tmp_path / "job"
        run_sharded(batch(), job_dir, shards=2, local_workers=0)
        status = job_status(job_dir)
        # Only shards that actually recorded runs appear (assignment is
        # fingerprint % shards, so a shard may legitimately be empty).
        assert status["ledger"]
        assert set(status["ledger"]) <= {"0", "1"}
        total_recorded = sum(
            entry["specs_recorded"] for entry in status["ledger"].values()
        )
        assert total_recorded == 3
        for entry in status["ledger"].values():
            assert entry["retries"] == 0
            assert entry["failed"] == 0
        proc = _repro_cli("shard", "status", "--job-dir", str(job_dir))
        assert proc.returncode == 0, proc.stderr
        assert "attempts" in proc.stdout
        assert "cache-hits" in proc.stdout
