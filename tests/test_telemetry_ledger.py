"""The run ledger: complete accounting that never perturbs results.

The contracts pinned here (see :mod:`repro.telemetry.ledger`):

1. every resolution writes one record — executed, cache replay
   (layer-labeled), or captured failure — with the documented shape;
2. the *deterministic core* of a batch's records is identical across
   serial, process-pool, and sharded execution of the same specs;
3. the ledger is observational: results with the ledger on are
   byte-identical to results with it off;
4. writes are best-effort: an unwritable ledger directory records
   nothing and fails nothing;
5. a process appends through kept-open descriptors: concurrent
   threads write whole lines, the descriptor table stays bounded, and
   a forked child writes its own file.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import sys
import threading

import pytest

import repro.api.runner as runner_module
from repro.api import FailurePolicy, InstanceSpec, RunSpec, ScenarioSpec, run, run_many
from repro.api.runner import clear_result_cache
from repro.cluster import run_sharded
from repro.errors import InjectedFault
from repro.results import canonical_json
from repro.telemetry import ledger as ledger_module
from repro.telemetry.ledger import (
    LEDGER_FORMAT,
    MAX_OPEN_FILES,
    RUN_DISPOSITIONS,
    LedgerWriter,
    active_ledger_dir,
    deterministic_core,
    ledger_context,
    read_ledger_rows,
    worker_identity,
)


def batch() -> list[RunSpec]:
    instance = InstanceSpec(family="complete_bipartite", size=3, seed=4)
    return [
        RunSpec(instance=instance, algorithm="bko20"),
        RunSpec(instance=instance, algorithm="greedy_sequential"),
        RunSpec(
            instance=instance,
            algorithm="greedy_sequential",
            scenario=ScenarioSpec(model="lossy_links", seed=3, params={"drop": 0.2}),
        ),
        # Duplicate: coalesces onto the first occurrence's execution,
        # so the ledger records it once, not twice.
        RunSpec(instance=instance, algorithm="bko20"),
    ]


@pytest.fixture(autouse=True)
def clean_state():
    clear_result_cache()
    assert runner_module._FAULT_HOOK is None
    yield
    runner_module._FAULT_HOOK = None
    clear_result_cache()


def run_rows(directory) -> list[dict]:
    return [
        row for row in read_ledger_rows(directory) if row.get("kind") == "run"
    ]


class TestRecordShape:
    def test_executed_record_carries_the_documented_fields(self, tmp_path):
        spec = batch()[0]
        result = run(spec, cache=False, ledger_dir=tmp_path / "ledger")
        rows = run_rows(tmp_path / "ledger")
        assert len(rows) == 1
        row = rows[0]
        assert row["format"] == LEDGER_FORMAT
        assert row["fingerprint"] == spec.fingerprint()
        assert row["algorithm"] == "bko20"
        assert row["instance"] == spec.instance.label()
        assert row["scenario"] is None
        assert row["disposition"] == "executed"
        assert row["attempts"] == 1
        assert row["result_fingerprint"] == result.result_fingerprint()
        assert row["rounds"] == result.rounds
        assert row["error_type"] is None
        observed = row["observed"]
        assert observed["wall_clock_s"] >= 0.0
        assert observed["worker"] == worker_identity()
        assert observed["environment"]["python"]
        assert isinstance(observed["unix_ts"], float)

    def test_scenario_and_message_fields(self, tmp_path):
        spec = batch()[2]
        result = run(spec, cache=False, ledger_dir=tmp_path)
        row = run_rows(tmp_path)[0]
        assert row["scenario"] == spec.scenario.label()
        assert row["messages"] == result.details["messages_delivered"]

    def test_cache_layers_are_labeled(self, tmp_path):
        spec = batch()[1]
        ledger = tmp_path / "ledger"
        run(spec, cache_dir=tmp_path / "cache", ledger_dir=ledger)
        # Memory layer answers within the process...
        run(spec, cache_dir=tmp_path / "cache", ledger_dir=ledger)
        # ...and the disk layer answers once the memory layer is gone.
        clear_result_cache()
        run(spec, cache_dir=tmp_path / "cache", ledger_dir=ledger)
        dispositions = [row["disposition"] for row in run_rows(ledger)]
        assert dispositions == ["executed", "cache_memory", "cache_disk"]
        for row in run_rows(ledger)[1:]:
            assert row["attempts"] == 0
        assert set(dispositions) <= set(RUN_DISPOSITIONS)

    def test_captured_failure_records_attempts_and_error_type(self, tmp_path):
        spec = batch()[0]
        fingerprint = spec.fingerprint()

        def hook(fp: str, attempt: int) -> None:
            if fp == fingerprint:
                raise InjectedFault(f"poisoned {fp[:12]}")

        runner_module._FAULT_HOOK = hook
        policy = FailurePolicy(on_error="capture", retries=2)
        result = run(spec, cache=False, on_error=policy, ledger_dir=tmp_path)
        assert result.is_failure()
        row = run_rows(tmp_path)[0]
        assert row["disposition"] == "failed"
        assert row["attempts"] == policy.attempts == 3
        assert row["error_type"] == "InjectedFault"
        assert row["result_fingerprint"] == result.result_fingerprint()

    def test_recovered_flaky_records_the_attempt_that_succeeded(self, tmp_path):
        spec = batch()[0]
        fingerprint = spec.fingerprint()

        def hook(fp: str, attempt: int) -> None:
            if fp == fingerprint and attempt == 1:
                raise InjectedFault("doomed first attempt")

        runner_module._FAULT_HOOK = hook
        result = run(
            spec,
            cache=False,
            on_error=FailurePolicy(on_error="capture", retries=1),
            ledger_dir=tmp_path,
        )
        assert not result.is_failure()
        row = run_rows(tmp_path)[0]
        assert row["disposition"] == "executed"
        assert row["attempts"] == 2


class TestAmbientSeam:
    def test_ledger_context_installs_and_restores(self, tmp_path):
        assert active_ledger_dir() is None
        with ledger_context(tmp_path) as installed:
            assert installed == str(tmp_path)
            assert active_ledger_dir() == str(tmp_path)
            run(batch()[1], cache=False)
        assert active_ledger_dir() is None
        assert len(run_rows(tmp_path)) == 1

    def test_none_context_is_a_passthrough(self, tmp_path):
        with ledger_context(tmp_path):
            with ledger_context(None) as ambient:
                assert ambient == str(tmp_path)
                assert active_ledger_dir() == str(tmp_path)

    def test_explicit_ledger_dir_wins_over_ambient(self, tmp_path):
        ambient = tmp_path / "ambient"
        explicit = tmp_path / "explicit"
        with ledger_context(ambient):
            run(batch()[1], cache=False, ledger_dir=explicit)
        assert run_rows(explicit) and not run_rows(ambient)


class TestDeterminism:
    """Contract 2: core rows are identical across execution modes."""

    def core_set(self, directory) -> set[str]:
        return {
            canonical_json(deterministic_core(row))
            for row in run_rows(directory)
        }

    def test_serial_pool_sharded_write_the_same_core_rows(self, tmp_path):
        specs = batch()
        serial_dir = tmp_path / "serial"
        pool_dir = tmp_path / "pool"
        job_dir = tmp_path / "job"

        serial = run_many(specs, cache=False, ledger_dir=serial_dir)
        clear_result_cache()
        pooled = run_many(specs, cache=False, parallel=2, ledger_dir=pool_dir)
        clear_result_cache()
        sharded = run_sharded(specs, job_dir, shards=2, local_workers=0)

        assert [canonical_json(r.to_dict()) for r in serial] == [
            canonical_json(r.to_dict()) for r in pooled
        ] == [canonical_json(r.to_dict()) for r in sharded]

        serial_core = self.core_set(serial_dir)
        assert len(serial_core) == 3  # distinct specs, duplicate coalesced
        assert serial_core == self.core_set(pool_dir)
        assert serial_core == self.core_set(job_dir / "ledger")
        for directory in (serial_dir, pool_dir, job_dir / "ledger"):
            assert all(
                row["disposition"] == "executed" for row in run_rows(directory)
            )

    def test_cluster_workers_default_the_ledger_on(self, tmp_path):
        specs = batch()[:2]
        run_sharded(specs, tmp_path / "job", shards=2, local_workers=0)
        rows = run_rows(tmp_path / "job" / "ledger")
        assert {row["fingerprint"] for row in rows} == {
            spec.fingerprint() for spec in specs
        }


class TestObservationalOnly:
    """Contract 3: the ledger never perturbs result bytes."""

    def test_results_identical_with_ledger_on_and_off(self, tmp_path):
        specs = batch()
        with_ledger = run_many(specs, cache=False, ledger_dir=tmp_path)
        clear_result_cache()
        without = run_many(specs, cache=False)
        assert [canonical_json(r.to_dict()) for r in with_ledger] == [
            canonical_json(r.to_dict()) for r in without
        ]

    def test_ledger_rows_never_enter_sealed_results(self, tmp_path):
        spec = batch()[0]
        run(spec, cache_dir=tmp_path / "cache", ledger_dir=tmp_path / "ledger")
        sealed = list((tmp_path / "cache").glob("*.json"))
        assert sealed
        for path in sealed:
            text = path.read_text()
            # No telemetry-record fields leak into sealed files ("ledger"
            # alone would false-positive on the solver's round ledger).
            assert '"disposition"' not in text
            assert '"observed"' not in text


class TestBestEffort:
    """Contract 4: an unwritable ledger is silence, not failure."""

    def test_unwritable_ledger_dir_is_swallowed(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the directory should be")
        result = run(batch()[1], cache=False, ledger_dir=blocker / "ledger")
        assert not result.is_failure()

    def test_torn_lines_are_skipped_on_read(self, tmp_path):
        run(batch()[1], cache=False, ledger_dir=tmp_path)
        path = next(tmp_path.glob("*.jsonl"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": \n')
            handle.write("not json at all\n")
        rows = run_rows(tmp_path)
        assert len(rows) == 1

    def test_missing_directory_reads_empty(self, tmp_path):
        assert read_ledger_rows(tmp_path / "never-written") == []

    def test_rows_are_json_lines_sorted_keys(self, tmp_path):
        run(batch()[1], cache=False, ledger_dir=tmp_path)
        path = next(tmp_path.glob("*.jsonl"))
        line = path.read_text().strip()
        row = json.loads(line)
        assert line == json.dumps(row, sort_keys=True, default=repr)


class TestKeptOpenFiles:
    """Contract 5: one ``os.write`` per row on a kept-open descriptor."""

    def test_concurrent_threads_write_whole_lines(self, tmp_path):
        writer = LedgerWriter(tmp_path)

        def append(thread: int) -> None:
            for index in range(200):
                assert writer.record(
                    {"thread": thread, "index": index, "pad": "x" * index}
                )

        threads = [
            threading.Thread(target=append, args=(thread,)) for thread in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        lines = writer.path().read_text().splitlines()
        assert len(lines) == 8 * 200
        rows = [json.loads(line) for line in lines]
        assert sorted((row["thread"], row["index"]) for row in rows) == [
            (thread, index) for thread in range(8) for index in range(200)
        ]

    def test_more_directories_than_the_bound_all_receive_rows(self, tmp_path):
        directories = [tmp_path / f"d{i}" for i in range(MAX_OPEN_FILES + 3)]
        for round_index in range(2):
            for directory in directories:
                assert LedgerWriter(directory).record({"round": round_index})
        assert len(ledger_module._OPEN_FILES) <= MAX_OPEN_FILES
        for directory in directories:
            assert read_ledger_rows(directory) == [{"round": 0}, {"round": 1}]

    def test_a_forked_child_writes_its_own_file(self, tmp_path):
        writer = LedgerWriter(tmp_path)
        assert writer.record({"who": "parent"})
        child = multiprocessing.get_context("fork").Process(
            target=writer.record, args=({"who": "child"},)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert writer.record({"who": "parent"})
        by_file = {
            path.name: [
                json.loads(line)["who"] for line in path.read_text().splitlines()
            ]
            for path in tmp_path.glob("*.jsonl")
        }
        assert by_file == {
            writer.path().name: ["parent", "parent"],
            writer.path().name.replace(
                f"-{os.getpid()}.", f"-{child.pid}."
            ): ["child"],
        }

    def test_an_unwritable_directory_returns_false(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the directory should be")
        writer = LedgerWriter(blocker / "ledger")
        assert writer.record({"row": 1}) is False
        assert str(writer.path()) not in ledger_module._OPEN_FILES

    def test_a_write_error_forgets_the_descriptor(self, tmp_path, monkeypatch):
        writer = LedgerWriter(tmp_path)
        assert writer.record({"row": 1})
        path = str(writer.path())
        assert path in ledger_module._OPEN_FILES

        def disk_full(descriptor, data):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(ledger_module.os, "write", disk_full)
        assert writer.record({"row": 2}) is False
        monkeypatch.undo()
        assert path not in ledger_module._OPEN_FILES
        assert writer.record({"row": 3})
        assert read_ledger_rows(tmp_path) == [{"row": 1}, {"row": 3}]
