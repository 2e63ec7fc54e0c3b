"""Concurrency contracts of the shared on-disk store mechanics.

Multiple cluster workers legitimately share one ``cache_dir``, so the
disk layer must tolerate (1) two processes storing the same fingerprint
at once — the unique-temp-file + atomic-rename publish means a reader
can never observe a torn entry — and (2) entries vanishing mid-prune
because another process evicted them first.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
from pathlib import Path

import pytest

from repro.api import InstanceSpec, RunSpec
from repro.api.diskcache import (
    atomic_write_json,
    disk_load,
    disk_path,
    disk_store,
    prune_cache,
    read_json,
)
from repro.api.runner import run
from repro.results import RunResult, fingerprint_of


def _hammer_store(cache_dir: str, fingerprint: str, spec_dict: dict, rounds: int):
    """Child-process body: store the same fingerprint over and over."""
    from repro.api.diskcache import disk_store as store
    from repro.api.spec import RunSpec as Spec

    result = dataclasses.replace(
        run(Spec.from_dict(spec_dict), cache=False), fingerprint=fingerprint
    )
    for _ in range(rounds):
        store(cache_dir, fingerprint, result)


class TestConcurrentWriters:
    def test_two_processes_leave_a_single_valid_sealed_entry(self, tmp_path):
        spec = RunSpec(
            instance=InstanceSpec(family="complete_bipartite", size=3, seed=2),
            algorithm="greedy_sequential",
        )
        fingerprint = spec.fingerprint()
        ctx = multiprocessing.get_context("spawn")
        writers = [
            ctx.Process(
                target=_hammer_store,
                args=(str(tmp_path), fingerprint, spec.to_dict(), 60),
            )
            for _ in range(2)
        ]
        for proc in writers:
            proc.start()
        # Read concurrently while both writers hammer the entry: a
        # loaded entry is either absent (not yet published) or *whole*
        # — a torn publish would surface as a final invalid file below.
        while any(proc.is_alive() for proc in writers):
            disk_load(tmp_path, fingerprint)
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        entries = list(Path(tmp_path).glob("*.json"))
        assert entries == [disk_path(tmp_path, fingerprint)]
        leftovers = [p for p in Path(tmp_path).iterdir() if p not in entries]
        assert leftovers == []  # no orphaned temp files
        final = disk_load(tmp_path, fingerprint)
        assert final is not None
        assert final.fingerprint == fingerprint

    def test_atomic_write_cleans_its_temp_file_on_failure(self, tmp_path):
        class Unserializable:
            def __repr__(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            atomic_write_json(tmp_path / "entry.json", Unserializable())
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_publishes_whole_files_only(self, tmp_path):
        target = tmp_path / "entry.json"
        atomic_write_json(target, {"value": 1})
        atomic_write_json(target, {"value": 2})
        assert read_json(target) == {"value": 2}
        assert list(tmp_path.iterdir()) == [target]


class TestPruneConcurrency:
    def _populate(self, cache_dir: Path, count: int) -> list[Path]:
        paths = []
        for index in range(count):
            path = cache_dir / f"{index:04d}.json"
            atomic_write_json(path, {"index": index})
            os.utime(path, (index, index))
            paths.append(path)
        return paths

    def test_entry_deleted_between_glob_and_stat_is_skipped(
        self, tmp_path, monkeypatch
    ):
        paths = self._populate(tmp_path, 5)
        victim = paths[0]
        original_stat = Path.stat

        def racing_stat(self, **kwargs):
            if self == victim and os.path.exists(victim):
                os.unlink(victim)  # a concurrent pruner got here first
            return original_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        # Must not raise, and must not count the vanished entry.
        removed = prune_cache(tmp_path, 2)
        assert removed == 2
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_entry_deleted_between_stat_and_unlink_is_skipped(
        self, tmp_path, monkeypatch
    ):
        paths = self._populate(tmp_path, 5)
        victim = paths[1]
        original_unlink = Path.unlink

        def racing_unlink(self, **kwargs):
            if self == victim and os.path.exists(victim):
                os.unlink(victim)  # the other process wins the unlink
            return original_unlink(self, **kwargs)

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        removed = prune_cache(tmp_path, 2)
        # The victim was removed by the *other* process: our count
        # covers only our own unlinks.
        assert removed == 2
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_all_entries_vanishing_mid_scan_is_a_clean_noop(
        self, tmp_path, monkeypatch
    ):
        self._populate(tmp_path, 3)
        original_stat = Path.stat

        def racing_stat(self, **kwargs):
            if self.suffix == ".json" and os.path.exists(self):
                os.unlink(self)
            return original_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        assert prune_cache(tmp_path, 0) == 0
        assert list(tmp_path.glob("*.json")) == []

    def test_shared_cache_dir_two_processes_storing_distinct_specs(
        self, tmp_path
    ):
        # The cluster-worker pattern: distinct fingerprints, one dir.
        specs = [
            RunSpec(
                instance=InstanceSpec(
                    family="complete_bipartite", size=3, seed=s
                ),
                algorithm="greedy_sequential",
            )
            for s in (1, 2)
        ]
        ctx = multiprocessing.get_context("spawn")
        writers = [
            ctx.Process(
                target=_hammer_store,
                args=(str(tmp_path), spec.fingerprint(), spec.to_dict(), 30),
            )
            for spec in specs
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        for spec in specs:
            loaded = disk_load(tmp_path, spec.fingerprint())
            assert loaded is not None
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert prune_cache(tmp_path, 1) == 1


class TestResultFingerprintOnce:
    """``result_fingerprint()`` is computed once per result object."""

    @pytest.fixture()
    def result(self):
        spec = RunSpec(
            instance=InstanceSpec(family="complete_bipartite", size=3, seed=2),
            algorithm="bko20",
        )
        return run(spec, cache=False)

    def test_cached_value_is_the_fingerprint_of_to_dict(self, result):
        assert "_result_fingerprint" not in result.__dict__
        value = result.result_fingerprint()
        assert value == fingerprint_of(result.to_dict())
        assert result.__dict__["_result_fingerprint"] == value
        assert result.result_fingerprint() is value

    def test_replace_starts_fresh(self, result):
        before = result.result_fingerprint()
        changed = dataclasses.replace(result, rounds=result.rounds + 1)
        assert "_result_fingerprint" not in changed.__dict__
        assert changed.result_fingerprint() == fingerprint_of(changed.to_dict())
        assert changed.result_fingerprint() != before

    def test_pickling_does_not_carry_it(self, result):
        result.result_fingerprint()
        _, (_, state) = result.__reduce__()
        assert "_result_fingerprint" not in state
        restored = pickle.loads(pickle.dumps(result))
        assert "_result_fingerprint" not in restored.__dict__
        assert restored.result_fingerprint() == result.result_fingerprint()

    def test_store_serializes_once_and_load_primes(
        self, result, tmp_path, monkeypatch
    ):
        calls = []
        to_dict = RunResult.to_dict

        def counted(self, **kwargs):
            calls.append(1)
            return to_dict(self, **kwargs)

        monkeypatch.setattr(RunResult, "to_dict", counted)
        disk_store(tmp_path, "f" * 64, result)
        assert len(calls) == 1
        loaded = disk_load(tmp_path, "f" * 64)
        assert len(calls) == 2  # the seal check
        assert loaded.__dict__["_result_fingerprint"] == (
            result.result_fingerprint()
        )
        loaded.result_fingerprint()
        assert len(calls) == 2

    def test_a_tampered_entry_is_still_a_miss(self, result, tmp_path):
        disk_store(tmp_path, "f" * 64, result)
        path = disk_path(tmp_path, "f" * 64)
        payload = read_json(path)
        token = next(iter(payload["result"]["coloring"]))
        payload["result"]["coloring"][token] += 1
        atomic_write_json(path, payload)
        assert disk_load(tmp_path, "f" * 64) is None
