"""Tests for the batch executor: run, run_many, caching, determinism,
the on-disk cache spill, and streaming run_many_iter."""

import dataclasses
import hashlib
import json
import os
import sys
import threading

import pytest

from repro.api import (
    InstanceSpec,
    RunSpec,
    ScenarioSpec,
    clear_result_cache,
    result_cache_size,
    run,
    run_many,
    run_many_iter,
    specs_for_race,
)
from repro.api import runner
from repro.api.diskcache import DISK_FORMAT
from repro.api.registry import algorithm_names
from repro.baselines.registry import BaselineResult, run_baseline
from repro.core.solver import SolveResult, solve_edge_coloring
from repro.errors import ServiceUnavailable
from repro.results import RunResult, fingerprint_of
from repro.telemetry.ledger import read_ledger_rows

from tests.test_service_pool import children_of, needs_proc


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


def twelve_spec_sweep() -> list[RunSpec]:
    """A 12-cell sweep mixing families, sizes, and algorithms."""
    instances = [
        InstanceSpec(family="cycle", size=8, seed=1),
        InstanceSpec(family="complete_bipartite", size=3, seed=2),
        InstanceSpec(family="star", size=6, seed=3),
        InstanceSpec(family="grid", size=3, seed=4),
    ]
    algorithms = ["bko20", "linial_greedy", "randomized_luby"]
    return [
        RunSpec(instance=instance, algorithm=algorithm)
        for instance in instances
        for algorithm in algorithms
    ]


def twelve_slow_specs() -> list[RunSpec]:
    """Twelve paper-solver specs of about 0.1 s each (Δ 40)."""
    return [
        RunSpec(InstanceSpec(family="random_regular", size=40, seed=seed))
        for seed in range(12)
    ]


class TestRun:
    def test_paper_run_matches_direct_solver_call(self):
        spec = RunSpec(InstanceSpec(family="complete_bipartite", size=4, seed=2))
        result = run(spec)
        direct = solve_edge_coloring(spec.instance.build(), seed=2)
        assert result.rounds == direct.rounds
        assert result.coloring == direct.coloring
        assert result.fingerprint == spec.fingerprint()

    def test_baseline_run_matches_direct_baseline_call(self):
        spec = RunSpec(
            InstanceSpec(family="complete_bipartite", size=4, seed=2),
            algorithm="kuhn_wattenhofer",
        )
        result = run(spec)
        direct = run_baseline(
            "kuhn_wattenhofer", spec.instance.build(), seed=2
        )
        assert result.rounds == direct.rounds
        assert result.coloring == direct.coloring

    def test_cache_serves_repeat_runs(self):
        spec = RunSpec(InstanceSpec(family="cycle", size=9, seed=1))
        first = run(spec)
        assert result_cache_size() == 1
        again = run(spec)
        assert result_cache_size() == 1  # served from cache, not re-solved
        assert again.result_fingerprint() == first.result_fingerprint()

    def test_cached_results_are_mutation_safe(self):
        # Results are immutable: a caller deriving a trashed result
        # from its returned one must not poison later lookups.
        spec = RunSpec(InstanceSpec(family="cycle", size=9, seed=1))
        first = run(spec)
        pristine = first.result_fingerprint()
        trashed = dataclasses.replace(
            first, coloring={}, stats={**first.stats, "injected": True}
        )
        assert trashed.result_fingerprint() != pristine
        assert run(spec).result_fingerprint() == pristine

    def test_cache_hits_are_not_revalidated(self, tmp_path, monkeypatch):
        # Only an execution validates: its result was checked before it
        # was stored, so memory and disk hits serve it as stored.
        import repro.api.runner as runner_module

        spec = RunSpec(InstanceSpec(family="cycle", size=9, seed=1))
        first = run(spec, cache_dir=tmp_path)
        calls: list[object] = []
        monkeypatch.setattr(
            runner_module, "_validate", lambda result, graph: calls.append(result)
        )
        assert run(spec, cache_dir=tmp_path) is first  # memory hit
        clear_result_cache()
        from_disk = run(spec, cache_dir=tmp_path)  # disk hit
        assert from_disk.result_fingerprint() == first.result_fingerprint()
        assert calls == []  # not re-checked per hit
        run(spec, cache=False)  # an execution does reach the seam
        assert len(calls) == 1

    def test_cache_opt_out(self):
        spec = RunSpec(InstanceSpec(family="cycle", size=9, seed=1))
        run(spec, cache=False)
        assert result_cache_size() == 0


class TestRunMany:
    def test_results_come_back_in_spec_order(self):
        specs = twelve_spec_sweep()
        results = run_many(specs)
        assert [r.fingerprint for r in results] == [s.fingerprint() for s in specs]

    def test_duplicate_specs_solve_once(self):
        spec = RunSpec(InstanceSpec(family="cycle", size=8, seed=1))
        results = run_many([spec, spec, spec])
        assert result_cache_size() == 1
        fingerprints = {r.result_fingerprint() for r in results}
        assert len(fingerprints) == 1
        # ... and callers share one result nobody can change.
        assert results[0] is results[1] is results[2]
        with pytest.raises(AttributeError):
            results[0].coloring.clear()
        assert results[1].coloring

    def test_parallel_equals_serial_on_a_12_spec_sweep(self):
        # Acceptance criterion: byte-identical RunResult fingerprints
        # with parallel=1 and parallel=4.
        specs = twelve_spec_sweep()
        assert len(specs) == 12
        serial = run_many(specs, parallel=1)
        clear_result_cache()
        parallel = run_many(specs, parallel=4)
        assert [r.result_fingerprint() for r in serial] == [
            r.result_fingerprint() for r in parallel
        ]
        # The fingerprint covers rounds + coloring, but check the
        # headline fields directly too.
        for a, b in zip(serial, parallel):
            assert a.rounds == b.rounds
            assert a.coloring == b.coloring
            assert a.name == b.name

    def test_parallel_results_land_in_the_cache(self):
        specs = twelve_spec_sweep()
        run_many(specs, parallel=4)
        assert result_cache_size() == 12
        # A second pass is served entirely from cache.
        again = run_many(specs, parallel=4)
        assert [r.result_fingerprint() for r in again] == [
            r.result_fingerprint() for r in run_many(specs)
        ]

    def test_specs_for_race_covers_the_whole_registry(self):
        instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
        specs = specs_for_race(instance)
        assert [s.algorithm for s in specs] == algorithm_names()
        results = run_many(specs)
        assert all(r.rounds >= 0 and r.coloring for r in results)


class TestDiskCache:
    """The cache_dir= spill: sweeps resume across sessions."""

    def test_run_writes_one_json_per_fingerprint(self, tmp_path):
        spec = RunSpec(InstanceSpec(family="cycle", size=9, seed=1))
        result = run(spec, cache_dir=tmp_path)
        path = tmp_path / f"{spec.fingerprint()}.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["fingerprint"] == spec.fingerprint()
        assert payload["format"] == DISK_FORMAT == 2
        assert "validated" not in payload  # every stored result is validated
        assert payload["result"]["rounds"] == result.rounds

    @pytest.mark.parametrize("algorithm,scenario", [
        ("bko20", None),
        ("randomized_luby", ScenarioSpec(model="lossy_links", seed=4)),
    ])
    def test_executed_result_serialized_once(
        self, tmp_path, monkeypatch, algorithm, scenario
    ):
        """With a ledger and a disk cache, the ledger row's result
        fingerprint and the disk entry share one ``to_dict()``."""
        from repro.telemetry.ledger import read_ledger_rows

        spec = RunSpec(
            InstanceSpec(family="random_regular", size=4, seed=3),
            algorithm=algorithm,
            scenario=scenario,
        )
        calls = []
        to_dict = RunResult.to_dict

        def counted(self, **kwargs):
            calls.append(self.name)
            return to_dict(self, **kwargs)

        monkeypatch.setattr(RunResult, "to_dict", counted)
        result = run(
            spec, cache=False, cache_dir=tmp_path / "cache",
            ledger_dir=tmp_path / "ledger",
        )
        assert len(calls) == 1
        monkeypatch.undo()

        payload = to_dict(result)
        seal = fingerprint_of(payload)
        entry = (tmp_path / "cache" / f"{spec.fingerprint()}.json").read_text()
        assert entry == json.dumps(
            {"fingerprint": spec.fingerprint(), "format": DISK_FORMAT,
             "result": payload, "result_fingerprint": seal},
            sort_keys=True, default=repr,
        )
        rows = [r for r in read_ledger_rows(tmp_path / "ledger") if r.get("kind") == "run"]
        assert [row["result_fingerprint"] for row in rows] == [seal]

    def test_disk_hit_survives_cleared_memory_cache(self, tmp_path, monkeypatch):
        spec = RunSpec(InstanceSpec(family="complete_bipartite", size=3, seed=2))
        first = run(spec, cache_dir=tmp_path)
        pristine = first.result_fingerprint()
        clear_result_cache()  # "new session"

        import repro.api.runner as runner_module

        monkeypatch.setattr(
            runner_module,
            "get_algorithm",
            lambda name: pytest.fail("disk hit should not re-solve"),
        )
        resumed = run(spec, cache_dir=tmp_path)
        assert resumed.result_fingerprint() == pristine
        assert resumed.rounds == first.rounds
        assert resumed.coloring == first.coloring

    @pytest.mark.parametrize("entry_point", ["run", "run_many", "run_sharded"])
    @pytest.mark.parametrize("corruption", ["neighbor color", "off palette"])
    def test_corrupted_bko20_result_fails_validation(
        self, tmp_path, monkeypatch, corruption, entry_point
    ):
        """The solver leaves uniform lists unchecked; the runner's
        properness and palette checks still catch a bad result, on
        every entry point, and the bad result enters no cache."""
        from repro.cluster import cache_dir_of, run_sharded
        from repro.core.solver import RecursiveSolver
        from repro.errors import ColoringValidationError

        solve_internal = RecursiveSolver.solve_internal

        def corrupted(self, depth=None):
            coloring = solve_internal(self, depth)
            edge = min(coloring, key=repr)
            neighbor = self.master.neighbors(edge)[0]
            coloring[edge] = (
                coloring[neighbor] if corruption == "neighbor color" else 0
            )
            return coloring

        monkeypatch.setattr(RecursiveSolver, "solve_internal", corrupted)
        spec = RunSpec(InstanceSpec(family="complete_bipartite", size=3, seed=2))
        cache_dir = tmp_path / "cache"
        if entry_point == "run":
            with pytest.raises(ColoringValidationError):
                run(spec, cache_dir=cache_dir)
        else:
            if entry_point == "run_many":
                results = run_many([spec], cache_dir=cache_dir, on_error="capture")
            else:
                job = tmp_path / "job"
                cache_dir = cache_dir_of(job)
                results = run_sharded(
                    [spec], job, shards=1, local_workers=0, on_error="capture"
                )
            [failed] = results
            assert failed.is_failure()
            assert failed.error_type == ColoringValidationError.__name__
        assert result_cache_size() == 0
        assert list(cache_dir.glob("*.json")) == []

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        spec = RunSpec(InstanceSpec(family="cycle", size=9, seed=1))
        first = run(spec, cache_dir=tmp_path)
        path = tmp_path / f"{spec.fingerprint()}.json"
        payload = json.loads(path.read_text())
        payload["result"]["rounds"] = 999  # tampered: seal must break
        path.write_text(json.dumps(payload))
        clear_result_cache()
        again = run(spec, cache_dir=tmp_path)
        assert again.rounds == first.rounds  # re-solved, not trusted

    def test_format_1_unvalidated_entry_is_a_miss(self, tmp_path, monkeypatch):
        # An entry stored unchecked under the old format is never
        # served: the spec re-solves, validates and rewrites it.
        import repro.api.runner as runner_module

        spec = RunSpec(InstanceSpec(family="cycle", size=9, seed=1))
        first = run(spec, cache=False, cache_dir=tmp_path)
        path = tmp_path / f"{spec.fingerprint()}.json"
        payload = json.loads(path.read_text())
        payload.update(format=1, validated=False)
        path.write_text(json.dumps(payload))
        calls: list[object] = []
        validate = runner_module._validate
        monkeypatch.setattr(
            runner_module,
            "_validate",
            lambda result, graph: (calls.append(result), validate(result, graph)),
        )
        again = run(spec, cache=False, cache_dir=tmp_path)
        assert len(calls) == 1  # re-solved and validated
        assert again.result_fingerprint() == first.result_fingerprint()
        rewritten = json.loads(path.read_text())
        assert rewritten["format"] == DISK_FORMAT == 2
        assert "validated" not in rewritten

    def test_memory_hit_still_spills_to_disk(self, tmp_path):
        spec = RunSpec(InstanceSpec(family="cycle", size=9, seed=1))
        run(spec)  # warm the in-process cache only
        run(spec, cache_dir=tmp_path)  # memory hit — must still spill
        assert (tmp_path / f"{spec.fingerprint()}.json").exists()

    def test_run_many_resumes_from_disk(self, tmp_path):
        specs = twelve_spec_sweep()
        first = run_many(specs, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 12
        clear_result_cache()
        resumed = run_many(specs, cache_dir=tmp_path)
        assert [r.result_fingerprint() for r in resumed] == [
            r.result_fingerprint() for r in first
        ]


class TestRunManyIter:
    """Streaming delivery: same results, surfaced as they finish."""

    def test_serial_stream_matches_run_many(self):
        specs = twelve_spec_sweep()
        streamed = dict(run_many_iter(specs))
        clear_result_cache()
        listed = run_many(specs)
        assert sorted(streamed) == list(range(12))
        assert [streamed[i].result_fingerprint() for i in range(12)] == [
            r.result_fingerprint() for r in listed
        ]

    def test_parallel_stream_matches_serial(self):
        specs = twelve_spec_sweep()
        serial = run_many(specs, parallel=1)
        clear_result_cache()
        streamed = dict(run_many_iter(specs, parallel=4))
        assert sorted(streamed) == list(range(12))
        assert [streamed[i].result_fingerprint() for i in range(12)] == [
            r.result_fingerprint() for r in serial
        ]

    def test_cache_hits_stream_before_fresh_runs(self):
        specs = twelve_spec_sweep()
        run(specs[5])  # pre-cache one spec
        order = [index for index, _ in run_many_iter(specs)]
        assert order[0] == 5  # the hit surfaces first
        assert sorted(order) == list(range(12))

    @needs_proc
    def test_closing_a_parallel_stream_stops_the_batch(self, tmp_path):
        specs = twelve_slow_specs()
        before = set(children_of(os.getpid()))
        stream = run_many_iter(
            specs, parallel=2, cache=False, ledger_dir=tmp_path
        )
        next(stream)
        stream.close()
        assert len(read_ledger_rows(tmp_path)) < len(specs) / 2
        assert set(children_of(os.getpid())) - before == set()

    @needs_proc
    def test_a_raised_failure_stops_a_parallel_batch(
        self, tmp_path, monkeypatch
    ):
        specs = twelve_slow_specs()
        poisoned = specs[0].fingerprint()

        def hook(fingerprint, attempt):
            if fingerprint == poisoned:
                raise ValueError("poisoned")

        monkeypatch.setattr(runner, "_FAULT_HOOK", hook)
        before = set(children_of(os.getpid()))
        with pytest.raises(ValueError) as excinfo:
            run_many(specs, parallel=2, cache=False, ledger_dir=tmp_path)
        assert excinfo.value.spec_index == 0
        assert len(read_ledger_rows(tmp_path)) < len(specs) / 2
        assert set(children_of(os.getpid())) - before == set()

    @needs_proc
    def test_a_dead_worker_fails_a_parallel_batch(self, monkeypatch):
        specs = twelve_slow_specs()
        doomed = specs[3].fingerprint()

        def hook(fingerprint, attempt):
            if fingerprint == doomed:
                os._exit(1)

        monkeypatch.setattr(runner, "_FAULT_HOOK", hook)
        before = set(children_of(os.getpid()))
        with pytest.raises(ServiceUnavailable) as excinfo:
            run_many(specs, parallel=2, cache=False, on_error="capture")
        assert excinfo.value.spec_index == 3
        assert excinfo.value.spec_fingerprint == doomed
        assert set(children_of(os.getpid())) - before == set()

    def test_duplicate_specs_share_one_immutable_result(self):
        spec = RunSpec(InstanceSpec(family="cycle", size=8, seed=1))
        pairs = dict(run_many_iter([spec, spec]))
        assert pairs[0] is pairs[1]
        with pytest.raises(AttributeError):
            pairs[0].coloring.clear()
        assert pairs[1].coloring


class TestDeprecationShims:
    """The legacy result types remain importable and RunResult-shaped."""

    def test_solve_result_is_a_run_result(self):
        assert issubclass(SolveResult, RunResult)
        result = solve_edge_coloring(
            InstanceSpec(family="cycle", size=6, seed=1).build(), seed=1
        )
        assert isinstance(result, RunResult)
        assert result.name == "bko20"
        assert result.palette_size > 0

    def test_baseline_result_is_a_run_result(self):
        assert issubclass(BaselineResult, RunResult)
        result = run_baseline(
            "greedy_sequential",
            InstanceSpec(family="cycle", size=6, seed=1).build(),
            seed=1,
        )
        assert isinstance(result, RunResult)
        assert result.result_fingerprint()

    def test_legacy_imports_keep_working(self):
        from repro import SolveResult as top_level_solve_result
        from repro.baselines.registry import BaselineResult as legacy_baseline
        from repro.core.solver import SolveResult as legacy_solve

        assert top_level_solve_result is legacy_solve
        assert issubclass(legacy_baseline, RunResult)


class TestResultSerialization:
    def test_to_dict_is_json_safe_and_tokenized(self):
        import json

        result = run(RunSpec(InstanceSpec(family="cycle", size=5, seed=1)))
        payload = result.to_dict()
        text = json.dumps(payload, sort_keys=True, default=repr)
        assert "--" in next(iter(payload["coloring"]))
        assert json.loads(text)["rounds"] == result.rounds

    def test_result_fingerprint_stable_across_runs(self):
        spec = RunSpec(
            InstanceSpec(family="complete_bipartite", size=3, seed=2),
            algorithm="randomized_luby",
        )
        first = run(spec).result_fingerprint()
        clear_result_cache()
        assert run(spec).result_fingerprint() == first


class TestCacheEviction:
    """The on-disk store's LRU-by-mtime eviction policy."""

    def specs(self, count=5):
        return [
            RunSpec(
                InstanceSpec(family="cycle", size=5 + index, seed=1),
                algorithm="greedy_sequential",
            )
            for index in range(count)
        ]

    def entries(self, cache_dir):
        return sorted(path.name for path in cache_dir.glob("*.json"))

    def test_prune_keeps_the_most_recent_entries(self, tmp_path):
        import os

        from repro.api import prune_cache

        specs = self.specs()
        run_many(specs, cache=False, cache_dir=tmp_path)
        assert len(self.entries(tmp_path)) == 5
        # Make use-order unambiguous regardless of filesystem mtime
        # granularity, oldest first.
        for index, spec in enumerate(specs):
            path = tmp_path / f"{spec.fingerprint()}.json"
            os.utime(path, ns=(10**9 * index, 10**9 * index))
        removed = prune_cache(tmp_path, 2)
        assert removed == 3
        survivors = self.entries(tmp_path)
        assert survivors == sorted(
            f"{spec.fingerprint()}.json" for spec in specs[-2:]
        )

    def test_prune_budget_larger_than_store_is_a_no_op(self, tmp_path):
        from repro.api import prune_cache

        run_many(self.specs(3), cache=False, cache_dir=tmp_path)
        assert prune_cache(tmp_path, 10) == 0
        assert len(self.entries(tmp_path)) == 3

    def test_prune_zero_empties_the_store(self, tmp_path):
        from repro.api import prune_cache

        run_many(self.specs(3), cache=False, cache_dir=tmp_path)
        assert prune_cache(tmp_path, 0) == 3
        assert self.entries(tmp_path) == []

    def test_prune_missing_directory_is_a_no_op(self, tmp_path):
        from repro.api import prune_cache

        assert prune_cache(tmp_path / "absent", 3) == 0

    def test_prune_negative_budget_raises(self, tmp_path):
        from repro.api import prune_cache

        with pytest.raises(ValueError):
            prune_cache(tmp_path, -1)

    def test_cache_max_entries_bounds_run_many(self, tmp_path):
        results = run_many(
            self.specs(5), cache=False, cache_dir=tmp_path, cache_max_entries=2
        )
        assert len(results) == 5
        assert len(self.entries(tmp_path)) == 2

    def test_cache_max_entries_bounds_single_runs(self, tmp_path):
        for spec in self.specs(4):
            run(spec, cache=False, cache_dir=tmp_path, cache_max_entries=3)
        assert len(self.entries(tmp_path)) == 3

    def test_hits_refresh_recency(self, tmp_path):
        import os

        from repro.api import prune_cache

        specs = self.specs(3)
        run_many(specs, cache=False, cache_dir=tmp_path)
        for index, spec in enumerate(specs):
            path = tmp_path / f"{spec.fingerprint()}.json"
            os.utime(path, ns=(10**9 * index, 10**9 * index))
        # Touch the *oldest* entry via a cache hit; it must now outrank
        # the untouched middle entry.
        oldest = specs[0]
        hit = run(oldest, cache=False, cache_dir=tmp_path)
        assert hit.result_fingerprint()
        prune_cache(tmp_path, 2)
        survivors = self.entries(tmp_path)
        assert f"{oldest.fingerprint()}.json" in survivors
        assert f"{specs[1].fingerprint()}.json" not in survivors

    def test_memory_hits_refresh_recency(self, tmp_path):
        import os

        from repro.api import prune_cache

        first, second = self.specs(2)
        run_many([first, second], cache_dir=tmp_path)
        for index, spec in enumerate((first, second)):
            path = tmp_path / f"{spec.fingerprint()}.json"
            os.utime(path, ns=(10**9 * index, 10**9 * index))
        # A memory hit on the older entry must refresh it on disk too.
        assert run(first, cache_dir=tmp_path) is run(first)
        prune_cache(tmp_path, 1)
        assert self.entries(tmp_path) == [f"{first.fingerprint()}.json"]

    def test_a_memory_hit_keeps_the_cap(self, tmp_path):
        first, second = self.specs(2)
        for spec in (first, second, first):
            run(spec, cache_dir=tmp_path, cache_max_entries=1)
        # The memory hit stored its pruned entry again, then pruned.
        assert self.entries(tmp_path) == [f"{first.fingerprint()}.json"]

    def test_pruned_specs_simply_rerun(self, tmp_path):
        from repro.api import prune_cache

        specs = self.specs(3)
        first = run_many(specs, cache=False, cache_dir=tmp_path)
        prune_cache(tmp_path, 0)
        second = run_many(specs, cache=False, cache_dir=tmp_path)
        assert [r.result_fingerprint() for r in first] == [
            r.result_fingerprint() for r in second
        ]

    def test_cache_max_entries_holds_when_streaming_stops_early(self, tmp_path):
        # A consumer that breaks out of run_many_iter closes the
        # generator; the cap must be enforced anyway.
        iterator = run_many_iter(
            self.specs(4), cache=False, cache_dir=tmp_path, cache_max_entries=1
        )
        next(iterator)
        iterator.close()
        assert len(self.entries(tmp_path)) <= 1


def held_edges() -> int:
    return sum(len(result.coloring) for result in runner._RESULT_CACHE.values())


class TestResultCacheBudget:
    """The in-process cache is an LRU bounded in coloring entries."""

    def specs(self, count):
        # Distinct fingerprints, six coloring entries each.
        return [
            RunSpec(
                InstanceSpec(family="cycle", size=6, seed=1),
                algorithm="greedy_sequential",
                run_seed=index,
            )
            for index in range(count)
        ]

    def test_a_sweep_holds_at_most_the_budget(self, monkeypatch):
        monkeypatch.setattr(runner, "RESULT_CACHE_EDGES", 3 * 6)
        specs = self.specs(8)
        run_many(specs)
        assert result_cache_size() == 3
        assert list(runner._RESULT_CACHE) == [
            spec.fingerprint() for spec in specs[-3:]
        ]
        assert held_edges() == runner._result_cache_edges == 18

    def test_a_reused_result_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(runner, "RESULT_CACHE_EDGES", 3 * 6)
        specs = self.specs(8)
        kept = run(specs[0])
        for spec in specs[1:]:
            run(spec)
            assert run(specs[0]) is kept  # a hit, never re-solved
            assert held_edges() <= runner.RESULT_CACHE_EDGES
        assert specs[0].fingerprint() in runner._RESULT_CACHE
        assert specs[1].fingerprint() not in runner._RESULT_CACHE

    def test_an_over_budget_result_is_not_held(self, monkeypatch):
        monkeypatch.setattr(runner, "RESULT_CACHE_EDGES", 5)
        spec = self.specs(1)[0]
        first = run(spec)
        assert result_cache_size() == 0
        assert run(spec) is not first
        assert runner._result_cache_edges == 0

    def test_concurrent_threads_leave_it_consistent(self, monkeypatch):
        monkeypatch.setattr(runner, "RESULT_CACHE_EDGES", 5 * 6)
        results = {
            spec.fingerprint(): run(spec, cache=False) for spec in self.specs(12)
        }
        fingerprints = list(results)
        barrier = threading.Barrier(8)
        wrong = []

        def hammer(offset):
            barrier.wait()
            try:
                for step in range(3000):
                    fingerprint = fingerprints[(offset + step) % len(fingerprints)]
                    runner._cache_store(fingerprint, results[fingerprint])
                    probe = fingerprints[(offset * 5 + step) % len(fingerprints)]
                    found = runner._cache_lookup(probe)
                    if found is not None and found is not results[probe]:
                        wrong.append(probe)
            except Exception as exc:
                wrong.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(offset,)) for offset in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert held_edges() == runner._result_cache_edges <= 30
        assert all(
            runner._RESULT_CACHE[fingerprint] is results[fingerprint]
            for fingerprint in runner._RESULT_CACHE
        )


@pytest.mark.parametrize(
    "family, size",
    [("random_regular", 6), ("complete_bipartite", 6), ("grid", 4)],
)
def test_different_run_seeds_give_different_colorings(family, size):
    digests = set()
    for run_seed in (1, 2, 3):
        spec = RunSpec(
            InstanceSpec(family=family, size=size, seed=1),
            algorithm="bko20",
            run_seed=run_seed,
        )
        coloring = sorted(run(spec, cache=False).coloring.items())
        digests.add(hashlib.sha256(repr(coloring).encode()).hexdigest())
    assert len(digests) == 3
