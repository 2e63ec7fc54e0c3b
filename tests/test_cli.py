"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.bench_core import validate_bench_record
from repro.graphs.io import read_coloring
from repro.coloring.verify import check_proper_edge_coloring
from repro.graphs.generators import complete_bipartite
from repro.graphs.io import write_edge_list

ROOT = Path(__file__).resolve().parent.parent


class TestSolveCommand:
    def test_solve_generated_family(self, capsys):
        assert main(["solve", "--family", "complete_bipartite", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "colored 16 edges" in out
        assert "LOCAL rounds" in out

    def test_solve_from_file_with_output(self, tmp_path, capsys):
        graph = complete_bipartite(3, 3)
        graph_path = tmp_path / "g.txt"
        write_edge_list(graph, graph_path)
        out_path = tmp_path / "c.txt"
        assert main([
            "solve", "--input", str(graph_path), "--output", str(out_path),
        ]) == 0
        coloring = read_coloring(out_path)
        check_proper_edge_coloring(graph, coloring)

    def test_solve_with_breakdown(self, capsys):
        assert main([
            "solve", "--family", "cycle", "--size", "8", "--breakdown", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "initial Linial" in out

    @pytest.mark.parametrize("policy", ["scaled", "paper", "kuhn20", "machinery"])
    def test_all_policies(self, policy, capsys):
        assert main([
            "solve", "--family", "complete", "--size", "6",
            "--policy", policy,
        ]) == 0

    def test_requires_instance_source(self):
        with pytest.raises(SystemExit):
            main(["solve"])


class TestSolveEquivalence:
    """The spec-driven solve path matches the pre-redesign direct path."""

    def test_solve_rounds_and_coloring_match_direct_solver(self, capsys, tmp_path):
        from repro.core.params import scaled_policy
        from repro.core.solver import solve_edge_coloring

        out_path = tmp_path / "c.txt"
        assert main([
            "solve", "--family", "complete_bipartite", "--size", "4",
            "--seed", "1", "--policy", "scaled", "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        direct = solve_edge_coloring(
            complete_bipartite(4, 4), policy=scaled_policy(), seed=1
        )
        assert f"in {direct.rounds} LOCAL rounds" in out
        assert read_coloring(out_path) == direct.coloring


class TestRaceCommand:
    def test_race_prints_all_registered_algorithms(self, capsys):
        from repro.api import algorithm_registry

        assert main(["race", "--family", "complete_bipartite", "--size", "3"]) == 0
        out = capsys.readouterr().out
        assert "BKO20 (this paper)" in out
        for info in algorithm_registry().values():
            assert info.label in out

    def test_race_rounds_match_direct_runs(self, capsys):
        """Registry-routed race rounds equal the pre-redesign direct calls."""
        from repro.baselines.registry import run_baseline
        from repro.core.solver import solve_edge_coloring

        assert main([
            "race", "--family", "complete_bipartite", "--size", "3",
            "--seed", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        graph = complete_bipartite(3, 3)
        assert payload["series"]["BKO20 (this paper)"] == [
            solve_edge_coloring(graph, seed=1).rounds
        ]
        for name in ("linial_greedy", "kuhn_wattenhofer", "randomized_luby"):
            assert payload["series"][name] == [
                run_baseline(name, graph, seed=1).rounds
            ]


class TestListCommand:
    def test_list_prints_all_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "complete_bipartite" in out
        assert "bko20" in out and "randomized_luby" in out
        assert "machinery" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.baselines.registry import all_baselines
        from repro.graphs.families import family_names

        assert set(payload["families"]) == set(family_names())
        assert set(payload["algorithms"]) == {"bko20", *all_baselines()}
        assert payload["algorithms"]["bko20"]["kind"] == "paper"
        assert set(payload["policies"]) == {"scaled", "paper", "kuhn20", "machinery"}


class TestJsonOutput:
    def test_solve_json_round_trips(self, capsys):
        assert main([
            "solve", "--family", "cycle", "--size", "6", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["name"] == "bko20"
        assert payload["result"]["rounds"] > 0
        assert payload["result"]["fingerprint"]
        assert payload["spec"]["instance"]["family"] == "cycle"

    def test_info_json(self, capsys):
        assert main(["info", "--family", "star", "--size", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["measures"]["max degree (Δ)"] == 5
        assert payload["fingerprint"]


class TestBenchCoreCommand:
    def test_bench_core_writes_record(self, tmp_path, capsys, monkeypatch):
        import json

        import repro.analysis.bench_core as bench_core

        # Shrink the headline instance so the smoke test stays fast.
        monkeypatch.setattr(bench_core, "LARGEST_RACE_SIDE", 4)
        out_path = tmp_path / "BENCH_scheduler.json"
        assert main(["bench-core", "--quick", "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        record = json.loads(out_path.read_text())
        headline = record["largest_race_instance"]
        assert headline["identical_results"] is True
        assert headline["before"]["wall_clock_s"] > 0
        assert headline["after"]["wall_clock_s"] > 0
        assert headline["speedup"] > 0
        assert record["scaling_vs_n"][0]["messages_per_s"] > 0
        assert record["scaling_vs_delta"][0]["wall_clock_s"] > 0
        validate_bench_record(record)

    def test_committed_record_is_well_formed(self):
        committed = Path(__file__).resolve().parent.parent / "BENCH_scheduler.json"
        validate_bench_record(json.loads(committed.read_text()))


class TestInfoCommand:
    def test_info_measurements(self, capsys):
        assert main(["info", "--family", "star", "--size", "5"]) == 0
        out = capsys.readouterr().out
        assert "max degree (Δ)" in out
        assert "5" in out


class TestScenarioCommand:
    def test_scenario_prints_outcome_table(self, capsys):
        assert main([
            "scenario", "--family", "grid", "--size", "3",
            "--model", "crash_stop", "--set", "f=2", "--scenario-seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "rounds to quiescence" in out
        assert "crashed agents" in out
        assert "proper on survivors" in out

    def test_scenario_json_round_trips(self, capsys):
        assert main([
            "scenario", "--family", "cycle", "--size", "6",
            "--model", "lossy_links", "--set", "drop=0.2",
            "--scenario-seed", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["scenario"]["model"] == "lossy_links"
        assert payload["spec"]["scenario"]["params"]["drop"] == 0.2
        details = payload["result"]["details"]
        assert details["scenario"]["seed"] == 3
        assert "conflicts_on_survivors" in details

    def test_scenario_synchronous_takes_identity_path(self, capsys):
        assert main([
            "scenario", "--family", "cycle", "--size", "6",
            "--model", "synchronous",
        ]) == 0
        out = capsys.readouterr().out
        assert "identity" in out

    def test_scenario_bad_set_pair_exits(self):
        with pytest.raises(SystemExit):
            main([
                "scenario", "--family", "cycle", "--size", "6",
                "--model", "lossy_links", "--set", "drop",
            ])

    def test_scenario_requires_instance_source(self):
        with pytest.raises(SystemExit):
            main(["scenario", "--model", "lossy_links"])


class TestListScenarios:
    def test_list_scenarios_prints_models(self, capsys):
        assert main(["list", "--scenarios"]) == 0
        out = capsys.readouterr().out
        assert "execution models" in out
        assert "bounded_async" in out and "lossy_links" in out
        assert "greedy_sequential" in out
        # The regular registries still print after the scenario tables.
        assert "instance families" in out

    def test_list_scenarios_json(self, capsys):
        assert main(["list", "--scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["scenarios"]) == {
            "synchronous", "bounded_async", "crash_stop", "lossy_links",
        }
        assert payload["scenarios"]["synchronous"]["identity"] is True
        assert "quota" in payload["scenarios"]["bounded_async"]["params"]
        assert "greedy_sequential" in payload["scenario_capable_algorithms"]

    def test_plain_list_has_no_scenario_section(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "scenarios" not in payload


class TestCachePruneCommand:
    def test_cache_prune_reports_removed_count(self, tmp_path, capsys):
        from repro.api import InstanceSpec, RunSpec, run_many

        specs = [
            RunSpec(
                InstanceSpec(family="cycle", size=5 + index, seed=1),
                algorithm="greedy_sequential",
            )
            for index in range(4)
        ]
        run_many(specs, cache=False, cache_dir=tmp_path)
        assert main([
            "cache-prune", "--cache-dir", str(tmp_path), "--max-entries", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned 3" in out
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_cache_prune_json(self, tmp_path, capsys):
        assert main([
            "cache-prune", "--cache-dir", str(tmp_path / "absent"),
            "--max-entries", "5", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed"] == 0


class TestShardCommand:
    def specs_file(self, tmp_path, poison=False):
        specs = [
            {
                "instance": {"family": "path", "size": 6, "seed": 1},
                "algorithm": "greedy_sequential",
            },
            {
                "instance": {"family": "cycle", "size": 6, "seed": 1},
                "algorithm": "greedy_sequential",
            },
        ]
        if poison:
            specs.append(
                {
                    "instance": {"family": "path", "size": 6, "seed": 1},
                    "algorithm": "no_such_algorithm",
                }
            )
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(specs))
        return path

    def test_plan_accepts_auto_and_records_the_resolved_count(
        self, tmp_path, capsys
    ):
        assert main([
            "shard", "plan", "--job-dir", str(tmp_path / "job"),
            "--specs", str(self.specs_file(tmp_path)),
            "--shards", "auto", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload["shards"], int)
        assert 1 <= payload["shards"] <= payload["distinct_specs"]

    def test_plan_rejects_garbage_shards(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "shard", "plan", "--job-dir", str(tmp_path / "job"),
                "--specs", str(self.specs_file(tmp_path)),
                "--shards", "many",
            ])
        assert excinfo.value.code == (
            "--shards expects an integer or 'auto', got 'many'"
        )

    def test_only_plan_reads_shards(self, tmp_path, capsys):
        assert main([
            "shard", "plan", "--job-dir", str(tmp_path / "job"),
            "--specs", str(self.specs_file(tmp_path)), "--shards", "1",
        ]) == 0
        assert main([
            "shard", "status", "--job-dir", str(tmp_path / "job"),
            "--shards", "many",
        ]) == 0
        assert "0/1 shards done" in capsys.readouterr().out

    @pytest.mark.parametrize("action", ["status", "merge"])
    def test_an_unplanned_directory_is_a_one_line_error(self, tmp_path, action):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "shard", action,
             "--job-dir", str(tmp_path)],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"shard {action}: ")
        assert "manifest.json is missing" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_status_prints_the_timing_table(self, tmp_path, capsys):
        from repro.cluster import ensure_plan, work_loop
        from repro.api import RunSpec

        job = tmp_path / "job"
        specs_path = self.specs_file(tmp_path)
        specs = [
            RunSpec.from_dict(entry)
            for entry in json.loads(specs_path.read_text())
        ]
        ensure_plan(specs, job, shards=2)
        work_loop(job)
        assert main(["shard", "status", "--job-dir", str(job)]) == 0
        out = capsys.readouterr().out
        assert "wall-clock (s)" in out and "specs/s" in out
        assert "shard-0000" in out and "shard-0001" in out
        assert "2/2 shards done" in out

    def test_retry_failed_drain_round_trip(self, tmp_path, capsys):
        assert main([
            "shard", "plan", "--job-dir", str(tmp_path / "job"),
            "--specs", str(self.specs_file(tmp_path, poison=True)),
            "--shards", "1",
        ]) == 0
        from repro.cluster import work_loop

        work_loop(tmp_path / "job")
        capsys.readouterr()  # drop the plan command's output
        assert main([
            "shard", "retry-failed", "--job-dir", str(tmp_path / "job"),
            "--drain", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["requeued"]) == 1
        assert payload["drained"]["job_complete"] is True
        # The poison is still unregistered: it quarantines again.
        assert main([
            "shard", "status", "--job-dir", str(tmp_path / "job"), "--json",
        ]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True
        assert len(status["failed"]) == 1

    def test_retry_failed_without_failures_is_a_no_op(self, tmp_path, capsys):
        main([
            "shard", "plan", "--job-dir", str(tmp_path / "job"),
            "--specs", str(self.specs_file(tmp_path)), "--shards", "1",
        ])
        from repro.cluster import work_loop

        work_loop(tmp_path / "job")
        capsys.readouterr()
        assert main([
            "shard", "retry-failed", "--job-dir", str(tmp_path / "job"),
        ]) == 0
        assert "no quarantined specs" in capsys.readouterr().out


class TestValidationHasNoSwitch:
    @pytest.mark.parametrize("argv", [["worker", "job"], ["serve"]])
    def test_no_validate_is_an_argparse_error(self, argv, capsys):
        # Every result is validated; there is no opt-out flag.
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--no-validate"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-validate" in capsys.readouterr().err


class TestNoSmokeModes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "--smoke"],
            ["shard", "--smoke"],
            ["serve", "--smoke"],
            ["serve", "--json"],
            ["report", "--smoke"],
            ["bench-core", "--smoke"],
            ["chaos"],
            ["chaos", "--smoke"],
        ],
    )
    def test_removed_smoke_surface_is_an_argparse_error(self, argv, capsys):
        # The contracts these modes checked run as tests instead.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err
