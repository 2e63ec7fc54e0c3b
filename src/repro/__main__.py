"""Command-line interface: ``python -m repro <command>``.

A thin shell over :mod:`repro.api` — instances, algorithms, and
parameter policies all resolve through the same registries the library
exposes programmatically.  ``solve`` goes through the spec-driven
batch executor (so its runs are fingerprinted and cached); ``race``
drives the unified registry via the sweep harness, and ``info`` /
``list`` only read the registries.

Commands
--------
``solve``
    Color the edges of a graph (from an edge-list file or a generated
    family) with the paper's algorithm; optionally write the coloring.
``race``
    Run every registered algorithm — the paper solver included — on
    one instance and print the round table.
``scenario``
    Run a scenario-capable algorithm under an adversarial execution
    model (asynchrony, crash faults, message loss) and print the
    degradation observables.
``info``
    Print instance measurements (n, m, Δ, Δ̄, palette sizes).
``list``
    Print the registries: instance families, algorithms, policies —
    and, with ``--scenarios``, the execution models.
``bench-core``
    Benchmark the simulation core (reference loop vs fast path) and
    write the perf-trajectory record ``BENCH_scheduler.json``.
``cache-prune``
    Evict least-recently-used entries of an on-disk result cache.
``shard``
    The cluster layer's coordinator verbs (:mod:`repro.cluster`):
    ``plan`` a spec batch into a sharded job directory (``--shards
    auto`` sizes the count to CPUs and batch length), print a job's
    ``status`` (done / running / stale / pending shards, with
    per-shard wall-clock and specs/sec; ``--watch N`` refreshes the
    live dashboard every N seconds), ``merge`` a completed job
    into the ordered result list, ``retry-failed`` re-queue the job's
    quarantined specs (``--drain`` re-runs them in-process, optionally
    under a fresh failure policy).
``worker``
    Drain claimable shards of a job directory through the batch
    executor — run any number of these, on any machine that shares
    the directory.  ``--on-error capture`` (the default) quarantines
    poison specs as dead letters instead of dying; ``--retries`` /
    ``--backoff-s`` / ``--timeout-s`` set the failure policy.
``serve``
    The HTTP experiment service (:mod:`repro.service`): idempotent
    ``POST /v1/run`` (identical concurrent requests coalesce onto one
    solve), streaming sharded jobs (``POST /v1/jobs`` + NDJSON
    ``GET /v1/jobs/<id>/stream``), a resumable live job event stream
    (``GET /v1/jobs/<id>/events?after=<cursor>``), registry / health /
    metrics endpoints (``GET /v1/metrics?format=prometheus`` for the
    text exposition).
``report``
    The fleet rollup (:mod:`repro.telemetry`): aggregate a job's (or
    any) run-ledger directory into per-algorithm/per-scenario latency
    percentiles, cache-hit and retry rates, per-worker throughput,
    ledger-driven retry advice, and the dead-letter summary;
    ``--flame`` adds the span flame rollup (self/total time by call
    path, critical path).
``top``
    Refreshing terminal dashboard over a running sharded job — local
    job directory or service job URL: per-shard state, per-worker
    throughput, retry / cache-hit / dead-letter counters, recent
    events, and an ETA from observed throughput.

``solve``, ``race``, ``scenario``, ``info``, ``list``, ``cache-prune``,
``shard``, ``worker`` and ``report`` accept ``--json`` for
machine-readable output.

Examples::

    python -m repro solve --family complete_bipartite --size 8
    python -m repro solve --input graph.txt --output colors.txt
    python -m repro race --family random_regular --size 6 --json
    python -m repro scenario --family grid --size 4 --model lossy_links \\
        --set drop=0.2 --scenario-seed 7
    python -m repro info --input graph.txt
    python -m repro list --scenarios
    python -m repro bench-core --output BENCH_scheduler.json
    python -m repro cache-prune --cache-dir results/ --max-entries 500
    python -m repro shard plan --specs sweep.json --job-dir jobs/sweep \\
        --shards 4
    python -m repro worker jobs/sweep
    python -m repro shard status --job-dir jobs/sweep
    python -m repro shard merge --job-dir jobs/sweep --output results.json
    python -m repro shard retry-failed --job-dir jobs/sweep --drain \\
        --retries 2 --timeout-s 30
    python -m repro shard status --job-dir jobs/sweep --watch 2
    python -m repro top jobs/sweep
    python -m repro top http://127.0.0.1:8000/v1/jobs/<id>
    python -m repro report jobs/sweep
    python -m repro report jobs/sweep --flame
    python -m repro serve --port 8000 --data-dir service-data
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api import (
    InstanceSpec,
    RunSpec,
    ScenarioSpec,
    algorithm_registry,
    prune_cache,
    run,
    specs_for_race,
)
from repro.analysis.harness import run_race_sweep
from repro.analysis.tables import format_series, format_table
from repro.core.params import named_policies
from repro.errors import ClusterError
from repro.graphs.families import family_registry
from repro.graphs.io import write_coloring
from repro.graphs.properties import graph_summary
from repro.scenarios import model_names, scenario_capable, scenario_registry


def _instance_spec(args: argparse.Namespace) -> InstanceSpec:
    if args.input:
        return InstanceSpec(path=args.input, seed=args.seed)
    if args.family:
        return InstanceSpec(family=args.family, size=args.size, seed=args.seed)
    raise SystemExit("provide --input FILE or --family NAME")


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="edge-list file (one 'u v' per line)")
    parser.add_argument(
        "--family",
        choices=sorted(family_registry()),
        help="generated instance family (see 'repro list')",
    )
    parser.add_argument(
        "--size", type=int, default=8, help="family size parameter (default 8)"
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="generator / ID seed (default 1)"
    )


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )


def _print_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=repr))


def _command_solve(args: argparse.Namespace) -> int:
    spec = RunSpec(
        instance=_instance_spec(args),
        algorithm="bko20",
        policy=args.policy,
    )
    result = run(spec)  # validated (properness + palette bound) inside
    if args.json:
        payload = {"spec": spec.to_dict(), "result": result.to_dict()}
        _print_json(payload)
    else:
        print(
            f"colored {len(result.coloring)} edges with "
            f"{result.colors_used()} colors "
            f"(bound 2Δ-1 = {result.palette_size}) in "
            f"{result.rounds} LOCAL rounds [policy: {result.policy_name}]"
        )
        if args.breakdown and result.ledger is not None:
            print(result.ledger.breakdown(max_depth=args.breakdown))
    if args.output:
        write_coloring(result.coloring, args.output)
        if not args.json:
            print(f"coloring written to {args.output}")
    return 0


def _command_race(args: argparse.Namespace) -> int:
    instance = _instance_spec(args)
    graph = instance.build()
    summary = graph_summary(graph)
    # Algorithm list comes from the unified registry (None = everyone,
    # the paper solver included as its own entrant).
    sweep = run_race_sweep(
        [(summary.max_edge_degree, graph)], algorithms=None, seed=args.seed
    )
    if args.json:
        _print_json(
            {
                "instance": instance.to_dict(),
                "x_label": "Δ̄",
                "xs": sweep.xs(),
                "series": {
                    name: sweep.series(name) for name in sweep.series_names()
                },
            }
        )
    else:
        series = {name: sweep.series(name) for name in sweep.series_names()}
        print(format_series("Δ̄", sweep.xs(), series, title="measured LOCAL rounds"))
    return 0


def _parse_model_params(pairs: list[str]) -> dict[str, object]:
    """Parse ``--set key=value`` pairs (ints, then floats, then strings)."""
    params: dict[str, object] = {}
    for pair in pairs:
        key, separator, text = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        value: object = text
        try:
            value = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                pass
        params[key] = value
    return params


def _command_scenario(args: argparse.Namespace) -> int:
    spec = RunSpec(
        instance=_instance_spec(args),
        algorithm=args.algorithm,
        scenario=ScenarioSpec(
            model=args.model,
            seed=args.scenario_seed,
            params=_parse_model_params(args.set),
        ),
    )
    result = run(spec)  # survivor-validated inside for adversarial models
    if args.json:
        _print_json({"spec": spec.to_dict(), "result": result.to_dict()})
        return 0
    details = result.details
    scenario = details.get("scenario")
    if scenario is None:
        # Identity model: the run took the plain path, bit-for-bit.
        print(
            f"synchronous (identity) run: {len(result.coloring)} edges, "
            f"{result.colors_used()} colors, {result.rounds} rounds "
            f"[fingerprint {result.fingerprint[:12]}]"
        )
        return 0
    measures = [
        ("model", scenario["model"]),
        ("adversary seed", scenario["seed"]),
        ("params", ", ".join(f"{k}={v}" for k, v in sorted(scenario["params"].items())) or "-"),
        ("rounds to quiescence", details["rounds_to_quiescence"]),
        ("messages delivered", details["messages_delivered"]),
        ("messages dropped", details["messages_dropped"]),
        ("messages deferred", details["messages_deferred"]),
        ("messages duplicated", details["messages_duplicated"]),
        ("undelivered at finish", details["undelivered_at_finish"]),
        ("crashed agents", details["crashed_count"]),
        # Survivor fields are null on aborted runs (no per-agent outcome).
        ("survivors", "unknown" if details["survivors"] is None else details["survivors"]),
        ("uncolored survivors", "unknown" if details["uncolored_survivors"] is None else details["uncolored_survivors"]),
        ("conflicts on survivors", details["conflicts_on_survivors"]),
        ("proper on survivors", details["proper_on_survivors"]),
        ("aborted", details["aborted"] or "-"),
    ]
    print(
        format_table(
            ["observable", "value"],
            [[label, value] for label, value in measures],
            title=f"{spec.label()} [fingerprint {result.fingerprint[:12]}]",
        )
    )
    return 0


def _command_shard(args: argparse.Namespace) -> int:
    if args.job_dir is None:
        raise SystemExit("shard actions need --job-dir DIR")
    try:
        return _shard_action(args)
    except ClusterError as exc:
        # A missing or foreign plan is misuse, not a crash.
        raise SystemExit(f"shard {args.action}: {exc}") from None


def _shard_action(args: argparse.Namespace) -> int:
    from repro.cluster import coordinator, planner

    if args.action == "plan":
        if args.shards == "auto":
            shards: int | str = "auto"
        else:
            try:
                shards = int(args.shards)
            except ValueError:
                raise SystemExit(
                    f"--shards expects an integer or 'auto', "
                    f"got {args.shards!r}"
                )
        if not args.specs:
            raise SystemExit("shard plan needs --specs FILE (JSON spec list)")
        with open(args.specs) as handle:
            payload = json.load(handle)
        if not isinstance(payload, list):
            raise SystemExit(
                f"{args.specs} must hold a JSON list of RunSpec dicts"
            )
        specs = [RunSpec.from_dict(entry) for entry in payload]
        plan = planner.ensure_plan(specs, args.job_dir, shards=shards)
        if args.json:
            _print_json(
                {
                    "job_dir": args.job_dir,
                    "plan_fingerprint": plan.plan_fingerprint(),
                    "shards": plan.shards,
                    "specs": len(plan.specs),
                    "distinct_specs": len(set(plan.fingerprints)),
                }
            )
        else:
            print(
                f"planned {len(plan.specs)} specs "
                f"({len(set(plan.fingerprints))} distinct) into "
                f"{plan.shards} shards at {args.job_dir} "
                f"[plan {plan.plan_fingerprint()[:12]}]; start workers "
                f"with: python -m repro worker {args.job_dir}"
            )
        return 0
    if args.action == "status":
        if args.watch is not None:
            from repro.telemetry.top import run_top

            return run_top(
                args.job_dir,
                interval=args.watch,
                lease_ttl=args.lease_ttl,
            )
        status = coordinator.job_status(args.job_dir, lease_ttl=args.lease_ttl)
        if args.json:
            _print_json(status)
        else:
            print(
                f"job {args.job_dir} [plan "
                f"{status['plan_fingerprint'][:12]}]: "
                f"{len(status['done'])}/{status['shards']} shards done "
                f"({status['specs_done']}/{status['distinct_specs']} "
                f"distinct specs), {len(status['running'])} running, "
                f"{len(status['stale'])} stale, "
                f"{len(status['pending'])} pending, "
                f"{len(status['failed'])} specs quarantined"
            )
            from repro.telemetry.top import shard_progress_table

            print(shard_progress_table(status))
            for fingerprint, failure in status["failed"].items():
                print(
                    f"  failed {fingerprint[:12]}: "
                    f"{failure['error_type']}: {failure['error_message']} "
                    f"({failure['attempts']} attempts)"
                )
            for event in status["worker_events"]:
                print(f"  worker event: {event}")
        return 0
    if args.action == "retry-failed":
        summary = coordinator.retry_failed(
            args.job_dir, fingerprints=args.fingerprint or None
        )
        drained = None
        if args.drain and summary["requeued"]:
            from repro.cluster import work_loop

            drained = work_loop(
                args.job_dir,
                lease_ttl=args.lease_ttl,
                on_error=_failure_policy(args),
            )
        if args.json:
            _print_json({**summary, "drained": drained})
        else:
            if not summary["requeued"]:
                print(
                    f"no quarantined specs to retry in {args.job_dir}"
                    + (
                        ""
                        if not summary["remaining_failures"]
                        else " (matching --fingerprint filters)"
                    )
                )
            else:
                requeued = ", ".join(f[:12] for f in summary["requeued"])
                print(
                    f"re-queued {len(summary['requeued'])} quarantined "
                    f"specs ({requeued}) — reset shards "
                    f"{summary['shards_reset']} of {args.job_dir}"
                )
            if drained is not None:
                print(
                    f"  drained in-process: {drained['specs_run']} specs "
                    f"re-run across shards {drained['completed']}; "
                    + (
                        "job complete"
                        if drained["job_complete"]
                        else f"shards {drained['outstanding']} outstanding"
                    )
                )
            elif summary["requeued"]:
                print(
                    "  re-run them with: python -m repro worker "
                    f"{args.job_dir}  (or shard retry-failed --drain)"
                )
            if summary["requeued"]:
                # Ledger-driven retry advice: if flaky specs previously
                # recovered on retry, say what budget was enough.
                try:
                    from repro.telemetry import rollup as _rollup

                    advice = _rollup(args.job_dir).get("retry_advice") or {}
                except Exception:
                    advice = {}
                suggested = advice.get("suggested_retries", 0)
                if suggested:
                    print(
                        f"  retry advice: flaky specs recovered within "
                        f"{suggested} retr"
                        f"{'y' if suggested == 1 else 'ies'} — try "
                        f"--retries {suggested} (details: python -m repro "
                        f"report {args.job_dir})"
                    )
                else:
                    print(
                        "  retry advice: no flaky recovery in the ledger "
                        "yet — python -m repro report "
                        f"{args.job_dir} breaks down flaky vs poison rates"
                    )
        return 0
    # merge
    results = coordinator.merge_results(None, args.job_dir)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(
                [result.to_dict() for result in results],
                handle,
                sort_keys=True,
                default=repr,
            )
    failures = sum(1 for result in results if result.is_failure())
    if args.json:
        _print_json(
            {
                "job_dir": args.job_dir,
                "results": len(results),
                "failures": failures,
                "result_fingerprints": [
                    result.result_fingerprint() for result in results
                ],
                "output": args.output,
            }
        )
    else:
        print(
            f"merged {len(results)} results from {args.job_dir}"
            + (f" ({failures} captured failures)" if failures else "")
            + (f" -> {args.output}" if args.output else "")
        )
        for result in results:
            marker = "FAILED " if result.is_failure() else ""
            print(
                f"  {marker}{result.result_fingerprint()[:12]}  {result.name}"
            )
    return 0


def _failure_policy(args: argparse.Namespace) -> "object":
    from repro.api import FailurePolicy

    return FailurePolicy(
        on_error=args.on_error,
        retries=args.retries,
        backoff_s=args.backoff_s,
        timeout_s=args.timeout_s,
    )


def _command_worker(args: argparse.Namespace) -> int:
    from repro.cluster import work_loop
    from repro.faults import install_from_env

    # A coordinator running a chaos schedule ships its fault plan in
    # the environment; ordinary workers find nothing and install nothing.
    install_from_env()
    summary = work_loop(
        args.job_dir,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        on_error=_failure_policy(args),
    )
    if args.json:
        _print_json(summary)
    else:
        outstanding = summary["outstanding"]
        print(
            f"worker {summary['worker']} drained "
            f"{len(summary['completed'])} shards "
            f"({summary['specs_run']} specs run) from {args.job_dir}; "
            + (
                "job complete"
                if summary["job_complete"]
                else f"shards {outstanding} still outstanding "
                     "(leased to live workers)"
            )
        )
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.telemetry import format_report, rollup

    summary = rollup(args.dir)
    flame = None
    if args.flame:
        from repro.telemetry import flame_rollup

        flame = flame_rollup(args.dir)
        summary = {**summary, "flame": flame}
    if args.json:
        _print_json(summary)
        return 0
    if summary["run_records"] == 0:
        print(
            f"no run records under {summary['ledger_dir']} — "
            "run the job with the ledger on (cluster workers default it "
            "on; pass ledger_dir=/ledger_context() elsewhere)"
        )
        return 1
    print(format_report(summary))
    if flame is not None:
        from repro.telemetry import format_flame

        print()
        print(format_flame(flame))
    return 0


def _command_top(args: argparse.Namespace) -> int:
    from repro.telemetry.top import run_top

    return run_top(
        args.target,
        interval=args.interval,
        once=args.once,
        lease_ttl=args.lease_ttl,
    )


def _command_cache_prune(args: argparse.Namespace) -> int:
    removed = prune_cache(args.cache_dir, args.max_entries)
    if args.json:
        _print_json(
            {
                "cache_dir": args.cache_dir,
                "max_entries": args.max_entries,
                "removed": removed,
            }
        )
    else:
        print(
            f"pruned {removed} least-recently-used entries from "
            f"{args.cache_dir} (budget {args.max_entries})"
        )
    return 0


def _command_info(args: argparse.Namespace) -> int:
    instance = _instance_spec(args)
    summary = graph_summary(instance.build())
    measures = [
        ("nodes (n)", summary.nodes),
        ("edges (m)", summary.edges),
        ("max degree (Δ)", summary.max_degree),
        ("max edge degree (Δ̄)", summary.max_edge_degree),
        ("greedy palette (2Δ-1)", summary.greedy_palette_size),
    ]
    if args.json:
        _print_json(
            {
                "instance": instance.to_dict(),
                "fingerprint": instance.fingerprint(),
                "measures": dict(measures),
            }
        )
    else:
        print(
            format_table(
                ["measure", "value"],
                [[label, value] for label, value in measures],
            )
        )
    return 0


def _command_list(args: argparse.Namespace) -> int:
    families = family_registry()
    algorithms = algorithm_registry()
    policies = sorted(named_policies())
    if args.json:
        payload = {
            "families": {
                name: {
                    "size_meaning": family.size_meaning,
                    "description": family.description,
                }
                for name, family in sorted(families.items())
            },
            "algorithms": {
                name: {
                    "kind": info.kind,
                    "label": info.label,
                    "description": info.description,
                }
                for name, info in algorithms.items()
            },
            "policies": policies,
        }
        if args.scenarios:
            payload["scenarios"] = {
                name: {
                    "identity": model.identity,
                    "description": model.description,
                    "params": dict(model.param_docs),
                }
                for name, model in scenario_registry().items()
            }
            payload["scenario_capable_algorithms"] = scenario_capable()
        _print_json(payload)
        return 0
    if args.scenarios:
        print(
            format_table(
                ["model", "parameters", "description"],
                [
                    [
                        name,
                        ", ".join(sorted(model.param_docs)) or "-",
                        model.description,
                    ]
                    for name, model in scenario_registry().items()
                ],
                title="execution models (scenario --model / ScenarioSpec.model)",
            )
        )
        print()
        print(
            format_table(
                ["algorithm"],
                [[name] for name in scenario_capable()],
                title="scenario-capable algorithms (have a message-passing program)",
            )
        )
        print()
    print(
        format_table(
            ["family", "size parameter"],
            [[name, families[name].size_meaning] for name in sorted(families)],
            title="instance families (--family)",
        )
    )
    print()
    print(
        format_table(
            ["algorithm", "kind", "description"],
            [
                [name, info.kind, info.description]
                for name, info in algorithms.items()
            ],
            title="algorithms (race entrants / RunSpec.algorithm)",
        )
    )
    print()
    print(
        format_table(
            ["policy"],
            [[name] for name in policies],
            title="parameter policies (--policy, paper solver only)",
        )
    )
    return 0


def _command_bench_core(args: argparse.Namespace) -> int:
    from repro.analysis.bench_core import write_bench_core, write_profile

    if args.profile:
        # Profile-only mode: cProfile the scheduler's hot loop and write
        # the sidecar next to the record; the record itself is not
        # rewritten (pair with a plain bench-core run for that).
        sidecar = write_profile(args.output, quick=args.quick)
        print(f"profile sidecar written to {sidecar}")
        return 0
    record = write_bench_core(
        args.output, repeats=args.repeats, quick=args.quick
    )
    headline = record["largest_race_instance"]
    print(
        f"scheduler core on {headline['instance']}: "
        f"{headline['before']['wall_clock_s']:.4f}s -> "
        f"{headline['after']['wall_clock_s']:.4f}s "
        f"({headline['speedup']:.1f}x speedup, "
        f"{headline['after']['messages_per_s']:,.0f} messages/s), "
        f"identical results: {headline['identical_results']}"
    )
    print(f"perf record written to {args.output}")
    return 0 if headline["identical_results"] else 1


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import ReproService, make_server

    service = ReproService(
        args.data_dir,
        cache_max_entries=args.cache_max_entries,
        max_local_workers=args.max_local_workers,
    )
    server = make_server(service, host=args.host, port=args.port, quiet=False)
    host, port = server.server_address[:2]
    print(
        f"repro service listening on http://{host}:{port} "
        f"(data dir {args.data_dir}); Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed edge coloring (Balliu-Kuhn-Olivetti, PODC 2020)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="color a graph's edges")
    _add_instance_arguments(solve)
    solve.add_argument(
        "--policy", choices=sorted(named_policies()), default="scaled",
        help="parameter policy (default: scaled)",
    )
    solve.add_argument("--output", help="write the coloring to this file")
    solve.add_argument(
        "--breakdown", type=int, default=0, metavar="DEPTH",
        help="print the round-ledger tree to this depth",
    )
    _add_json_argument(solve)
    solve.set_defaults(handler=_command_solve)

    race = commands.add_parser(
        "race", help="compare all registered algorithms (paper solver included)"
    )
    _add_instance_arguments(race)
    _add_json_argument(race)
    race.set_defaults(handler=_command_race)

    scenario = commands.add_parser(
        "scenario",
        help="run an algorithm under an adversarial execution model",
    )
    _add_instance_arguments(scenario)
    scenario.add_argument(
        "--algorithm", default="greedy_sequential",
        help="scenario-capable algorithm (see 'repro list --scenarios'; "
             "default: greedy_sequential)",
    )
    scenario.add_argument(
        "--model", choices=model_names(), default="lossy_links",
        help="execution model (default: lossy_links)",
    )
    scenario.add_argument(
        "--scenario-seed", type=int, default=0,
        help="adversary seed — fixes the drop/crash/quota schedule "
             "(default 0)",
    )
    scenario.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="model parameter, repeatable (e.g. --set drop=0.2 --set f=3)",
    )
    _add_json_argument(scenario)
    scenario.set_defaults(handler=_command_scenario)

    info = commands.add_parser("info", help="print instance measurements")
    _add_instance_arguments(info)
    _add_json_argument(info)
    info.set_defaults(handler=_command_info)

    listing = commands.add_parser(
        "list", help="print the family / algorithm / policy registries"
    )
    listing.add_argument(
        "--scenarios", action="store_true",
        help="also list execution models and scenario-capable algorithms",
    )
    _add_json_argument(listing)
    listing.set_defaults(handler=_command_list)

    shard = commands.add_parser(
        "shard",
        help="plan / inspect / merge / retry a sharded multi-worker job",
    )
    shard.add_argument(
        "action",
        choices=["plan", "status", "merge", "retry-failed"],
        help="coordinator verb",
    )
    shard.add_argument(
        "--job-dir",
        help="shared job directory all workers coordinate through",
    )
    shard.add_argument(
        "--specs", metavar="FILE",
        help="plan: JSON file holding a list of RunSpec dicts",
    )
    shard.add_argument(
        "--shards", default="2",
        help="plan: number of work units to split the batch into, or "
             "'auto' to size from CPU count and batch length (default 2)",
    )
    shard.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="status / retry-failed --drain: seconds without a heartbeat "
             "before a lease counts as stale (default 60)",
    )
    shard.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="status: refresh the live dashboard (the `repro top` "
             "renderer) every SECONDS until the job completes",
    )
    shard.add_argument(
        "--output", metavar="FILE",
        help="merge: also write the ordered result dicts to this JSON file",
    )
    shard.add_argument(
        "--fingerprint", action="append", metavar="FP",
        help="retry-failed: restrict to this quarantined spec "
             "fingerprint (repeatable; default: all)",
    )
    shard.add_argument(
        "--drain", action="store_true",
        help="retry-failed: immediately re-run the re-queued specs "
             "in-process (under --on-error/--retries/--backoff-s/"
             "--timeout-s)",
    )
    shard.add_argument(
        "--on-error", choices=["raise", "capture"], default="capture",
        help="retry-failed --drain: failure policy (default: capture)",
    )
    shard.add_argument(
        "--retries", type=int, default=0,
        help="retry-failed --drain: extra attempts per failing spec "
             "(default 0)",
    )
    shard.add_argument(
        "--backoff-s", type=float, default=0.0,
        help="retry-failed --drain: base seconds of deterministic "
             "backoff between attempts (default 0)",
    )
    shard.add_argument(
        "--timeout-s", type=float, default=None,
        help="retry-failed --drain: per-attempt wall-clock budget "
             "(default: none)",
    )
    _add_json_argument(shard)
    shard.set_defaults(handler=_command_shard)

    worker = commands.add_parser(
        "worker",
        help="drain claimable shards of a job directory (run many of these)",
    )
    worker.add_argument(
        "job_dir",
        help="the shared job directory (see 'repro shard plan')",
    )
    worker.add_argument(
        "--worker-id",
        help="lease identity (default: hostname:pid)",
    )
    worker.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="seconds without a heartbeat before a foreign lease may be "
             "reclaimed (default 60)",
    )
    worker.add_argument(
        "--on-error", choices=["raise", "capture"], default="capture",
        help="failure policy: capture quarantines poison specs as dead "
             "letters; raise dies on the first failure (default: capture)",
    )
    worker.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per failing spec (default 0)",
    )
    worker.add_argument(
        "--backoff-s", type=float, default=0.0,
        help="base seconds of deterministic backoff between attempts "
             "(doubles per retry; default 0 = immediate)",
    )
    worker.add_argument(
        "--timeout-s", type=float, default=None,
        help="per-attempt wall-clock budget in seconds (default: none)",
    )
    _add_json_argument(worker)
    worker.set_defaults(handler=_command_worker)

    report = commands.add_parser(
        "report",
        help="roll a run-ledger directory up into fleet metrics",
    )
    report.add_argument(
        "dir",
        help="a job directory (its ledger/ is found automatically) or a "
             "ledger directory itself",
    )
    report.add_argument(
        "--flame", action="store_true",
        help="also render the span flame rollup: self/total time by "
             "call path plus the critical path (with --json, adds a "
             "'flame' key)",
    )
    _add_json_argument(report)
    report.set_defaults(handler=_command_report)

    top = commands.add_parser(
        "top",
        help="refreshing live dashboard over a running sharded job",
    )
    top.add_argument(
        "target",
        help="a job directory, or a service job URL "
             "(http://host:port/v1/jobs/<id>)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    top.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="job-directory targets: lease staleness window for the "
             "shard state columns (default 60)",
    )
    top.set_defaults(handler=_command_top)

    cache = commands.add_parser(
        "cache-prune",
        help="evict least-recently-used entries of an on-disk result cache",
    )
    cache.add_argument(
        "--cache-dir", required=True,
        help="the cache directory (as passed to run/run_many cache_dir=)",
    )
    cache.add_argument(
        "--max-entries", type=int, required=True,
        help="number of most-recently-used entries to keep",
    )
    _add_json_argument(cache)
    cache.set_defaults(handler=_command_cache_prune)

    bench = commands.add_parser(
        "bench-core",
        help="benchmark the simulation core and record BENCH_scheduler.json",
    )
    bench.add_argument(
        "--output", default="BENCH_scheduler.json",
        help="record file to write (default: BENCH_scheduler.json)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per measurement, best-of (default 3)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller instances / fewer repeats (for quick checks)",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="cProfile the scheduler's hot loop and write the "
             "<record>_profile.txt sidecar instead of the record",
    )
    bench.set_defaults(handler=_command_bench_core)

    serve = commands.add_parser(
        "serve",
        help="run the idempotent HTTP experiment service",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8000,
        help="port to bind, 0 for ephemeral (default 8000)",
    )
    serve.add_argument(
        "--data-dir", default="service-data",
        help="root for the result cache and job directories "
             "(default service-data)",
    )
    serve.add_argument(
        "--max-local-workers", type=int, default=2,
        help="cap on worker subprocesses a job may request (default 2)",
    )
    serve.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="LRU budget for the single-run cache (default: unbounded)",
    )
    serve.set_defaults(handler=_command_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
