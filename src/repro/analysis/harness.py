"""Experiment harness: parameter sweeps producing structured rows.

One experiment = one sweep = one printed table.  The benchmark modules
under ``benchmarks/`` are thin wrappers around these runners so the
same sweeps are scriptable outside pytest (the examples use them too).

Sweeps can capture timing: :func:`run_scaling_sweep` times an arbitrary
per-cell workload (wall-clock, rounds/sec, messages/sec), and
:func:`run_race_sweep` optionally records wall-clock per cell — the
repo's perf trajectory (``BENCH_scheduler.json``, written by
``python -m repro bench-core``) is built on these.  Batched sweeps
share one :class:`~repro.model.scheduler.RoundArena` across cells, so
the columnar engine's flat buffers are allocated once per sweep rather
than once per cell.

Algorithms resolve through the unified registry
(:mod:`repro.api.registry`) — the paper solver and every baseline via
one interface — and spec-driven sweeps are first class:
:func:`run_spec_sweep` feeds :class:`repro.api.RunSpec` batches through
the fingerprinting batch executor (optionally in parallel),
:func:`run_scenario_sweep` does the same for adversarial
execution-model specs (:mod:`repro.scenarios`) and reports the
degradation observables per cell, and :func:`spec_cells` adapts specs
into :func:`run_scaling_sweep` cells.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import networkx as nx

from repro.api.registry import (
    PAPER_ALGORITHM,
    algorithm_registry,
    get_algorithm,
)
from repro.api.runner import run_many
from repro.api.spec import RunSpec
from repro.coloring.verify import check_palette_bound, check_proper_edge_coloring
from repro.core.params import ParameterPolicy
from repro.graphs.properties import graph_summary
from repro.model.scheduler import RoundArena, shared_arena
from repro.results import RunResult


@dataclass
class ExperimentRow:
    """One row of an experiment table."""

    x: object
    values: dict[str, object] = field(default_factory=dict)


@dataclass
class SweepResult:
    """A finished sweep: ordered rows plus the series names."""

    x_label: str
    rows: list[ExperimentRow]

    def series_names(self) -> list[str]:
        names: list[str] = []
        for row in self.rows:
            for name in row.values:
                if name not in names:
                    names.append(name)
        return names

    def series(self, name: str) -> list[object]:
        return [row.values.get(name) for row in self.rows]

    def xs(self) -> list[object]:
        return [row.x for row in self.rows]


def time_best(
    thunk: Callable[[], object], repeats: int = 1
) -> tuple[float, object]:
    """Run ``thunk`` ``repeats`` times; return (best wall-clock, outcome).

    Best-of-N is the standard noise-robust wall-clock estimator.  The
    outcome is the last run's return value (all runs are assumed
    equivalent).
    """
    best = math.inf
    outcome: object = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        outcome = thunk()
        best = min(best, time.perf_counter() - start)
    return best, outcome


def throughput_columns(outcome: object, wall_clock: float) -> dict[str, object]:
    """Derive the standard timing columns for one measured workload.

    Always includes ``wall_clock_s``; outcomes exposing integer
    ``rounds`` / ``messages_sent`` — as attributes (e.g.
    :class:`~repro.model.scheduler.ExecutionResult`) or as mapping keys
    — additionally get ``rounds``/``rounds_per_s`` and
    ``messages_sent``/``messages_per_s``.
    """
    safe = max(wall_clock, 1e-9)
    columns: dict[str, object] = {"wall_clock_s": wall_clock}
    rounds = getattr(outcome, "rounds", None)
    if rounds is None and isinstance(outcome, Mapping):
        rounds = outcome.get("rounds")
    if isinstance(rounds, int):
        columns["rounds"] = rounds
        columns["rounds_per_s"] = rounds / safe
    messages = getattr(outcome, "messages_sent", None)
    if messages is None and isinstance(outcome, Mapping):
        messages = outcome.get("messages_sent")
    if isinstance(messages, int):
        columns["messages_sent"] = messages
        columns["messages_per_s"] = messages / safe
    return columns


def run_scaling_sweep(
    cells: Iterable[tuple[object, Callable[[], object]]],
    *,
    x_label: str = "n",
    repeats: int = 1,
    arena: RoundArena | None = None,
) -> SweepResult:
    """Time a workload per cell; report wall-clock and throughput.

    The whole sweep executes under one shared
    :class:`~repro.model.scheduler.RoundArena`: every scheduler a cell
    constructs (directly or deep inside a solver) leases the same flat
    delivery buffers, so per-cell setup cost is context construction
    only — the arena is allocated once, grown to the largest cell, and
    cleared when the sweep finishes.

    Parameters
    ----------
    cells:
        Iterable of ``(x_value, thunk)`` pairs.  Each thunk runs one
        cell's workload and may return anything; results exposing
        ``rounds`` / ``messages_sent`` (e.g.
        :class:`~repro.model.scheduler.ExecutionResult`) additionally
        get ``rounds_per_s`` / ``messages_per_s`` columns, and mapping
        results are merged into the row verbatim.
    x_label:
        Label of the swept parameter (``n``, ``Δ``, ...).
    repeats:
        Run each thunk this many times and keep the *minimum*
        wall-clock (the standard noise-robust estimator).
    arena:
        Reuse this arena instead of a sweep-private one (for callers
        batching several sweeps back to back).
    """
    rows: list[ExperimentRow] = []
    with shared_arena(arena):
        for x_value, thunk in cells:
            best, outcome = time_best(thunk, repeats)
            row = ExperimentRow(x=x_value)
            row.values.update(throughput_columns(outcome, best))
            if isinstance(outcome, Mapping):
                row.values.update(outcome)
            rows.append(row)
    return SweepResult(x_label=x_label, rows=rows)


def run_race_sweep(
    graphs: Iterable[tuple[object, nx.Graph]],
    *,
    algorithms: Sequence[str] | None = None,
    paper_policy: ParameterPolicy | None = None,
    seed: int = 2,
    capture_timing: bool = False,
) -> SweepResult:
    """Run every algorithm on every graph; report rounds per cell.

    Parameters
    ----------
    graphs:
        Iterable of ``(x_value, graph)`` pairs, e.g. a Δ sweep.
    algorithms:
        Names from the unified registry (:mod:`repro.api.registry`) to
        include alongside the paper solver (default: every baseline).
        The paper solver always races as its own column; naming it
        here is allowed but adds nothing.
    paper_policy:
        Policy for the paper's algorithm column — a
        :class:`~repro.core.params.ParameterPolicy` or a registered
        policy name (default policy when ``None``).
    seed:
        ID-assignment seed shared by all runs.
    capture_timing:
        Record wall-clock seconds per cell (all algorithms of the
        cell, excluding validation) in a ``wall_clock_s`` column.
    """
    registry = algorithm_registry()
    if algorithms is None:
        names = [n for n, a in sorted(registry.items()) if a.kind == "baseline"]
    else:
        names = [n for n in algorithms if n != PAPER_ALGORITHM]
    entries = [registry[PAPER_ALGORITHM]] + [get_algorithm(n) for n in names]
    rows: list[ExperimentRow] = []
    for x_value, graph in graphs:
        summary = graph_summary(graph)
        row = ExperimentRow(x=x_value)
        row.values["n"] = summary.nodes
        row.values["Δ̄"] = summary.max_edge_degree
        cell_clock = 0.0
        for entry in entries:
            policy = paper_policy if entry.kind == "paper" else None
            start = time.perf_counter()
            result: RunResult = entry.run(graph, seed=seed, policy=policy)
            cell_clock += time.perf_counter() - start
            check_proper_edge_coloring(graph, result.coloring)
            check_palette_bound(
                result.coloring,
                result.palette_size or summary.greedy_palette_size,
            )
            row.values[entry.label] = result.rounds
        if capture_timing:
            row.values["wall_clock_s"] = cell_clock
        rows.append(row)
    return SweepResult(x_label="x", rows=rows)


def run_spec_sweep(
    specs: Sequence[RunSpec],
    *,
    parallel: int = 1,
    x_label: str = "spec",
) -> SweepResult:
    """Run a batch of specs through the executor; one row per spec.

    The spec-driven sibling of :func:`run_race_sweep`: the instance /
    algorithm / policy tables live in the specs (serializable,
    fingerprinted), and ``parallel > 1`` fans the batch out over a
    process pool via :func:`repro.api.run_many` with identical
    results.  Serial batches run under one shared
    :class:`~repro.model.scheduler.RoundArena`, so every simulated
    cell reuses the same delivery buffers (workers of a parallel batch
    are separate processes and lease their own).
    """
    if parallel <= 1:
        with shared_arena():
            results = run_many(specs, parallel=parallel)
    else:
        results = run_many(specs, parallel=parallel)
    rows: list[ExperimentRow] = []
    for spec, result in zip(specs, results):
        row = ExperimentRow(x=spec.label())
        row.values["algorithm"] = result.name
        row.values["rounds"] = result.rounds
        row.values["palette_size"] = result.palette_size
        row.values["colors_used"] = result.colors_used()
        row.values["fingerprint"] = result.fingerprint[:12]
        rows.append(row)
    return SweepResult(x_label=x_label, rows=rows)


def run_scenario_sweep(
    specs: Sequence[RunSpec],
    *,
    parallel: int = 1,
    cache: bool = True,
    cache_dir=None,
    job_dir=None,
    shards: int = 2,
    local_workers: int = 0,
    x_label: str = "scenario",
) -> SweepResult:
    """Run scenario specs through the executor; one outcome row per spec.

    The adversarial sibling of :func:`run_spec_sweep`: each row reports
    the scenario outcome fields (rounds to quiescence, delivered /
    dropped / deferred / duplicated messages, crash and survivor
    counts, survivor-induced validity) next to the execution-model
    label.  Plain (scenario-less or identity-scenario) specs are
    welcome in the same batch — they fill the adversary columns with
    zeros, which makes the degradation-vs-baseline table read off
    directly.  ``parallel > 1`` fans out over the process pool with
    byte-identical results; ``cache_dir`` resumes finished cells across
    sessions like any other spec batch.

    **Sharded path** (``job_dir=``): the batch executes through
    :func:`repro.cluster.run_sharded` instead — split into ``shards``
    work units in ``job_dir``, optionally drained by ``local_workers``
    worker subprocesses (plus any ``python -m repro worker`` processes
    pointed at the same directory, on any machine), merged
    byte-identically.  Row contents are unchanged; re-running with the
    same batch and directory resumes a half-finished sweep.  On this
    path ``parallel`` and ``cache`` do not apply (workers are the
    parallelism; the job's own ``cache/`` is the spill), and passing a
    separate ``cache_dir`` alongside ``job_dir`` is a loud error
    rather than a silently ignored argument.
    """
    if job_dir is not None:
        if cache_dir is not None:
            raise ValueError(
                "run_scenario_sweep: cache_dir= does not combine with "
                "job_dir= — sharded jobs spill into <job_dir>/cache "
                "(pass one or the other)"
            )
        from repro.cluster import run_sharded

        results = run_sharded(
            specs,
            job_dir,
            shards=shards,
            local_workers=local_workers,
        )
    else:
        results = run_many(
            specs,
            parallel=parallel,
            cache=cache,
            cache_dir=cache_dir,
        )
    rows: list[ExperimentRow] = []
    for spec, result in zip(specs, results):
        details = result.details
        scenario = details.get("scenario") or {}
        row = ExperimentRow(x=spec.label())
        row.values["algorithm"] = result.name
        row.values["model"] = scenario.get("model", "synchronous")
        row.values["rounds"] = details.get(
            "rounds_to_quiescence", result.rounds
        )
        row.values["delivered"] = details.get("messages_delivered", 0)
        row.values["dropped"] = details.get("messages_dropped", 0)
        row.values["deferred"] = details.get("messages_deferred", 0)
        row.values["duplicated"] = details.get("messages_duplicated", 0)
        row.values["crashed"] = details.get("crashed_count", 0)
        row.values["uncolored"] = details.get("uncolored_survivors", 0)
        row.values["conflicts"] = details.get("conflicts_on_survivors", 0)
        row.values["proper"] = details.get("proper_on_survivors", True)
        row.values["aborted"] = details.get("aborted")
        row.values["fingerprint"] = result.fingerprint[:12]
        rows.append(row)
    return SweepResult(x_label=x_label, rows=rows)


def spec_cells(
    specs: Sequence[RunSpec],
) -> list[tuple[object, Callable[[], object]]]:
    """Adapt specs into :func:`run_scaling_sweep` cells.

    Each cell times one uncached executor run, so scaling sweeps can be
    written purely in terms of specs::

        sweep = run_scaling_sweep(spec_cells(specs), x_label="spec")

    Every executor run validates its result, so each cell's
    ``wall_clock_s`` times the validation too — unlike
    :func:`run_race_sweep`'s ``capture_timing``, which clocks the
    algorithms alone.
    """
    from repro.api.runner import run as run_spec

    return [
        (
            spec.label(),
            lambda spec=spec: run_spec(spec, cache=False),
        )
        for spec in specs
    ]


def run_policy_sweep(
    graph: nx.Graph,
    policies: Sequence[ParameterPolicy],
    *,
    seed: int = 2,
) -> SweepResult:
    """Run the paper's solver under several policies on one graph.

    Used by the ablation benchmarks (β and p choices).
    """
    rows: list[ExperimentRow] = []
    for policy in policies:
        result = get_algorithm(PAPER_ALGORITHM).run(graph, seed=seed, policy=policy)
        check_proper_edge_coloring(graph, result.coloring)
        row = ExperimentRow(x=policy.name)
        row.values["rounds"] = result.rounds
        row.values["relaxed invocations"] = result.stats.get(
            "relaxed_invocations", 0
        )
        row.values["lem43 reductions"] = result.stats.get("lem43/reductions", 0)
        row.values["max depth"] = result.stats.get("max_depth_seen", 0)
        row.values["deferred"] = result.stats.get("deferred_edges", 0)
        rows.append(row)
    return SweepResult(x_label="policy", rows=rows)
