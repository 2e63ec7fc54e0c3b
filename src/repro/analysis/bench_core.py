"""Simulation-core micro-benchmark: reference loop vs fast path.

This module is the single implementation behind two front-ends:

* ``python -m repro bench-core`` — the CLI entry point that writes
  ``BENCH_scheduler.json`` at the repo root, the repo's recorded perf
  trajectory (wall-clock, rounds/sec and messages/sec, before/after);
* ``benchmarks/bench_scheduler_core.py`` — the pytest benchmark that
  asserts the fast path stays equivalent *and* fast.

The headline workload is the scheduler substrate of the RACE
experiment's largest instance (``bench_race_vs_delta`` sweeps
``K_{s,s}`` up to ``s = 16``; all its simulated algorithms execute on
the line graph of that instance).  A fixed-horizon flood is used as the
probe program because its per-node computation is trivial — wall-clock
is then almost entirely simulator overhead, which is exactly what this
benchmark tracks.  The "before" number comes from
:func:`repro.model.reference.reference_run`, the preserved seed loop;
the "after" number, the scaling sweeps and the ``--profile`` sidecar
all time :class:`~repro.model.scheduler.Scheduler`, whose single
backend is the columnar round engine.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import time
from pathlib import Path

from repro.analysis.harness import (
    SweepResult,
    run_scaling_sweep,
    throughput_columns,
    time_best,
)
from repro.telemetry.ledger import snapshot_environment
from repro.graphs.generators import complete_bipartite, random_regular
from repro.graphs.properties import assign_unique_ids
from repro.model.edge_network import line_graph_network
from repro.model.network import Network
from repro.model.reference import reference_run
from repro.model.scheduler import ExecutionResult, Scheduler
from repro.primitives.node_algorithms import FloodMaxAlgorithm

#: The largest cell of the RACE sweep (``bench_race_vs_delta``).
LARGEST_RACE_SIDE = 16

#: Flood horizon of the headline workload — enough rounds that steady-
#: state per-message costs dominate one-time setup in *both* loops.
HEADLINE_HORIZON = 16


def largest_race_network(side: int | None = None) -> Network:
    """The simulation substrate of the largest RACE instance.

    ``bench_race_vs_delta`` tops out at ``K_{16,16}``; its simulated
    algorithms run on the line graph of that graph (256 agents of
    degree 30).  ``side`` overrides the bipartition size (the quick
    profile shrinks it).
    """
    if side is None:
        side = LARGEST_RACE_SIDE
    graph = complete_bipartite(side, side)
    ids = assign_unique_ids(graph, seed=2)
    return line_graph_network(graph, node_ids=ids)


def compare_reference_vs_fast(
    network: Network,
    *,
    horizon: int = HEADLINE_HORIZON,
    repeats: int = 3,
) -> dict:
    """Time the seed loop against the fast path on one flood workload.

    Returns a JSON-safe record with before/after wall-clock and
    throughput, the speedup, and an ``identical_results`` flag diffing
    ``rounds`` / ``messages_sent`` / ``outputs`` between the two loops.
    """
    before_clock, before = time_best(
        lambda: reference_run(network, FloodMaxAlgorithm(horizon)), repeats
    )
    after_clock, after = time_best(
        lambda: Scheduler(network).run(FloodMaxAlgorithm(horizon)), repeats
    )
    assert isinstance(before, ExecutionResult)
    assert isinstance(after, ExecutionResult)
    identical = (
        before.rounds == after.rounds
        and before.messages_sent == after.messages_sent
        and before.outputs == after.outputs
    )
    return {
        "n": network.n,
        "max_degree": network.max_degree,
        "horizon": horizon,
        "rounds": after.rounds,
        "messages": after.messages_sent,
        "before": throughput_columns(before, before_clock),
        "after": throughput_columns(after, after_clock),
        "speedup": before_clock / max(after_clock, 1e-9),
        "identical_results": identical,
    }


def scaling_vs_n(
    sizes: tuple[int, ...] = (64, 256, 1024, 4096),
    *,
    degree: int = 6,
    horizon: int = 8,
    repeats: int = 2,
) -> SweepResult:
    """Fast-path wall-clock on ``degree``-regular graphs of growing n."""
    cells = []
    for n in sizes:
        network = Network(random_regular(degree, n, seed=7))
        cells.append(
            (n, lambda net=network: Scheduler(net).run(FloodMaxAlgorithm(horizon)))
        )
    return run_scaling_sweep(cells, x_label="n", repeats=repeats)


#: The large-scale cells of the scaling record: (n, degree, horizon).
#: The first three rows push n past 10,000 at growing Δ — the regime
#: the ROADMAP's "tens of thousands of nodes" open item asked for.
#: The final row is the next order of magnitude: 100,000 nodes.
LARGE_SCALE_CELLS: tuple[tuple[int, int, int], ...] = (
    (10_000, 8, 8),
    (10_000, 16, 6),
    (10_000, 32, 4),
    (20_000, 8, 6),
    (100_000, 8, 3),
)

def scaling_large_n(
    cells: tuple[tuple[int, int, int], ...] = LARGE_SCALE_CELLS,
    *,
    repeats: int = 2,
) -> SweepResult:
    """Throughput on 10k+-node regular instances.

    Each cell is ``(n, degree, horizon)``; rows carry ``n`` /
    ``degree`` columns so the recorded JSON is self-describing.  The
    cells share one arena (via :func:`run_scaling_sweep`).
    """
    sweep_cells = []
    for n, degree, horizon in cells:
        network = Network(random_regular(degree, n, seed=7))

        def cell(net=network, h=horizon, d=degree):
            result = Scheduler(net).run(FloodMaxAlgorithm(h))
            return {
                "n": net.n,
                "degree": d,
                "rounds": result.rounds,
                "messages_sent": result.messages_sent,
            }

        sweep_cells.append((f"n={n} Δ={degree}", cell))
    return run_scaling_sweep(sweep_cells, x_label="instance", repeats=repeats)


def scaling_vs_delta(
    degrees: tuple[int, ...] = (4, 8, 16, 32),
    *,
    n: int = 256,
    horizon: int = 8,
    repeats: int = 2,
) -> SweepResult:
    """Fast-path wall-clock on ``n``-node regular graphs of growing Δ."""
    cells = []
    for degree in degrees:
        network = Network(random_regular(degree, n, seed=7))
        cells.append(
            (degree, lambda net=network: Scheduler(net).run(FloodMaxAlgorithm(horizon)))
        )
    return run_scaling_sweep(cells, x_label="Δ", repeats=repeats)


def profile_sidecar_path(record_path: str | Path) -> Path:
    """The profile sidecar written next to ``record_path``.

    ``BENCH_scheduler.json`` -> ``BENCH_scheduler_profile.txt``.
    """
    record_path = Path(record_path)
    return record_path.with_name(record_path.stem + "_profile.txt")


def profile_scheduler(*, quick: bool = False, top: int = 30) -> str:
    """cProfile the headline flood; return the pstats text.

    Sorted by total time so the hotspots read off the top.  This is the
    evidence base for optimization work: the committed sidecar pins
    where simulator time went *before* a change, so a claimed speedup
    can be checked against the profile it came from.
    """
    network = largest_race_network(4 if quick else None)
    horizon = 4 if quick else HEADLINE_HORIZON
    profiler = cProfile.Profile()
    profiler.enable()
    Scheduler(network).run(FloodMaxAlgorithm(horizon))
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("tottime").print_stats(top)
    return (
        f"== headline flood (n={network.n}, horizon={horizon}) ==\n"
        f"{stream.getvalue()}"
    )


def write_profile(
    record_path: str | Path, *, quick: bool = False, top: int = 30
) -> Path:
    """Profile the scheduler; write the sidecar next to ``record_path``."""
    sidecar = profile_sidecar_path(record_path)
    sidecar.write_text(profile_scheduler(quick=quick, top=top))
    return sidecar


def _sweep_records(sweep: SweepResult) -> list[dict]:
    return [
        {sweep.x_label: row.x, **row.values} for row in sweep.rows
    ]


def collect_bench_core(
    *,
    repeats: int = 3,
    quick: bool = False,
) -> dict:
    """Run the full bench-core suite; return the JSON-safe record."""
    network = largest_race_network()
    headline = compare_reference_vs_fast(
        network,
        horizon=4 if quick else HEADLINE_HORIZON,
        repeats=1 if quick else repeats,
    )
    sizes = (64, 128) if quick else (64, 256, 1024, 4096)
    degrees = (4, 8) if quick else (4, 8, 16, 32)
    large_cells = ((200, 8, 2),) if quick else LARGE_SCALE_CELLS
    sweep_repeats = 1 if quick else 2
    return {
        "benchmark": "scheduler-core",
        "workload": (
            "fixed-horizon flood (FloodMaxAlgorithm) — trivial per-node "
            "computation, so wall-clock isolates simulator overhead"
        ),
        "before_implementation": "repro.model.reference.reference_run (seed loop)",
        "after_implementation": (
            "repro.model.scheduler.Scheduler.run (columnar round engine)"
        ),
        "largest_race_instance": {
            "instance": (
                f"line graph of K_{{{LARGEST_RACE_SIDE},{LARGEST_RACE_SIDE}}} "
                "(largest bench_race_vs_delta cell)"
            ),
            **headline,
        },
        "scaling_vs_n": _sweep_records(scaling_vs_n(sizes, repeats=sweep_repeats)),
        "scaling_vs_delta": _sweep_records(
            scaling_vs_delta(degrees, repeats=sweep_repeats)
        ),
        "scaling_large_n": _sweep_records(
            scaling_large_n(large_cells, repeats=sweep_repeats)
        ),
        "environment": snapshot_environment(),
        "created_unix": time.time(),
    }


#: Keys every bench record must carry, and the throughput keys every
#: sweep row must carry.  ``validate_bench_record`` checks these — the
#: structure consumers (tests, regression benchmarks, plots)
#: rely on, never timing values.
_REQUIRED_RECORD_KEYS = (
    "benchmark",
    "workload",
    "before_implementation",
    "after_implementation",
    "largest_race_instance",
    "scaling_vs_n",
    "scaling_vs_delta",
    "scaling_large_n",
    "environment",
    "created_unix",
)
_REQUIRED_ROW_KEYS = ("wall_clock_s", "messages_sent", "messages_per_s")

#: Keys the environment provenance block must carry (values that may
#: legitimately be absent — e.g. ``numpy`` on a bare interpreter — are
#: allowed to be null, but the keys themselves must exist).
_REQUIRED_ENVIRONMENT_KEYS = ("python", "platform", "machine", "hostname")


def validate_bench_record(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` is a well-formed record.

    Structural checks only (keys present, numbers are numbers, the
    headline diff ran to identical results) — no timing thresholds, so
    the check is deterministic on any machine.
    """
    if not isinstance(record, dict):
        raise ValueError(f"bench record must be a dict, got {type(record)}")
    missing = [key for key in _REQUIRED_RECORD_KEYS if key not in record]
    if missing:
        raise ValueError(f"bench record is missing keys: {missing}")
    headline = record["largest_race_instance"]
    for side in ("before", "after"):
        timing = headline.get(side)
        if not isinstance(timing, dict) or not isinstance(
            timing.get("wall_clock_s"), (int, float)
        ):
            raise ValueError(f"headline {side!r} timing is malformed: {timing!r}")
    if headline.get("identical_results") is not True:
        raise ValueError("headline record does not certify identical results")
    if not isinstance(headline.get("speedup"), (int, float)):
        raise ValueError(f"headline speedup is malformed: {headline.get('speedup')!r}")
    environment = record["environment"]
    if not isinstance(environment, dict):
        raise ValueError(
            f"environment block must be a dict, got {environment!r}"
        )
    for key in _REQUIRED_ENVIRONMENT_KEYS:
        if not isinstance(environment.get(key), str) or not environment[key]:
            raise ValueError(
                f"environment block is missing {key!r}: {environment!r}"
            )
    for sweep_key in ("scaling_vs_n", "scaling_vs_delta", "scaling_large_n"):
        rows = record[sweep_key]
        if not isinstance(rows, list) or not rows:
            raise ValueError(f"{sweep_key} must be a non-empty list of rows")
        for row in rows:
            for key in _REQUIRED_ROW_KEYS:
                if not isinstance(row.get(key), (int, float)):
                    raise ValueError(
                        f"{sweep_key} row is missing numeric {key!r}: {row!r}"
                    )


def write_bench_core(
    path: str | Path, *, repeats: int = 3, quick: bool = False
) -> dict:
    """Run the suite and write the record to ``path``; return the record."""
    record = collect_bench_core(repeats=repeats, quick=quick)
    validate_bench_record(record)
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record
