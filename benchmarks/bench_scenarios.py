"""SCENARIOS — the execution-model wrapper must cost nothing when idle.

The scenario subsystem (PR 4) wraps the columnar engine behind a
delivery-hook seam.  The design promise is that the seam is *free* for
synchronous runs: the identity model builds no hook, ``Scheduler.run``
dispatches to the untouched fast path, and the PR 3 headline workload
(fixed-horizon flood on the line graph of the largest RACE instance)
must therefore run at the same speed whether launched plainly or
through ``repro.scenarios.run_under_model``.

Shape claims checked:
1. the synchronous wrapper's wall-clock overhead on the PR 3 headline
   instance stays under 5% (the median, over interleaved iterations,
   of one wrapped run's time over the adjacent plain run's; the two
   code paths are identical after one dispatch branch, so anything
   above noise would mean the seam leaked into the hot loop);
2. wrapped and plain runs are bit-identical (rounds, messages,
   outputs);
3. the adversarial models still *terminate and report* on the headline
   instance — their numbers are printed for the record, not asserted
   (they measure the adversary, not the engine).
"""

import statistics
import time

import pytest

from repro.analysis.bench_core import HEADLINE_HORIZON, largest_race_network
from repro.analysis.harness import time_best
from repro.analysis.tables import format_table
from repro.model.scheduler import Scheduler
from repro.primitives.node_algorithms import FloodMaxAlgorithm
from repro.scenarios import run_under_model

from conftest import report

#: Standing tolerance: the wrapper may cost at most this fraction of
#: the plain engine's wall-clock on the headline workload.
MAX_OVERHEAD = 0.05
#: Interleaved iterations, each timing one plain and one wrapped run.
ITERATIONS = 25


@pytest.mark.slow
def test_synchronous_wrapper_overhead_under_5_percent(benchmark):
    network = largest_race_network()
    sides = {
        "plain": lambda: Scheduler(network).run(FloodMaxAlgorithm(HEADLINE_HORIZON)),
        "wrapped": lambda: run_under_model(
            network, FloodMaxAlgorithm(HEADLINE_HORIZON), model="synchronous"
        ),
    }

    # Interleaved: each iteration times one run of each side, the first
    # side alternating, and yields one wrapped/plain ratio, so a slow or
    # fast host phase lands on both sides of a ratio instead of
    # deciding it.  The verdict is the median ratio.
    clock = time.perf_counter
    seconds: dict[str, list[float]] = {"plain": [], "wrapped": []}
    results = {}
    for iteration in range(ITERATIONS):
        order = ("plain", "wrapped") if iteration % 2 == 0 else ("wrapped", "plain")
        for side in order:
            started = clock()
            results[side] = sides[side]()
            seconds[side].append(clock() - started)
    plain, wrapped = results["plain"], results["wrapped"]
    plain_clock = statistics.median(seconds["plain"])
    wrapped_clock = statistics.median(seconds["wrapped"])
    overhead = statistics.median(
        w / max(p, 1e-9) for p, w in zip(seconds["plain"], seconds["wrapped"])
    ) - 1.0

    report(format_table(
        ["path", "median wall-clock (s)", "messages"],
        [
            ["plain Scheduler.run", f"{plain_clock:.4f}", plain.messages_sent],
            ["scenarios synchronous", f"{wrapped_clock:.4f}", wrapped.messages_sent],
        ],
        title=(
            "SCENARIOS: synchronous wrapper on the PR 3 headline "
            f"(overhead {overhead:+.1%})"
        ),
    ))

    assert wrapped.rounds == plain.rounds
    assert wrapped.messages_sent == plain.messages_sent
    assert wrapped.outputs == plain.outputs
    assert overhead <= MAX_OVERHEAD, (
        f"synchronous wrapper overhead {overhead:+.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} on the headline workload"
    )

    benchmark.pedantic(
        lambda: run_under_model(
            network, FloodMaxAlgorithm(4), model="synchronous"
        ),
        rounds=3, iterations=1,
    )


@pytest.mark.slow
def test_adversarial_models_terminate_on_headline_instance():
    network = largest_race_network()
    rows = []
    for model, params in (
        ("bounded_async", {"quota": 2048}),
        ("crash_stop", {"f": 8, "horizon": 4}),
        ("lossy_links", {"drop": 0.1, "duplicate": 0.05}),
    ):
        clock, result = time_best(
            lambda m=model, p=params: run_under_model(
                network,
                FloodMaxAlgorithm(HEADLINE_HORIZON),
                model=m,
                seed=7,
                params=p,
            ),
            repeats=1,
        )
        rows.append([
            model, f"{clock:.4f}", result.rounds, result.messages_sent,
            len(result.outputs),
        ])
        assert result.rounds >= 1
        assert len(result.outputs) <= network.n
    report(format_table(
        ["model", "wall-clock (s)", "rounds", "delivered", "survivors"],
        rows,
        title="SCENARIOS: adversarial models on the PR 3 headline instance",
    ))
