"""TELEMETRY — tracing you didn't turn on must cost nothing.

The span tracer (PR 9) instruments the executor's attempt loop, the
cache layers, the shard lifecycle, and the service request path.  Its
design promise: disabled (the default), ``trace()`` returns one shared
no-op singleton — no allocation, no clock reads, no I/O — so the
instrumented hot paths run at the speed of uninstrumented code.

Shape claims checked:
1. the disabled ``trace()`` call itself stays in the tens-of-
   nanoseconds range, measured over a tight loop;
2. extrapolated to a *generous* per-spec span budget (far above what
   the executor actually emits per spec), the disabled tracer accounts
   for under 1% of the wall-clock of executing one small spec — the
   worst case, since span count is per-resolution while work grows
   with instance size;
3. a traced run on the same spec still produces a bit-identical
   result (the tracer is observational on both sides of the switch);
4. the job event stream (PR 10) holds the same line: with no events
   directory installed, ``emit_event()`` is one ContextVar read and a
   return — charged at a generous per-spec budget it also stays under
   1% of a small spec's wall-clock.
"""

import statistics
import time

import pytest

from repro.api import InstanceSpec, RunSpec, run
from repro.analysis.harness import time_best
from repro.analysis.tables import format_table
from repro.api.runner import clear_result_cache
from repro.results import canonical_json
from repro.telemetry.events import active_events_dir, emit_event
from repro.telemetry.trace import trace, trace_context, tracing_enabled

from conftest import report

#: Standing tolerance: disabled tracing may account for at most this
#: fraction of a spec's execution wall-clock.
MAX_OVERHEAD = 0.01

#: Disabled-trace calls timed per loop (large enough that the loop
#: dominates the timer resolution).
CALLS = 100_000

#: Interleaved solve + span-budget iterations the trace test times.
ITERATIONS = 200

#: Span budget charged to one spec resolution.  The executor emits at
#: most ~8 per spec (run.attempt per attempt, cache.load /
#: cache.publish, the shard claim/drain/publish trio amortized across
#: a whole shard) — charging double keeps headroom without inventing
#: call sites that don't exist.
SPANS_PER_SPEC = 16

#: Event budget charged to one spec resolution.  The executor emits at
#: most one ``spec_resolved`` plus one ``spec_retry`` per extra
#: attempt; the shard lifecycle events are amortized across a whole
#: shard.  Charging eight keeps the same kind of headroom as the span
#: budget.
EVENTS_PER_SPEC = 8


def small_spec() -> RunSpec:
    return RunSpec(
        instance=InstanceSpec(family="complete_bipartite", size=3, seed=9),
        algorithm="bko20",
    )


@pytest.mark.slow
def test_disabled_trace_overhead_under_1_percent(benchmark, tmp_path):
    assert not tracing_enabled()

    def noop_loop():
        for _ in range(CALLS):
            with trace("bench.noop", probe=1):
                pass

    clear_result_cache()
    spec = small_spec()
    plain = run(spec, cache=False)

    # Interleaved: each iteration times one solve, then the charged
    # span budget of disabled calls, so a slow or fast host phase
    # lands on both sides of the ratio instead of deciding it.
    clock = time.perf_counter
    solve_s: list[float] = []
    spans_s: list[float] = []
    for _ in range(ITERATIONS):
        started = clock()
        run(spec, cache=False)
        solved = clock()
        for _ in range(SPANS_PER_SPEC):
            with trace("bench.noop", probe=1):
                pass
        spans_s.append(clock() - solved)
        solve_s.append(solved - started)
    spec_clock = statistics.median(solve_s)
    spans_clock = statistics.median(spans_s)
    per_call_s = spans_clock / SPANS_PER_SPEC
    overhead = spans_clock / spec_clock

    with trace_context(tmp_path):
        traced = run(spec, cache=False)
    assert canonical_json(traced.to_dict()) == canonical_json(plain.to_dict())

    report(format_table(
        ["quantity", "value"],
        [
            ["disabled trace() per call (median)", f"{per_call_s * 1e9:.0f} ns"],
            ["charged spans per spec", str(SPANS_PER_SPEC)],
            ["small-spec wall-clock (median)", f"{spec_clock * 1e3:.3f} ms"],
            ["interleaved iterations", str(ITERATIONS)],
            ["overhead", f"{overhead:.3%}"],
        ],
        title=(
            "TELEMETRY: disabled tracer on one spec resolution "
            f"(overhead {overhead:.3%}, budget {MAX_OVERHEAD:.0%})"
        ),
    ))

    assert overhead <= MAX_OVERHEAD, (
        f"disabled tracing charges {overhead:.3%} of a small spec's "
        f"wall-clock ({per_call_s * 1e9:.0f} ns/call x {SPANS_PER_SPEC} "
        f"spans vs {spec_clock * 1e3:.3f} ms, medians of {ITERATIONS} "
        f"interleaved iterations), over the {MAX_OVERHEAD:.0%} budget"
    )

    benchmark.pedantic(noop_loop, rounds=3, iterations=1)


@pytest.mark.slow
def test_disabled_event_emission_overhead_under_1_percent(benchmark):
    assert active_events_dir() is None

    def noop_loop():
        for _ in range(CALLS):
            emit_event("bench_noop", probe=1)

    loop_clock, _ = time_best(noop_loop, repeats=5)
    per_call_s = loop_clock / CALLS

    clear_result_cache()
    spec = small_spec()
    spec_clock, _ = time_best(lambda: run(spec, cache=False), repeats=5)
    overhead = (per_call_s * EVENTS_PER_SPEC) / max(spec_clock, 1e-9)

    report(format_table(
        ["quantity", "value"],
        [
            ["disabled emit_event() per call", f"{per_call_s * 1e9:.0f} ns"],
            ["charged events per spec", str(EVENTS_PER_SPEC)],
            ["small-spec wall-clock", f"{spec_clock * 1e3:.3f} ms"],
            ["extrapolated overhead", f"{overhead:.3%}"],
        ],
        title=(
            "TELEMETRY: disabled event emission on one spec resolution "
            f"(overhead {overhead:.3%}, budget {MAX_OVERHEAD:.0%})"
        ),
    ))

    assert overhead <= MAX_OVERHEAD, (
        f"disabled event emission charges {overhead:.3%} of a small "
        f"spec's wall-clock ({per_call_s * 1e9:.0f} ns/call x "
        f"{EVENTS_PER_SPEC} events vs {spec_clock * 1e3:.3f} ms), over "
        f"the {MAX_OVERHEAD:.0%} budget"
    )

    benchmark.pedantic(noop_loop, rounds=3, iterations=1)
