"""The batch executor: ``run``, ``run_many`` and ``run_many_iter``.

The one front door for executing experiments.  Guarantees:

* **Determinism** — a spec carries every input (family, size, seeds,
  algorithm, policy name), so the same spec produces the same
  :class:`~repro.results.RunResult` (byte-identical result
  fingerprint) whether it runs serially, in a worker pool, or in a
  different session.
* **Validation** — every coloring is re-checked independently
  (properness + palette bound; survivor claims for scenario results)
  before it is returned or cached.  There is no switch: a cache hit
  was validated when it was stored, so hits are never re-checked.
* **Caching** — results are memoised under the spec fingerprint;
  repeated specs (within one ``run_many`` call or across calls) solve
  once.  The in-process cache is a bounded LRU shared by every thread
  of the process (:data:`RESULT_CACHE_EDGES`, :func:`clear_result_cache`);
  results are immutable, so it stores and hands out the one result
  object without copying.  Passing
  ``cache_dir=`` adds a second, **on-disk** layer — one JSON file per
  spec fingerprint — so sweeps resume across sessions: a fresh process
  pointed at the same directory replays finished specs from disk
  instead of re-solving them.  Disk entries embed the result
  fingerprint and are ignored (treated as misses) if they fail to
  round-trip, so a corrupt or hand-edited file can never masquerade as
  a cached run.  Large stores stay bounded: entries are touched on
  every hit, and :func:`prune_cache` (or ``cache_max_entries=`` on the
  entry points, or ``python -m repro cache-prune``) evicts
  least-recently-used entries beyond a budget.
* **Fan-out** — ``parallel > 1`` runs the distinct misses on
  :meth:`~repro.api.pool.WorkerPool.map_unordered` (the service's
  kind of pool) with ``min(parallel, distinct misses)`` workers; the
  per-spec seeding makes worker-side runs bit-identical to serial
  ones.  A stream closed early, or a failure raised under
  ``on_error="raise"``, kills the workers: the rest is not run.
* **Streaming** — :func:`run_many_iter` yields ``(index, result)``
  pairs as runs finish (cache hits first, then completions), so
  long sweeps can report progress and persist incrementally;
  :func:`run_many` is built on it and returns the familiar
  spec-ordered list, byte-identical to serial execution.
* **Failure domains** — every entry point takes
  ``on_error="raise"|"capture"`` (or a full
  :class:`~repro.api.failures.FailurePolicy` with retries, seeded
  deterministic backoff, and a per-attempt ``timeout_s``).  Under
  ``"raise"`` a failing spec aborts the batch, with the spec's index
  and fingerprint attached to the propagated exception; under
  ``"capture"`` the spec's slot holds a deterministic
  :class:`~repro.results.FailedResult` (exception type/message,
  traceback digest, attempt count) and the rest of the batch proceeds.
  Capture happens at the execution site — inside :func:`run`, never at
  the pool boundary — so serial and parallel batches are byte-identical
  *including* their failure records.  Failures are never written to
  either cache layer (a transient failure must not poison later runs);
  the cluster layer quarantines them in its own dead-letter store.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import traceback as traceback_module
from collections import OrderedDict
from contextlib import closing
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.api.diskcache import (
    disk_load,
    disk_store,
    prune_cache,
    touch_entry,
)
from repro.api import failures as _failures
from repro.api.failures import (
    FailurePolicy,
    backoff_delay,
    execution_deadline,
    resolve_policy,
    traceback_digest,
)
from repro.api.pool import WorkerPool
from repro.api.registry import get_algorithm
from repro.api.spec import InstanceSpec, RunSpec
from repro.coloring.verify import check_palette_bound, check_proper_edge_coloring
from repro.results import FailedResult, RunResult
from repro.scenarios.spec import ScenarioSpec
from repro.telemetry.events import emit_event
from repro.telemetry.ledger import record_run, resolve_ledger_dir
from repro.telemetry.trace import trace

__all__ = [
    "clear_result_cache",
    "prune_cache",  # canonical home: repro.api.diskcache (re-exported)
    "result_cache_size",
    "run",
    "run_many",
    "run_many_iter",
    "specs_for_race",
    "specs_for_scenarios",
]

#: Chaos seam (:mod:`repro.faults`): when set, called as
#: ``hook(fingerprint, attempt)`` at the start of every execution
#: attempt, *inside* the attempt's deadline and retry scope.  The hook
#: may raise (``poison`` / ``flaky`` faults) or stall (``hang``
#: faults); whatever it does is handled exactly like an organic
#: failure of the spec.  Cache hits never consult the hook.
_FAULT_HOOK: Callable[[str, int], None] | None = None

#: Budget of the in-process result cache, in coloring entries: a result
#: costs ``max(1, len(result.coloring))``.  Measured with tracemalloc
#: on bko20 random_regular results, a held entry takes about 107 B in a
#: result rebuilt from its dict (the service's form) and 200 B (Δ 64,
#: 8,192 edges) to 690 B (Δ 8) in a fresh in-process result, whose
#: round ledger weighs most on small instances.  At this budget that is
#: about 28 MB of rebuilt and 52 MB of fresh Δ 64 results.
RESULT_CACHE_EDGES = 1 << 18

#: Result cache: spec fingerprint -> validated result, least recently
#: used first; the results beyond :data:`RESULT_CACHE_EDGES` are
#: dropped (and re-read from ``cache_dir=`` if one is given).  Results
#: are immutable, so lookups hand out the stored object itself — no
#: caller can poison later hits.  Process-wide: service handler threads
#: share it, so every access holds :data:`_RESULT_CACHE_LOCK`.
_RESULT_CACHE: OrderedDict[str, RunResult] = OrderedDict()
_RESULT_CACHE_LOCK = threading.Lock()
_result_cache_edges = 0


def _edges_of(result: RunResult) -> int:
    return max(1, len(result.coloring))


def _cache_lookup(fingerprint: str) -> RunResult | None:
    """The cached result of ``fingerprint`` (now most recently used)."""
    with _RESULT_CACHE_LOCK:
        result = _RESULT_CACHE.get(fingerprint)
        if result is not None:
            _RESULT_CACHE.move_to_end(fingerprint)
        return result


def _cache_store(fingerprint: str, result: RunResult) -> None:
    """Hold a successful result, dropping least recently used ones
    beyond :data:`RESULT_CACHE_EDGES`; a failure, or a result larger
    than the whole budget, is not held."""
    global _result_cache_edges
    if result.is_failure():
        return
    edges = _edges_of(result)
    with _RESULT_CACHE_LOCK:
        held = _RESULT_CACHE.pop(fingerprint, None)
        if held is not None:
            _result_cache_edges -= _edges_of(held)
        if edges > RESULT_CACHE_EDGES:
            return
        _RESULT_CACHE[fingerprint] = result
        _result_cache_edges += edges
        while _result_cache_edges > RESULT_CACHE_EDGES:
            _, dropped = _RESULT_CACHE.popitem(last=False)
            _result_cache_edges -= _edges_of(dropped)


def clear_result_cache() -> int:
    """Drop all in-process cached results; returns how many were dropped.

    On-disk stores are not touched — delete the ``cache_dir`` contents
    to forget those.
    """
    global _result_cache_edges
    with _RESULT_CACHE_LOCK:
        dropped = len(_RESULT_CACHE)
        _RESULT_CACHE.clear()
        _result_cache_edges = 0
    return dropped


def result_cache_size() -> int:
    """Number of results currently cached in-process."""
    return len(_RESULT_CACHE)


def _validate(result: RunResult, graph) -> None:
    if "scenario" in result.details:
        # Scenario results are validated against their *survivor*
        # claims (adversarial executions may legitimately crash agents
        # or produce measured conflicts — a full-graph properness check
        # would reject exactly the outcomes the scenario measures).
        from repro.scenarios.executor import (
            is_scenario_result,
            validate_scenario_result,
        )

        if is_scenario_result(result):
            validate_scenario_result(result, graph)
            return
    check_proper_edge_coloring(graph, result.coloring)
    if result.palette_size:
        check_palette_bound(result.coloring, result.palette_size)


def _lookup_layers(
    fingerprint: str,
    cache: bool,
    cache_dir: str | Path | None,
    *,
    read_disk: bool = True,
    cache_max_entries: int | None = None,
) -> tuple[RunResult | None, str | None]:
    """Consult both cache layers and keep them in sync on a hit.

    Every hit refreshes the disk entry's mtime: the eviction policy
    (:func:`prune_cache`) is LRU-by-mtime, so recently *used* entries
    survive pruning, not just recently written ones.  A memory hit
    whose disk entry is missing stores it again (otherwise a later
    session could not resume from it) and prunes the store to
    ``cache_max_entries`` if given; a disk hit backfills the
    in-process cache.  A malformed, mismatched or unreadable disk
    entry is a miss (see :func:`~repro.api.diskcache.disk_load`): the
    spec re-runs and the entry is rewritten.  ``read_disk=False``
    consults memory only (the disk entry is still refreshed on a
    hit).  Returns ``(result, layer)`` with ``layer`` one of
    ``"memory"`` / ``"disk"`` on a hit (the run ledger records the
    disposition), ``(None, None)`` on a miss.
    """
    if cache:
        hit = _cache_lookup(fingerprint)
        if hit is not None:
            if cache_dir is not None and not touch_entry(cache_dir, fingerprint):
                disk_store(cache_dir, fingerprint, hit)
                if cache_max_entries is not None:
                    prune_cache(cache_dir, cache_max_entries)
            return hit, "memory"
    if cache_dir is not None and read_disk:
        hit = disk_load(cache_dir, fingerprint)
        if hit is not None:
            touch_entry(cache_dir, fingerprint)
            if cache:
                _cache_store(fingerprint, hit)
            return hit, "disk"
    return None, None


def _replay(
    fingerprint: str,
    spec: RunSpec,
    *,
    cache: bool,
    cache_dir: str | Path | None,
    ledger_dir: str | None,
    read_disk: bool = True,
    cache_max_entries: int | None = None,
) -> tuple[RunResult | None, str | None]:
    """Resolve a spec from a cache layer and record the hit.

    Returns ``(result, disposition)`` on a hit — the ledger row and the
    ``spec_resolved`` event are written here — and ``(None, None)`` on
    a miss, which records nothing.  ``read_disk`` and
    ``cache_max_entries`` are as for :func:`_lookup_layers`.
    """
    hit, layer = _lookup_layers(
        fingerprint,
        cache,
        cache_dir,
        read_disk=read_disk,
        cache_max_entries=cache_max_entries,
    )
    if hit is None:
        return None, None
    disposition = f"cache_{layer}"
    record_run(
        ledger_dir,
        spec=spec,
        fingerprint=fingerprint,
        disposition=disposition,
        result=hit,
        attempts=0,
    )
    emit_event("spec_resolved", fingerprint=fingerprint, disposition=disposition)
    return hit, disposition


def _execute_once(spec: RunSpec, fingerprint: str) -> RunResult:
    """One execution attempt: build, run, stamp, validate."""
    graph = spec.instance.build()
    scenario = spec.scenario
    if scenario is not None and not scenario.is_identity():
        # The scenario capability table is its own registry — a
        # program added via register_program() need not exist in the
        # api algorithm registry to run under an adversary.
        from repro.scenarios.executor import execute_scenario

        result = execute_scenario(spec, graph)
    else:
        result = get_algorithm(spec.algorithm).run(
            graph,
            seed=spec.effective_seed(),
            policy=spec.policy,
            **dict(spec.params),
        )
    result = dataclasses.replace(result, fingerprint=fingerprint)
    _validate(result, graph)
    return result


def _execute_with_policy(
    spec: RunSpec,
    fingerprint: str,
    policy: FailurePolicy,
    observed: dict[str, Any] | None = None,
) -> RunResult:
    """Drive the attempt loop: deadline, retries, backoff, capture.

    Everything a failure domain needs happens here, at the execution
    site: the per-attempt ``SIGALRM`` deadline, the chaos fault hook,
    bounded retries with seeded deterministic backoff, and — under
    ``on_error="capture"`` — the conversion of the last attempt's
    exception into a :class:`~repro.results.FailedResult`.  A spec
    that succeeds (on any attempt) returns its ordinary result,
    unchanged: retried successes are byte-identical to first-try ones.

    ``observed``, when given, receives the out-of-band accounting the
    run ledger records (``attempts``: which attempt succeeded) —
    deliberately not part of the result, which stays byte-identical
    regardless of retries.
    """
    started = time.perf_counter()
    last_exc: Exception | None = None
    for attempt in range(1, policy.attempts + 1):
        try:
            with execution_deadline(policy.timeout_s):
                with trace(
                    "run.attempt",
                    fingerprint=fingerprint[:12],
                    attempt=attempt,
                ):
                    hook = _FAULT_HOOK
                    if hook is not None:
                        hook(fingerprint, attempt)
                    result = _execute_once(spec, fingerprint)
            if observed is not None:
                observed["attempts"] = attempt
            return result
        except Exception as exc:
            last_exc = exc
            if attempt < policy.attempts:
                delay = backoff_delay(policy, fingerprint, attempt)
                emit_event(
                    "spec_retry",
                    fingerprint=fingerprint,
                    attempt=attempt,
                    delay_s=delay,
                    error_type=type(exc).__name__,
                )
                if delay > 0:
                    with trace(
                        "run.backoff",
                        fingerprint=fingerprint[:12],
                        attempt=attempt,
                        delay_s=delay,
                    ):
                        _failures._sleep(delay)
    assert last_exc is not None
    if not policy.captures:
        raise last_exc
    return FailedResult(
        name=spec.algorithm,
        fingerprint=fingerprint,
        error_type=type(last_exc).__name__,
        error_message=str(last_exc),
        traceback_digest=traceback_digest(last_exc),
        attempts=policy.attempts,
        wall_clock_s=time.perf_counter() - started,
        traceback_text="".join(traceback_module.format_exception(last_exc)),
    )


def run(
    spec: RunSpec,
    *,
    cache: bool = True,
    cache_dir: str | Path | None = None,
    cache_max_entries: int | None = None,
    on_error: str | FailurePolicy = "raise",
    ledger_dir: str | Path | None = None,
    _fingerprint: str | None = None,
    _observed: dict[str, Any] | None = None,
) -> RunResult:
    """Execute one spec and return its fingerprinted, validated result.

    Every executed result is validated before it is returned or
    cached: a coloring that fails the check raises
    :class:`~repro.errors.ColoringValidationError` (a
    :class:`~repro.results.FailedResult` under capture) and enters no
    cache layer.  Hits are served as stored, without a second check.

    ``cache`` controls the in-process memo, a process-wide LRU bounded
    by :data:`RESULT_CACHE_EDGES` coloring entries; ``cache_dir`` adds
    the cross-session on-disk layer (each is consulted and written
    independently, so ``cache=False, cache_dir=...`` still resumes
    from disk without touching process memory).  ``cache_max_entries``
    caps the on-disk store: after a store, the least-recently-used
    entries beyond the cap are pruned (see :func:`prune_cache`).

    ``on_error`` is the failure policy (``"raise"`` / ``"capture"`` or
    a :class:`~repro.api.failures.FailurePolicy`): under capture a
    failing spec returns a :class:`~repro.results.FailedResult` after
    exhausting the policy's attempts instead of raising.  Failures are
    never cached — only successful results enter either cache layer.

    ``ledger_dir`` appends one observational record per resolution
    (executed / cache hit / captured failure) to the run ledger there
    (see :mod:`repro.telemetry.ledger`); ``None`` falls back to the
    ambient :func:`repro.telemetry.ledger.ledger_context` directory,
    and recording is off when neither is set.  The ledger is executor
    state: it never enters fingerprints and never changes results — a
    run with the ledger on is byte-identical to one without.

    A spec carrying a non-identity scenario routes through
    :func:`repro.scenarios.executor.execute_scenario` — same result
    type, same caches, same fingerprint discipline; the identity
    (``synchronous``) scenario is normalised away and takes this plain
    path bit-for-bit.

    ``_observed``, when given, receives what the ledger row of this
    resolution records beside the result (``disposition``,
    ``attempts``, ``wall_clock_s``): a pool worker sends it back to a
    caller that keeps the ledger itself.
    """
    policy = resolve_policy(on_error)
    ledger = resolve_ledger_dir(ledger_dir)
    fingerprint = spec.fingerprint() if _fingerprint is None else _fingerprint
    observed: dict[str, Any] = {} if _observed is None else _observed
    hit, disposition = _replay(
        fingerprint,
        spec,
        cache=cache,
        cache_dir=cache_dir,
        ledger_dir=ledger,
        cache_max_entries=cache_max_entries,
    )
    if hit is not None:
        observed.update(disposition=disposition, attempts=0, wall_clock_s=None)
        return hit
    started = time.perf_counter()
    result = _execute_with_policy(spec, fingerprint, policy, observed)
    wall_clock_s = time.perf_counter() - started
    if result.is_failure():
        observed.update(
            disposition="failed",
            attempts=policy.attempts,
            wall_clock_s=wall_clock_s,
        )
        record_run(
            ledger,
            spec=spec,
            fingerprint=fingerprint,
            disposition="failed",
            result=result,
            attempts=policy.attempts,
            wall_clock_s=wall_clock_s,
        )
        emit_event(
            "spec_resolved",
            fingerprint=fingerprint,
            disposition="failed",
            attempts=policy.attempts,
            error_type=result.error_type,
        )
        return result
    observed.update(disposition="executed", wall_clock_s=wall_clock_s)
    observed.setdefault("attempts", 1)
    if cache_dir is not None:
        # Seal with the JSON text the disk entry stores, so the ledger
        # row's result fingerprint and that entry share one to_dict().
        result.sealed_json()
    record_run(
        ledger,
        spec=spec,
        fingerprint=fingerprint,
        disposition="executed",
        result=result,
        attempts=observed["attempts"],
        wall_clock_s=wall_clock_s,
    )
    emit_event(
        "spec_resolved",
        fingerprint=fingerprint,
        disposition="executed",
        attempts=observed["attempts"],
        wall_clock_s=round(wall_clock_s, 6),
    )
    if cache:
        _cache_store(fingerprint, result)
    if cache_dir is not None:
        disk_store(cache_dir, fingerprint, result)
        if cache_max_entries is not None:
            prune_cache(cache_dir, cache_max_entries)
    return result


def _run_in_worker(
    payload: tuple[dict[str, Any], dict[str, Any], bool]
) -> RunResult | tuple[str, dict[str, Any], str]:
    """A pool worker's answer to a payload (see :mod:`repro.api.pool`).

    ``payload`` is ``(spec_dict, options, as_json)``, ``options`` being
    :func:`run`'s keyword arguments.  The failure policy and the ledger
    directory ride in them, so capture, retries and deadlines happen in
    the worker (a failure record digests the algorithm's traceback, as
    a serial run's does) and a pooled batch writes the rows a serial
    one does, stamped with the worker's pid.

    With ``as_json`` false (``run_many(parallel=N)``) the result comes
    back pickled, ledger tree and all.  With ``as_json`` true (the
    service) it comes back as ``(result.to_json(), observed,
    result_fingerprint)``: the text and seal ``disk_store`` computed
    here for the disk entry (a failure, not stored, computes both from
    one ``to_dict()``), and the disposition, attempts and wall-clock
    the caller's ledger row records.  The caller rebuilds the result
    from the text, the form a disk-cache hit serves, and adopts both.
    """
    spec_dict, options, as_json = payload
    observed: dict[str, Any] = {}
    result = run(
        RunSpec.from_dict(spec_dict), cache=False, _observed=observed, **options
    )
    if as_json:
        text, seal = result.sealed_json()
        return text, observed, seal
    return result


def run_many_iter(
    specs: Iterable[RunSpec],
    *,
    parallel: int = 1,
    cache: bool = True,
    cache_dir: str | Path | None = None,
    cache_max_entries: int | None = None,
    on_error: str | FailurePolicy = "raise",
    ledger_dir: str | Path | None = None,
) -> Iterator[tuple[int, RunResult]]:
    """Execute many specs, yielding ``(index, result)`` as runs finish.

    Every spec index is yielded exactly once.  Cache hits (in-process
    or on-disk) come first, in spec order; remaining specs follow as
    their runs complete — in spec order when serial, in completion
    order when ``parallel > 1``.  Duplicate specs (same fingerprint)
    are executed once, and every occurrence yields the run's one
    (immutable) result object.

    Under ``on_error="capture"`` a failing spec yields a
    :class:`~repro.results.FailedResult` at its index (duplicates share
    it, like any result); under ``"raise"`` the exception
    propagates annotated with the failing spec's batch index, label,
    and fingerprint (``spec_index`` / ``spec_fingerprint`` attributes
    plus an exception note), so a poison spec in a thousand-spec batch
    is identifiable from the traceback alone.

    Streaming changes *when* results surface, never *what* they are:
    collecting the pairs into spec order reproduces the serial
    ``run_many`` list byte-for-byte.

    ``ledger_dir`` (or the ambient
    :func:`~repro.telemetry.ledger.ledger_context`) records one run
    record per resolved fingerprint — at the execution site even under
    ``parallel > 1``, so the deterministic core of the records matches
    serial execution; see :func:`run`.
    """
    try:
        yield from _run_many_iter_inner(
            specs,
            parallel=parallel,
            cache=cache,
            cache_dir=cache_dir,
            policy=resolve_policy(on_error),
            ledger_dir=resolve_ledger_dir(ledger_dir),
        )
    finally:
        # One prune per batch (not per store) — in a finally so the
        # cap holds even when a streaming consumer stops early and
        # closes the generator.
        if cache_dir is not None and cache_max_entries is not None:
            prune_cache(cache_dir, cache_max_entries)


def _annotate_spec_failure(
    exc: Exception, index: int, spec: RunSpec, fingerprint: str
) -> None:
    """Attach the failing spec's batch position to a propagating error.

    The exception *type* is preserved (callers keep catching what the
    algorithm raised); the batch context rides along as attributes and
    an exception note, so an aborted ``run_many`` names which spec
    killed it.
    """
    exc.spec_index = index  # type: ignore[attr-defined]
    exc.spec_fingerprint = fingerprint  # type: ignore[attr-defined]
    exc.add_note(
        f"while executing spec {index} ({spec.label()}, "
        f"fingerprint {fingerprint[:12]}) of a run_many batch"
    )


def _run_many_iter_inner(
    specs: Iterable[RunSpec],
    *,
    parallel: int,
    cache: bool,
    cache_dir: str | Path | None,
    policy: FailurePolicy,
    ledger_dir: str | None = None,
) -> Iterator[tuple[int, RunResult]]:
    ordered = list(specs)
    fingerprints = [spec.fingerprint() for spec in ordered]
    indices_of: dict[str, list[int]] = {}
    for index, fingerprint in enumerate(fingerprints):
        indices_of.setdefault(fingerprint, []).append(index)

    def emissions(
        fingerprint: str, result: RunResult
    ) -> Iterator[tuple[int, RunResult]]:
        for index in indices_of[fingerprint]:
            yield index, result

    todo: dict[str, RunSpec] = {}
    resolved: set[str] = set()
    for fingerprint, spec in zip(fingerprints, ordered):
        if fingerprint in resolved or fingerprint in todo:
            continue
        hit, _ = _replay(
            fingerprint,
            spec,
            cache=cache,
            cache_dir=cache_dir,
            ledger_dir=ledger_dir,
        )
        if hit is not None:
            resolved.add(fingerprint)
            yield from emissions(fingerprint, hit)
        else:
            todo[fingerprint] = spec

    if parallel <= 1 or len(todo) <= 1:
        for fingerprint, spec in todo.items():
            try:
                result = run(
                    spec,
                    cache=cache,
                    cache_dir=cache_dir,
                    on_error=policy,
                    ledger_dir=ledger_dir,
                    _fingerprint=fingerprint,
                )
            except Exception as exc:
                _annotate_spec_failure(
                    exc, indices_of[fingerprint][0], spec, fingerprint
                )
                raise
            yield from emissions(fingerprint, result)
    else:
        options = {"on_error": policy, "ledger_dir": ledger_dir}
        payloads = (
            (key, (spec.to_dict(), {**options, "_fingerprint": key}, False))
            for key, spec in todo.items()
        )
        replies = WorkerPool.map_unordered(min(parallel, len(todo)), payloads)
        with closing(replies):
            for fingerprint, ok, result in replies:
                if not ok:
                    _annotate_spec_failure(
                        result,
                        indices_of[fingerprint][0],
                        todo[fingerprint],
                        fingerprint,
                    )
                    raise result
                if not result.is_failure():
                    if cache:
                        _cache_store(fingerprint, result)
                    if cache_dir is not None:
                        disk_store(cache_dir, fingerprint, result)
                yield from emissions(fingerprint, result)


def run_many(
    specs: Iterable[RunSpec],
    *,
    parallel: int = 1,
    cache: bool = True,
    cache_dir: str | Path | None = None,
    cache_max_entries: int | None = None,
    on_error: str | FailurePolicy = "raise",
    ledger_dir: str | Path | None = None,
) -> list[RunResult]:
    """Execute many specs, optionally fanning out over processes.

    Results come back in spec order, byte-identical to serial
    execution regardless of ``parallel``.  Duplicate specs (same
    fingerprint) are executed once and share the result object;
    already-cached specs (in-process, or on-disk
    when ``cache_dir`` is given) are not re-executed at all.  Every
    executed spec is validated as in :func:`run`, inside its worker
    when ``parallel > 1``.

    Parameters
    ----------
    specs:
        The run descriptions.
    parallel:
        Worker process count; ``1`` (the default) runs serially in
        this process.  Parallel execution is deterministic: results
        are keyed by spec fingerprint, never by completion order.
    cache / cache_dir / cache_max_entries:
        As for :func:`run`.
    on_error:
        Failure policy (see :func:`run_many_iter`): ``"raise"``
        (default) aborts the batch with the failing spec's index and
        fingerprint attached to the exception; ``"capture"`` puts a
        :class:`~repro.results.FailedResult` in the failing spec's
        slot — byte-identical serial vs. parallel, failures included.
        Under either, a worker that dies aborts a parallel batch with
        :class:`~repro.errors.ServiceUnavailable`, annotated the same
        way.
    """
    ordered = list(specs)
    results: list[RunResult | None] = [None] * len(ordered)
    for index, result in run_many_iter(
        ordered,
        parallel=parallel,
        cache=cache,
        cache_dir=cache_dir,
        cache_max_entries=cache_max_entries,
        on_error=on_error,
        ledger_dir=ledger_dir,
    ):
        results[index] = result
    return results  # type: ignore[return-value]


def specs_for_race(
    instance: InstanceSpec,
    *,
    algorithms: Sequence[str] | None = None,
    policy: str | None = None,
) -> list[RunSpec]:
    """One spec per algorithm on a single instance (a "race").

    ``algorithms=None`` means every registered algorithm — the paper
    solver included, as its own entrant.  ``policy`` applies to the
    paper solver only.
    """
    from repro.api.registry import algorithm_names, get_algorithm

    names = list(algorithms) if algorithms is not None else algorithm_names()
    return [
        RunSpec(
            instance=instance,
            algorithm=name,
            policy=policy if get_algorithm(name).kind == "paper" else None,
        )
        for name in names
    ]


def specs_for_scenarios(
    instance: InstanceSpec,
    scenarios: Sequence["ScenarioSpec"],
    *,
    algorithm: str = "greedy_sequential",
) -> list[RunSpec]:
    """One spec per execution model on a single instance and algorithm.

    The scenario sibling of :func:`specs_for_race`: sweep *conditions*
    instead of contestants.  The algorithm must be scenario-capable for
    non-identity models (see
    :func:`repro.scenarios.programs.scenario_capable`).
    """
    return [
        RunSpec(instance=instance, algorithm=algorithm, scenario=scenario)
        for scenario in scenarios
    ]
