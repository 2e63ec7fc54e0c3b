"""The worker loop: drain claimable shards through the batch executor.

``python -m repro worker <job_dir>`` runs this (any number of times, on
any machine that sees the directory).  One pass of the loop:

1. scan the shards for one that is not done and claimable (unclaimed,
   or holding a stale lease) — lowest shard index first, so workers
   starting together fan out deterministically after their first
   collisions;
2. claim it, then run its specs **serially** through
   :func:`repro.api.run_many_iter` with ``cache_dir=`` pointed at the
   job's shared spill directory.  Every finished spec lands in the
   cache immediately, so a worker that dies mid-shard leaves its
   progress behind — the reclaiming worker replays the finished specs
   from disk and only executes the remainder;
3. heartbeat the lease after every spec (a heartbeat that fails means
   the lease was reclaimed from us: abandon the shard without
   publishing);
4. publish the sealed result file atomically and release the claim.

The loop exits when a full scan finds nothing claimable: either the
job is complete, or every remaining shard is leased to a live worker
(the summary distinguishes the two).  Workers never merge — that is
the coordinator's job — and never need to agree on anything but the
directory: all coordination is the claim files.

**Failure modes.**  Workers execute with a failure policy (default
``on_error="capture"``): a spec whose every attempt raises becomes a
:class:`~repro.results.FailedResult` recorded in the shard's sealed
result file *and* quarantined as a **dead letter** —
``failed/<fingerprint>.json``, sealed, holding the failure record plus
the full traceback text for debugging.  A reclaiming worker (or a
resumed job) reuses valid dead letters instead of re-looping the
poison spec, exactly as it replays successful specs from the shared
cache; a torn or foreign dead-letter file is treated as absent and the
spec re-runs.  Under ``on_error="raise"`` a poison spec kills the
worker process — its lease goes stale and another worker (or the
coordinator's drain) inherits the shard, so *some* account of the spec
is still forced: prefer capture for unattended fleets.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.api.diskcache import atomic_write_json, read_json
from repro.api.failures import FailurePolicy, resolve_policy
from repro.api.runner import run_many_iter
from repro.cluster.planner import (
    PLAN_FORMAT,
    load_plan,
    load_task,
    shard_name,
)
from repro.cluster.queue import DEFAULT_LEASE_TTL, ShardQueue, result_path
from repro.results import FailedResult, fingerprint_of
from repro.telemetry.events import emit_event, events_context, events_dir_of
from repro.telemetry.trace import trace

#: Subdirectory of the job dir all workers spill per-spec results into.
CACHE_SUBDIR = "cache"

#: Subdirectory all workers append run-ledger records into (defaulted
#: on by :func:`run_shard`; observational, like ``events/``).
LEDGER_SUBDIR = "ledger"

#: Subdirectory holding dead-letter records of captured spec failures
#: (one sealed JSON per failed spec fingerprint, next to ``results/``).
FAILED_SUBDIR = "failed"

#: Dead-letter file format version.
DEAD_LETTER_FORMAT = 1


def cache_dir_of(job_dir: str | Path) -> Path:
    """The job's shared per-spec result cache (intra-shard resume)."""
    return Path(job_dir) / CACHE_SUBDIR


def ledger_dir_of(job_dir: str | Path) -> Path:
    """The job's shared run-ledger directory (one file per worker pid)."""
    return Path(job_dir) / LEDGER_SUBDIR


def dead_letter_path(job_dir: str | Path, fingerprint: str) -> Path:
    """The dead-letter file of one failed spec fingerprint."""
    return Path(job_dir) / FAILED_SUBDIR / f"{fingerprint}.json"


def quarantine_failure(
    job_dir: str | Path, plan_fingerprint: str, failed: FailedResult
) -> None:
    """Seal and atomically publish one captured failure as a dead letter.

    The sealed body carries the deterministic failure record plus the
    observational extras (full traceback text, wall-clock) that stay
    out of the record itself.  Concurrent quarantiners of the same
    fingerprint publish equivalent records; the last write wins.
    """
    body = {
        "format": DEAD_LETTER_FORMAT,
        "fingerprint": failed.fingerprint,
        "plan_fingerprint": plan_fingerprint,
        "result": failed.to_dict(),
        "traceback": failed.traceback_text,
        "wall_clock_s": failed.wall_clock_s,
    }
    atomic_write_json(
        dead_letter_path(job_dir, failed.fingerprint),
        {**body, "seal": fingerprint_of(body)},
    )


def load_dead_letter(
    job_dir: str | Path, fingerprint: str, *, plan_fingerprint: str
) -> FailedResult | None:
    """Load one quarantined failure, or ``None`` if absent/invalid.

    The integrity discipline of every other cluster file: a torn seal,
    a foreign plan, or a record that is not actually a failure is
    treated exactly like a missing file — the spec re-runs rather than
    half-trusting a corrupt quarantine entry.
    """
    payload = read_json(dead_letter_path(job_dir, fingerprint))
    if not isinstance(payload, dict):
        return None
    body = {key: value for key, value in payload.items() if key != "seal"}
    if (
        payload.get("seal") != fingerprint_of(body)
        or body.get("format") != DEAD_LETTER_FORMAT
        or body.get("fingerprint") != fingerprint
        or body.get("plan_fingerprint") != plan_fingerprint
    ):
        return None
    try:
        result = FailedResult.from_dict(body["result"])
    except Exception:
        return None
    if not result.is_failure() or result.fingerprint != fingerprint:
        return None
    traceback_text = body.get("traceback")
    if isinstance(traceback_text, str):
        result = dataclasses.replace(result, traceback_text=traceback_text)
    return result


def load_dead_letters(
    job_dir: str | Path, *, plan_fingerprint: str
) -> dict[str, FailedResult]:
    """All valid quarantined failures of a job, by spec fingerprint."""
    directory = Path(job_dir) / FAILED_SUBDIR
    if not directory.is_dir():
        return {}
    letters: dict[str, FailedResult] = {}
    for path in sorted(directory.glob("*.json")):
        fingerprint = path.stem
        loaded = load_dead_letter(
            job_dir, fingerprint, plan_fingerprint=plan_fingerprint
        )
        if loaded is not None:
            letters[fingerprint] = loaded
    return letters


def publish_shard_result(
    job_dir: str | Path,
    shard: int,
    plan_fingerprint: str,
    results: dict[str, dict],
) -> None:
    """Seal and atomically publish one shard's ``fingerprint -> result``."""
    body = {
        "format": PLAN_FORMAT,
        "shard": shard,
        "plan_fingerprint": plan_fingerprint,
        "results": results,
    }
    atomic_write_json(
        result_path(job_dir, shard), {**body, "seal": fingerprint_of(body)}
    )


def run_shard(
    job_dir: str | Path,
    shard: int,
    queue: ShardQueue,
    *,
    plan_fingerprint: str,
    on_error: str | FailurePolicy = "capture",
) -> int | None:
    """Execute one claimed shard; returns specs run, or ``None`` if lost.

    The caller must hold the shard's lease.  Specs run serially in the
    task file's (sorted-fingerprint) order with the job cache as spill;
    the lease is heartbeaten after every spec.  A failed heartbeat
    means another worker reclaimed the shard — abandon it silently
    (the usurper will publish the identical result).

    Failures already quarantined in ``failed/`` are reused (never
    re-looped); fresh captured failures are quarantined as they stream
    out and recorded in the shard's result file alongside successes.

    The run ledger is defaulted **on**: every spec this shard resolves
    (execution, cache replay, captured failure) appends a record under
    ``<job_dir>/ledger/`` — the raw material of ``python -m repro
    report`` and the ledger columns of ``shard status``.  So is the
    **event stream** (``<job_dir>/events/``): the drain runs under
    :func:`~repro.telemetry.events.events_context`, so the executor's
    per-spec ``spec_resolved`` / ``spec_retry`` events land there, and
    the shard lifecycle (heartbeat, dead letter, sealed, abandoned) is
    emitted here.  ``shard_sealed`` is the shard's wall-clock account
    (``plan_fingerprint``, the lease holder as ``shard_worker``,
    ``specs_total``, ``specs_executed`` — specs drained through the
    executor; reused dead letters count in the total only — and
    ``wall_clock_s``), which
    :func:`~repro.cluster.coordinator.job_status` reports as
    ``timing``.  Both are observational and best-effort; neither ever
    enters the sealed result file.
    """
    policy = resolve_policy(on_error)
    events_dir = events_dir_of(job_dir)
    started_at = time.time()
    specs = load_task(job_dir, shard)
    ordered = list(specs.items())
    results: dict[str, dict] = {}
    executed = 0
    todo: list[tuple[str, object]] = []
    for fingerprint, spec in ordered:
        quarantined = load_dead_letter(
            job_dir, fingerprint, plan_fingerprint=plan_fingerprint
        )
        if quarantined is not None:
            results[fingerprint] = quarantined.to_dict()
        else:
            todo.append((fingerprint, spec))
    if todo:
        batch = [spec for _, spec in todo]
        with trace("shard.drain", shard=shard, specs=len(batch)), \
                events_context(events_dir):
            for index, result in run_many_iter(
                batch,
                parallel=1,
                cache=False,  # worker processes are short-lived; disk is the memo
                cache_dir=cache_dir_of(job_dir),
                on_error=policy,
                ledger_dir=ledger_dir_of(job_dir),
            ):
                if result.is_failure():
                    quarantine_failure(job_dir, plan_fingerprint, result)
                    emit_event(
                        "dead_letter",
                        events_dir,
                        shard=shard,
                        fingerprint=todo[index][0],
                        error_type=result.error_type,
                        attempts=result.attempts,
                    )
                # An executed result is already sealed with its memoized
                # JSON text (the disk entry's): parse it rather than
                # serialize the result a second time.
                results[todo[index][0]] = json.loads(result.to_json())
                executed += 1
                if not queue.heartbeat(shard):
                    emit_event("shard_abandoned", events_dir, shard=shard)
                    return None
                emit_event(
                    "shard_heartbeat",
                    events_dir,
                    shard=shard,
                    done=executed,
                    total=len(todo),
                )
    with trace("shard.publish", shard=shard):
        publish_shard_result(job_dir, shard, plan_fingerprint, results)
    emit_event(
        "shard_sealed",
        events_dir,
        shard=shard,
        plan_fingerprint=plan_fingerprint,
        shard_worker=queue.worker_id,
        specs_total=len(ordered),
        specs_executed=executed,
        wall_clock_s=round(time.time() - started_at, 6),
    )
    queue.release(shard)
    return executed


def work_loop(
    job_dir: str | Path,
    *,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    clock: Callable[[], float] = time.time,
    max_shards: int | None = None,
    verified: set[int] | None = None,
    on_error: str | FailurePolicy = "capture",
) -> dict[str, Any]:
    """Drain claimable shards until none remain; return a summary.

    ``max_shards`` caps how many shards this call will execute (used by
    tests to model a worker dying between shards, and handy for
    time-boxed draining).  ``verified`` is an optional persistent set
    of shard indices whose result files have already passed their
    integrity check — the coordinator's polling drain passes one so
    repeated calls do not re-parse every completed shard per tick.
    ``on_error`` is the failure policy specs execute under (see
    :func:`run_shard`; default capture — poison specs are quarantined,
    not fatal).  The summary is JSON-safe::

        {"worker": ..., "completed": [shard, ...], "specs_run": n,
         "abandoned": [...], "job_complete": bool, "outstanding": [...]}

    ``abandoned`` lists shards whose lease was reclaimed from under us
    mid-run; ``outstanding`` lists shards neither done nor claimable
    when the loop exited (live leases of other workers).
    """
    plan = load_plan(job_dir)
    plan_fingerprint = plan.plan_fingerprint()
    queue = ShardQueue(
        job_dir, worker_id=worker_id, lease_ttl=lease_ttl, clock=clock
    )
    if verified is None:
        verified = set()

    def shard_done(shard: int) -> bool:
        # "Done" means a result file that passes its integrity check —
        # a torn or foreign file must re-run, not wedge the merge.  The
        # seal is verified once per shard per loop (memoised); later
        # scans fall back to the cheap existence probe.
        if shard in verified:
            return queue.is_done(shard)
        if not queue.is_done(shard):
            return False
        from repro.cluster.coordinator import load_shard_results

        if (
            load_shard_results(
                job_dir, shard, plan_fingerprint=plan_fingerprint
            )
            is None
        ):
            try:
                result_path(job_dir, shard).unlink()
            except OSError:
                pass
            return False
        verified.add(shard)
        return True

    completed: list[int] = []
    abandoned: list[int] = []
    specs_run = 0
    progressed = True
    while progressed:
        progressed = False
        for shard in range(plan.shards):
            if max_shards is not None and len(completed) >= max_shards:
                progressed = False
                break
            if shard_done(shard):
                continue
            with trace("shard.claim", shard=shard) as span:
                claimed = queue.claim(shard)
                span.annotate(claimed=claimed)
            if not claimed:
                continue
            emit_event(
                "shard_claimed",
                events_dir_of(job_dir),
                shard=shard,
                specs=len(plan.assignment[shard]),
            )
            executed = run_shard(
                job_dir,
                shard,
                queue,
                plan_fingerprint=plan_fingerprint,
                on_error=on_error,
            )
            if executed is None:
                abandoned.append(shard)
            else:
                completed.append(shard)
                specs_run += executed
            progressed = True
    outstanding = [
        shard for shard in range(plan.shards) if not shard_done(shard)
    ]
    return {
        "worker": queue.worker_id,
        "completed": completed,
        "specs_run": specs_run,
        "abandoned": abandoned,
        "outstanding": outstanding,
        "job_complete": not outstanding,
        "shards": [shard_name(shard) for shard in completed],
    }
