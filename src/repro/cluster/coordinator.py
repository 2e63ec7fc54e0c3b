"""The coordinator: plan, drive workers, merge — byte-identical to serial.

:func:`run_sharded` is the cluster twin of :func:`repro.api.run_many`:
same input (a spec batch), same output (the spec-ordered result list),
same bytes.  In between it (1) plans the batch into a job directory
(or verifies and adopts the plan already there — that is what makes a
re-run *resume* instead of restart), (2) optionally spawns local
worker subprocesses (``python -m repro worker``), (3) drains whatever
remains in-process — reclaiming the stale leases of crashed workers —
and (4) merges the sealed shard results.

**The byte-identical contract.**  Merging reads each distinct spec's
result from its shard file and lays results out in batch order,
duplicates sharing the loaded (immutable) object — the exact object
discipline of ``run_many``.  Results
round-trip through JSON on the way (shard files are sealed JSON), and
:meth:`repro.results.RunResult.to_dict` round-trips exactly, so
``canonical_json(r.to_dict())`` of every merged result equals its
serial counterpart byte for byte; ``tests/test_cluster_coordinator.py``
pins this over mixed adversarial batches.

**Resume guarantees.**  Every layer is idempotent-by-content: the plan
is a pure function of the specs, per-spec results spill into the
shared cache as they finish, shard results publish atomically, and
leases go stale rather than wedging the job.  Killing any worker (or
the coordinator itself) at any point loses at most the specs currently
in flight; re-running ``run_sharded`` with the same batch and
directory completes the job from the surviving state.

**Failure modes.**  The coordinator never blocks forever on its own
workers: :func:`wait_for_workers` watches each subprocess's *lease
heartbeats* (a healthy worker heartbeats after every spec) and a
worker that shows no sign of life past its grace window is escalated
— ``terminate()``, a short grace, then ``kill()`` — with the event
emitted to the job's event stream (``events/``) and surfaced by
``shard status``.  Specs run under a failure policy (default capture):
poison specs end up quarantined in ``failed/`` as
:class:`~repro.results.FailedResult` records that merge into their
batch slots, so ``run_sharded`` terminates with an account of every
spec — what succeeded, what failed, why, and what was retried.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.api.diskcache import read_json
from repro.api.failures import FailurePolicy, resolve_policy
from repro.api.spec import RunSpec
from repro.cluster.planner import PLAN_FORMAT, ensure_plan, load_plan
from repro.cluster.queue import (
    DEFAULT_LEASE_TTL,
    ShardQueue,
    claim_path,
    result_path,
)
from repro.cluster.worker import (
    dead_letter_path,
    ledger_dir_of,
    load_dead_letters,
    work_loop,
)
from repro.errors import ClusterError, ParameterError
from repro.results import RunResult, fingerprint_of
from repro.telemetry.events import emit_event, events_dir_of, read_events

#: The coordinator-observed worker events ``job_status`` reports.
WORKER_EVENTS = ("worker_exit_nonzero", "worker_hung", "worker_stopped")

#: The keys the event stream wraps around an event's own fields.
_ENVELOPE_KEYS = frozenset(
    ("kind", "format", "seq", "worker", "unix_ts", "cursor")
)

#: Seconds a terminated worker gets to exit before it is killed.
TERMINATE_GRACE_S = 5.0


def load_shard_results(
    job_dir: str | Path, shard: int, *, plan_fingerprint: str
) -> dict[str, RunResult] | None:
    """Load one shard's sealed results, or ``None`` if absent/invalid.

    An invalid file (torn seal, foreign plan) is treated exactly like a
    missing one — the shard counts as not done and re-runs — so a
    corrupted result can never reach a merge.
    """
    payload = read_json(result_path(job_dir, shard))
    if not isinstance(payload, dict):
        return None
    body = {key: value for key, value in payload.items() if key != "seal"}
    if (
        payload.get("seal") != fingerprint_of(body)
        or body.get("format") != PLAN_FORMAT
        or body.get("shard") != shard
        or body.get("plan_fingerprint") != plan_fingerprint
    ):
        return None
    try:
        return {
            fingerprint: RunResult.from_dict(result)
            for fingerprint, result in body["results"].items()
        }
    except Exception:
        return None


def merge_results(
    specs: Sequence[RunSpec] | None, job_dir: str | Path
) -> list[RunResult]:
    """Merge a completed job into the ordered ``run_many`` result list.

    ``specs=None`` merges in the planned batch's own order (the CLI
    path); passing the batch explicitly additionally asserts it matches
    the plan.  Raises :class:`~repro.errors.ClusterError` naming the
    missing shards if the job is incomplete.
    """
    plan = load_plan(job_dir)
    if specs is not None:
        from repro.cluster.planner import plan_shards

        offered = plan_shards(specs, shards=plan.shards)
        if offered.plan_fingerprint() != plan.plan_fingerprint():
            raise ClusterError(
                f"job directory {Path(job_dir)} holds plan "
                f"{plan.plan_fingerprint()[:12]} but the offered specs "
                f"plan to {offered.plan_fingerprint()[:12]}; refusing to "
                "merge a different experiment's batch"
            )
    return _merge_with_plan(plan, job_dir)


def _merge_with_plan(plan, job_dir: str | Path) -> list[RunResult]:
    """Merge against an already-verified plan (no manifest re-reads).

    Spec fingerprints hash edge-list file *content* for path-based
    instances, so recomputing the plan is real I/O — callers that just
    planned (``run_sharded``) hand their plan straight in.
    """
    plan_fingerprint = plan.plan_fingerprint()
    by_fingerprint: dict[str, RunResult] = {}
    missing: list[int] = []
    for shard in range(plan.shards):
        loaded = load_shard_results(
            job_dir, shard, plan_fingerprint=plan_fingerprint
        )
        if loaded is None:
            missing.append(shard)
            continue
        absent = [f for f in plan.assignment[shard] if f not in loaded]
        if absent:
            raise ClusterError(
                f"shard {shard} result file lacks fingerprints "
                f"{[f[:12] for f in absent]}; the shard was published "
                "against a different task — re-plan the job"
            )
        by_fingerprint.update(loaded)
    if missing:
        raise ClusterError(
            f"job {Path(job_dir)} is incomplete: shards {missing} have no "
            "valid sealed result yet (run workers or run_sharded to "
            "finish it)"
        )
    # run_many's object discipline: every occurrence of a fingerprint
    # yields the one loaded (immutable) object.
    return [by_fingerprint[fingerprint] for fingerprint in plan.fingerprints]


def _ledger_shard_stats(job_dir: str | Path, plan) -> dict[str, dict[str, int]]:
    """Per-shard attempt/retry accounting from the job's run ledger.

    Groups the ``kind: "run"`` records under ``<job>/ledger/`` by
    spec fingerprint (keeping the **max** attempts seen per spec — a
    spec re-executed after a worker death would otherwise double
    count), then rolls them up by the plan's shard assignment.
    Observational like the event stream: a missing or foreign
    ledger simply yields no entry for a shard, never an error.
    """
    from repro.telemetry.ledger import read_ledger_rows

    known = set(plan.fingerprints)
    per_spec: dict[str, dict[str, int]] = {}
    for row in read_ledger_rows(ledger_dir_of(job_dir)):
        if row.get("kind") != "run":
            continue
        fingerprint = row.get("fingerprint")
        if fingerprint not in known:
            continue
        attempts = row.get("attempts")
        attempts = (
            attempts
            if isinstance(attempts, int) and not isinstance(attempts, bool)
            else 0
        )
        info = per_spec.setdefault(
            fingerprint,
            {"attempts": 0, "executed": 0, "cache_hits": 0, "failed": 0},
        )
        disposition = row.get("disposition")
        if disposition in ("executed", "failed"):
            info["executed"] += 1
            info["attempts"] = max(info["attempts"], attempts)
            if disposition == "failed":
                info["failed"] += 1
        elif disposition in ("cache_memory", "cache_disk"):
            info["cache_hits"] += 1
    stats: dict[str, dict[str, int]] = {}
    for fingerprint, info in per_spec.items():
        shard = str(plan.shard_of(fingerprint))
        entry = stats.setdefault(
            shard,
            {
                "specs_recorded": 0,
                "attempts": 0,
                "retries": 0,
                "cache_hits": 0,
                "failed": 0,
            },
        )
        entry["specs_recorded"] += 1
        entry["attempts"] += info["attempts"]
        entry["retries"] += max(0, info["attempts"] - 1)
        entry["cache_hits"] += info["cache_hits"]
        entry["failed"] += min(1, info["failed"])
    return dict(sorted(stats.items(), key=lambda item: int(item[0])))


def _sealed_timing(event: Mapping[str, Any] | None) -> dict[str, Any] | None:
    """A done shard's ``timing`` entry from its ``shard_sealed`` event.

    ``None`` for a missing event or an unusable wall-clock: timing must
    never make ``status`` lie, only stay silent.
    """
    if event is None:
        return None
    wall = event.get("wall_clock_s")
    if (
        isinstance(wall, bool)
        or not isinstance(wall, (int, float))
        or not math.isfinite(wall)
        or wall < 0
    ):
        # Rejecting inf/nan here (not just negatives) keeps every
        # downstream rate division finite — a hand-edited or corrupt
        # event must not turn ``status`` output into ``Infinity``.
        return None
    wall = float(wall)
    executed = event.get("specs_executed")
    entry: dict[str, Any] = {
        "state": "done",
        "wall_clock_s": wall,
        "specs_total": event.get("specs_total"),
        "specs_executed": executed,
        "worker": event.get("shard_worker"),
        "specs_per_s": None,
    }
    # A sub-millisecond shard legitimately records wall == 0.0 (the
    # event rounds to microseconds), so the rate is unknowable, not
    # infinite: leave specs_per_s as None rather than divide.
    if isinstance(executed, int) and executed > 0 and wall > 0:
        rate = executed / wall
        if math.isfinite(rate):
            entry["specs_per_s"] = round(rate, 3)
    return entry


def job_status(
    job_dir: str | Path,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    clock: Callable[[], float] = time.time,
) -> dict[str, Any]:
    """JSON-safe snapshot of a job's progress (CLI ``shard status``).

    Alongside the shard queue state, reports the job's failure
    account: ``failed`` (quarantined spec fingerprints with error type
    and attempt count, from the ``failed/`` dead-letter store) and
    ``worker_events`` (hung-worker escalations, non-zero worker exits
    and early stops the coordinator emitted, in stream order, each
    without its stream envelope).

    ``timing`` maps each shard (as a string key — the snapshot is
    JSON-safe) to its wall-clock account: completed shards report the
    last ``shard_sealed`` event of this plan that
    :func:`repro.cluster.worker.run_shard` emitted for them
    (``wall_clock_s``, ``specs_total``, ``specs_executed``, derived
    ``specs_per_s``, publishing ``worker``), running shards report
    ``elapsed_s`` since their lease was claimed.  Timing is
    observational: a shard with no usable seal event has no entry.

    Both ``timing`` and ``worker_events`` come from one read of the
    job's event stream (``<job_dir>/events/``).

    ``ledger`` maps each shard (string key) to the attempt/retry
    account derived from the job's run ledger
    (:func:`_ledger_shard_stats`): recorded specs, total attempts,
    retries beyond the first attempt, cache replays, and failed specs
    — the columns ``shard status`` shows next to wall-clock and
    specs/sec.
    """
    plan = load_plan(job_dir)
    queue = ShardQueue(job_dir, lease_ttl=lease_ttl, clock=clock)
    status = queue.status(plan.shards)
    status["plan_fingerprint"] = plan.plan_fingerprint()
    status["specs"] = len(plan.specs)
    status["distinct_specs"] = len(set(plan.fingerprints))
    status["specs_done"] = sum(
        len(plan.assignment[shard]) for shard in status["done"]
    )
    now = clock()
    events, _ = read_events(events_dir_of(job_dir))
    sealed: dict[int, dict[str, Any]] = {}
    worker_events: list[dict[str, Any]] = []
    for event in events:
        kind = event.get("event")
        if (
            kind == "shard_sealed"
            and event.get("plan_fingerprint") == status["plan_fingerprint"]
            and isinstance(event.get("shard"), int)
        ):
            sealed[event["shard"]] = event  # the last seal wins
        elif kind in WORKER_EVENTS:
            worker_events.append(
                {
                    key: value
                    for key, value in event.items()
                    if key not in _ENVELOPE_KEYS
                }
            )
    timing: dict[str, dict[str, Any]] = {}
    for shard in status["done"]:
        entry = _sealed_timing(sealed.get(shard))
        if entry is not None:
            timing[str(shard)] = entry
    for shard in status["running"]:
        lease = queue.lease_of(shard)
        claimed = (lease or {}).get("claimed_at")
        timing[str(shard)] = {
            "state": "running",
            "elapsed_s": (
                round(now - claimed, 3)
                if isinstance(claimed, (int, float))
                else None
            ),
            "specs_total": len(plan.assignment[shard]),
        }
    status["timing"] = timing
    status["ledger"] = _ledger_shard_stats(job_dir, plan)
    letters = load_dead_letters(
        job_dir, plan_fingerprint=plan.plan_fingerprint()
    )
    status["failed"] = {
        fingerprint: {
            "error_type": failed.error_type,
            "error_message": failed.error_message,
            "attempts": failed.attempts,
        }
        for fingerprint, failed in sorted(letters.items())
    }
    status["worker_events"] = worker_events
    return status


def _forwardable(on_error: str | FailurePolicy) -> FailurePolicy:
    """The resolved policy, or :class:`~repro.errors.ParameterError` if
    a spawned worker could not follow it (see
    :func:`spawn_local_worker`)."""
    policy = resolve_policy(on_error)
    default = FailurePolicy()
    unforwarded = [
        name
        for name in ("max_backoff_s", "backoff_seed")
        if getattr(policy, name) != getattr(default, name)
    ]
    if policy.backoff_s > 0 and unforwarded:
        raise ParameterError(
            f"a spawned worker cannot take {' or '.join(unforwarded)} "
            "(the worker CLI has no such flag), so it would back off on "
            "a different schedule; keep their defaults or set backoff_s=0"
        )
    return policy


def spawn_local_worker(
    job_dir: str | Path,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    on_error: str | FailurePolicy = "capture",
    extra_env: Mapping[str, str] | None = None,
) -> subprocess.Popen:
    """Start one detached ``python -m repro worker`` on this machine.

    The child gets ``repro``'s own package root prepended to
    ``PYTHONPATH``, so spawning works from any checkout layout without
    the caller exporting anything.  The failure policy is forwarded as
    CLI flags; ``extra_env`` adds environment variables (the chaos
    harness ships its fault plan to workers this way).

    The worker CLI has no flags for ``max_backoff_s`` or
    ``backoff_seed``.  A policy that backs off (``backoff_s > 0``) with
    either changed from its :class:`~repro.api.failures.FailurePolicy`
    default raises :class:`~repro.errors.ParameterError` before any
    process starts: the worker would sleep a different retry schedule
    from this process's drain.
    """
    import repro

    policy = _forwardable(on_error)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else os.pathsep.join([src_dir, existing])
    )
    if extra_env:
        env.update(extra_env)
    command = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        str(job_dir),
        "--lease-ttl",
        str(lease_ttl),
        "--on-error",
        policy.on_error,
        "--retries",
        str(policy.retries),
        "--backoff-s",
        str(policy.backoff_s),
    ]
    if policy.timeout_s is not None:
        command.extend(["--timeout-s", str(policy.timeout_s)])
    return subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _escalate(proc: subprocess.Popen) -> str:
    """terminate → grace → kill; returns the action that ended the proc."""
    proc.terminate()
    try:
        proc.wait(timeout=TERMINATE_GRACE_S)
        return "terminated"
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return "killed"


class WorkerWatch:
    """Bounded-patience supervision of worker subprocesses.

    A healthy worker shows signs of life: it heartbeats its shard
    lease after every spec (the lease's ``worker`` id ends with its
    pid), and eventually exits.  A worker that does neither for
    ``grace_s`` seconds (default ``max(2 * lease_ttl, 10)``) is
    **wedged** — hung in a spec with no deadline, or stuck before its
    first claim — and is escalated: ``terminate()``, then ``kill()``
    after :data:`TERMINATE_GRACE_S`.  Its shard (if any) is recovered
    by the ordinary stale-lease protocol.

    The watch accumulates events (hung-worker escalations, non-zero
    exits, early stops) in ``events`` and emits each one to the job's
    event stream as it happens.  :meth:`poll` is one supervision
    tick, cheap enough to interleave with other work — this is how
    :func:`run_sharded_iter` supervises its workers *while* draining
    and streaming results instead of blocking on them first.
    :meth:`drain` loops poll-and-sleep until every worker is reaped
    (the classic :func:`wait_for_workers` behaviour); :meth:`shutdown`
    escalates whatever still runs, for callers abandoning the job
    early (a closed result stream must not leak subprocesses).

    This is the liveness guarantee ``run_sharded`` builds on: the
    coordinator can always outwait its own workers, so a submitted
    batch always terminates with an account of every spec.
    """

    def __init__(
        self,
        procs: Sequence[subprocess.Popen],
        job_dir: str | Path,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        grace_s: float | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.lease_ttl = lease_ttl
        self.grace_s = grace_s if grace_s is not None else max(2 * lease_ttl, 10.0)
        self.events: list[dict[str, Any]] = []
        self._stream_dir = events_dir_of(job_dir)
        self._clock = clock
        self._waiting: dict[int, subprocess.Popen] = {}
        self._last_alive: dict[int, float] = {}
        self._claims_dir = claim_path(job_dir, 0).parent
        for proc in procs:
            self.add(proc)

    def add(self, proc: subprocess.Popen) -> None:
        """Watch one more worker, alive as of now."""
        index = len(self._last_alive)
        self._waiting[index] = proc
        self._last_alive[index] = self._clock()

    def _record(self, event: str, **fields: Any) -> None:
        """Keep one worker event and emit it to the job's event stream."""
        self.events.append({"event": event, **fields})
        emit_event(event, self._stream_dir, **fields)

    @property
    def waiting(self) -> int:
        """Workers not yet reaped."""
        return len(self._waiting)

    def _live_pids(self, now: float) -> set[int]:
        """Pids with a fresh lease heartbeat (worker ids end in pid)."""
        live: set[int] = set()
        if self._claims_dir.is_dir():
            for path in self._claims_dir.glob("*.json"):
                lease = read_json(path)
                if not isinstance(lease, dict):
                    continue
                heartbeat = lease.get("heartbeat_at")
                worker = lease.get("worker", "")
                if (
                    isinstance(heartbeat, (int, float))
                    and now - heartbeat <= self.lease_ttl
                    and isinstance(worker, str)
                ):
                    _, _, pid_text = worker.rpartition(":")
                    if pid_text.isdigit():
                        live.add(int(pid_text))
        return live

    def poll(self) -> None:
        """One supervision tick: reap exits, escalate the lifeless."""
        for index, proc in list(self._waiting.items()):
            if proc.poll() is None:
                continue
            if proc.returncode != 0:
                self._record(
                    "worker_exit_nonzero",
                    pid=proc.pid,
                    returncode=proc.returncode,
                )
            del self._waiting[index]
        if not self._waiting:
            return
        now = self._clock()
        live_pids = self._live_pids(now)
        for index, proc in list(self._waiting.items()):
            if proc.pid in live_pids:
                self._last_alive[index] = now
            elif now - self._last_alive[index] > self.grace_s:
                action = _escalate(proc)
                self._record(
                    "worker_hung",
                    pid=proc.pid,
                    action=action,
                    waited_s=round(now - self._last_alive[index], 3),
                )
                del self._waiting[index]

    def drain(self, poll_s: float = 0.1) -> list[dict[str, Any]]:
        """Poll until every worker is reaped; returns the event list."""
        while self._waiting:
            self.poll()
            if self._waiting:
                time.sleep(poll_s)
        return self.events

    def shutdown(self) -> list[dict[str, Any]]:
        """Escalate every still-running worker now; returns the events.

        For abandoning a job early (e.g. a consumer closed the result
        stream mid-job): clean exits are reaped as usual, everything
        else is terminated → killed and recorded as ``worker_stopped``.
        The job directory stays resumable — published shards survive,
        interrupted leases go stale and are reclaimed on the next run.
        """
        self.poll()
        for index, proc in list(self._waiting.items()):
            action = _escalate(proc)
            self._record("worker_stopped", pid=proc.pid, action=action)
            del self._waiting[index]
        return self.events


def wait_for_workers(
    procs: Sequence[subprocess.Popen],
    job_dir: str | Path,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    grace_s: float | None = None,
    poll_s: float = 0.1,
    clock: Callable[[], float] = time.time,
) -> list[dict[str, Any]]:
    """Block until every worker exits or is reaped; returns the events.

    The one-shot form of :class:`WorkerWatch` (see there for the
    liveness semantics): construct a watch over ``procs`` and drain it.
    """
    watch = WorkerWatch(
        procs, job_dir, lease_ttl=lease_ttl, grace_s=grace_s, clock=clock
    )
    return watch.drain(poll_s)


def run_sharded_iter(
    specs: Sequence[RunSpec],
    job_dir: str | Path,
    *,
    shards: int | str = 2,
    local_workers: int = 0,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    clock: Callable[[], float] = time.time,
    on_error: str | FailurePolicy = "capture",
    worker_grace_s: float | None = None,
    worker_env: Mapping[str, str] | None = None,
) -> Iterator[tuple[int, RunResult]]:
    """Execute a batch shard-wise, yielding ``(index, result)`` pairs
    **as shard result files seal** instead of buffering the whole job.

    The streaming twin of :func:`run_sharded` (which is now built on
    it), with the merge discipline preserved pair-wise: every batch
    index is yielded exactly once, and every batch occurrence of a
    fingerprint carries the one loaded (immutable) result object;
    collecting the pairs into a list by index reproduces
    ``run_sharded`` — and therefore serial :func:`repro.api.run_many`
    — byte for byte.  Pairs arrive grouped
    by shard in shard-seal order, *not* in batch order: consumers that
    need batch order (the service's ``/stream`` endpoint) reorder by
    index.

    Worker subprocesses are supervised *concurrently* with the result
    scan (one :meth:`WorkerWatch.poll` per tick), so sealed shards
    stream out the moment a worker publishes them rather than after
    the last worker exits.  The in-process drain keeps the old
    division of labor: it claims shards only once every spawned worker
    has been reaped — the coordinator never competes with its own live
    workers for work, it only finishes what they leave behind.
    Closing the generator early stops the spawned workers (terminate →
    kill, emitted as ``worker_stopped`` events) but keeps the job directory
    resumable: published shards survive, interrupted leases go stale
    and are reclaimed by the next run.  So does a spawn that fails
    part-way: the workers already started are stopped.  A policy no
    spawned worker could follow is refused before the job directory is
    touched.

    Parameters are those of :func:`run_sharded`.
    """
    if local_workers > 0:
        _forwardable(on_error)
    plan = ensure_plan(specs, job_dir, shards=shards)
    plan_fingerprint = plan.plan_fingerprint()
    stream_dir = events_dir_of(job_dir)
    emit_event(
        "job_started",
        stream_dir,
        plan_fingerprint=plan_fingerprint,
        shards=plan.shards,
        specs=len(plan.specs),
        local_workers=max(0, local_workers),
    )
    watch = WorkerWatch(
        [], job_dir, lease_ttl=lease_ttl, grace_s=worker_grace_s, clock=clock
    )
    indices_of: dict[str, list[int]] = {}
    for index, fingerprint in enumerate(plan.fingerprints):
        indices_of.setdefault(fingerprint, []).append(index)
    emitted: set[int] = set()
    verified: set[int] = set()
    complete = False
    try:
        for _ in range(local_workers):
            proc = spawn_local_worker(
                job_dir,
                lease_ttl=lease_ttl,
                on_error=on_error,
                extra_env=worker_env,
            )
            watch.add(proc)
            emit_event("worker_spawn", stream_dir, pid=proc.pid)
        while len(emitted) < plan.shards:
            progressed = False
            for shard in range(plan.shards):
                if shard in emitted or not result_path(job_dir, shard).exists():
                    continue
                loaded = load_shard_results(
                    job_dir, shard, plan_fingerprint=plan_fingerprint
                )
                if loaded is None:
                    continue
                absent = [f for f in plan.assignment[shard] if f not in loaded]
                if absent:
                    raise ClusterError(
                        f"shard {shard} result file lacks fingerprints "
                        f"{[f[:12] for f in absent]}; the shard was "
                        "published against a different task — re-plan the "
                        "job"
                    )
                emitted.add(shard)
                progressed = True
                for fingerprint in plan.assignment[shard]:
                    result = loaded[fingerprint]
                    for index in indices_of[fingerprint]:
                        yield index, result
            if len(emitted) == plan.shards:
                break
            watch.poll()
            if watch.waiting:
                # Workers still run: just watch for their next sealed
                # shard (claiming here would race our own workers for
                # their work).
                if not progressed:
                    time.sleep(0.1)
                continue
            # Every spawned worker is gone (or none were spawned):
            # drain what remains in-process, one shard per tick so
            # freshly sealed results stream out between executions.
            # Live foreign leases are waited out (they finish or go
            # stale and get reclaimed); the ``verified`` set keeps the
            # polling from re-parsing completed shards every tick.
            summary = work_loop(
                job_dir,
                lease_ttl=lease_ttl,
                clock=clock,
                max_shards=1,
                verified=verified,
                on_error=on_error,
            )
            if not progressed and not summary["completed"]:
                time.sleep(min(1.0, max(0.05, lease_ttl / 20)))
        complete = True
    finally:
        if complete:
            watch.drain()
            emit_event(
                "job_complete",
                stream_dir,
                plan_fingerprint=plan_fingerprint,
                shards=plan.shards,
            )
        else:
            watch.shutdown()


def run_sharded(
    specs: Sequence[RunSpec],
    job_dir: str | Path,
    *,
    shards: int | str = 2,
    local_workers: int = 0,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    clock: Callable[[], float] = time.time,
    on_error: str | FailurePolicy = "capture",
    worker_grace_s: float | None = None,
    worker_env: Mapping[str, str] | None = None,
) -> list[RunResult]:
    """Execute a spec batch shard-wise; returns the ``run_many`` list.

    Built on :func:`run_sharded_iter` exactly as ``run_many`` is built
    on ``run_many_iter``: drain the stream fully, lay the pairs out by
    batch index.

    Parameters
    ----------
    specs:
        The batch.  Must match the plan already in ``job_dir`` if one
        exists (that is a *resume*); a fresh directory is planned.
    job_dir:
        Shared directory all workers (local subprocesses, other
        machines) coordinate through.
    shards:
        Work units to split the batch into (fresh plans only).
        ``"auto"`` sizes the count to CPU count and batch length (see
        :func:`repro.cluster.planner.resolve_shards`); the resolved
        integer is recorded in the plan manifest.
    local_workers:
        Worker subprocesses to spawn on this machine.  ``0`` (default)
        runs everything in-process.  Whatever the subprocess workers
        leave unfinished — all of it, if they are killed or reaped as
        hung — the coordinator drains in-process concurrently, so
        ``run_sharded`` returns only with the complete, merged result
        list.
    on_error:
        Failure policy for spec execution (default ``"capture"``:
        poison specs merge as :class:`~repro.results.FailedResult`
        slots instead of aborting the job).
    worker_grace_s:
        Seconds a worker subprocess may show no lease heartbeat before
        the coordinator escalates terminate → kill (``None`` =
        ``max(2 * lease_ttl, 10)``; see :class:`WorkerWatch`).
    worker_env:
        Extra environment variables for spawned workers (the chaos
        harness ships fault plans this way).
    lease_ttl / clock:
        As for the worker loop.
    """
    results: dict[int, RunResult] = {}
    for index, result in run_sharded_iter(
        specs,
        job_dir,
        shards=shards,
        local_workers=local_workers,
        lease_ttl=lease_ttl,
        clock=clock,
        on_error=on_error,
        worker_grace_s=worker_grace_s,
        worker_env=worker_env,
    ):
        results[index] = result
    return [results[index] for index in range(len(results))]


def retry_failed(
    job_dir: str | Path,
    *,
    fingerprints: Sequence[str] | None = None,
) -> dict[str, Any]:
    """Re-queue a job's dead-lettered specs; returns a JSON-safe summary.

    Failure records are deliberately durable — a resumed job *reuses*
    dead letters instead of re-looping poison specs.  ``retry_failed``
    is the explicit override for when the world changed (a bug fixed,
    a timeout raised): it removes the quarantined specs' sealed
    dead-letter files and the published result files of exactly the
    shards that contained them, so the next drain — ``run_sharded``
    with the original batch, ``repro shard retry-failed --drain``, or
    any worker — re-executes *only* the quarantined fingerprints: the
    shard's surviving specs replay from the job cache.  Optionally pass
    a fresh :class:`~repro.api.failures.FailurePolicy` to that drain
    (the CLI's ``--retries`` / ``--timeout-s`` / ``--backoff-s``).

    ``fingerprints`` restricts the retry to a subset of the quarantined
    fingerprints (unknown ones are ignored); the default retries all.
    """
    plan = load_plan(job_dir)
    plan_fingerprint = plan.plan_fingerprint()
    letters = load_dead_letters(job_dir, plan_fingerprint=plan_fingerprint)
    if fingerprints is None:
        selected = set(letters)
    else:
        selected = set(letters) & set(fingerprints)
    shards_reset = sorted({plan.shard_of(f) for f in selected})
    for fingerprint in sorted(selected):
        try:
            dead_letter_path(job_dir, fingerprint).unlink()
        except OSError:
            pass
    for shard in shards_reset:
        try:
            result_path(job_dir, shard).unlink()
        except OSError:
            pass
    return {
        "plan_fingerprint": plan_fingerprint,
        "requeued": sorted(selected),
        "shards_reset": shards_reset,
        "remaining_failures": sorted(set(letters) - selected),
    }

