"""``python -m repro top``: a refreshing dashboard over a running job.

The read side of the live layer: :mod:`repro.telemetry.events` gives a
resumable event stream, the cluster's ``job_status`` gives the shard
table, and this module folds both into one terminal page — per-shard
state and throughput, per-worker rates, retry / cache-hit /
dead-letter counts, the most recent events, and an ETA extrapolated
from observed throughput.

Two targets, one renderer:

* a **job directory** — read locally via
  :func:`repro.cluster.coordinator.job_status` and
  :func:`repro.telemetry.events.read_events`;
* a **service job URL** (``http://host:port/v1/jobs/<id>``) — polled
  over plain HTTP: the status body carries the same cluster snapshot,
  and ``GET <url>/events?follow=0&after=<cursor>`` returns the event
  backlog one-shot (the cursor makes each poll exactly-once).

``repro shard status --watch N`` reuses the same renderer — one way of
drawing a fleet, however you reach it.  Everything here is read-only
and observational: ``top`` never writes into the job directory.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Callable

from repro.telemetry.events import events_dir_of, read_events

__all__ = [
    "fold_events",
    "gather_local",
    "gather_service",
    "new_event_state",
    "render_job_view",
    "run_top",
    "shard_progress_table",
]

#: ANSI sequence clearing the screen and homing the cursor (the
#: refresh between frames; suppressed for one-shot renders).
CLEAR_SCREEN = "\x1b[2J\x1b[H"

#: Events kept in the "recent events" tail of the dashboard.
RECENT_EVENTS = 8


def shard_progress_table(status: dict[str, Any]) -> str:
    """Per-shard progress rows: state, wall-clock, throughput, worker —
    plus the run-ledger's attempt accounting where a ledger exists.

    Timing comes from the ``shard_sealed`` events workers emit when
    they publish a sealed result (``job_status``'s ``timing`` map); the
    attempts / retries / cache-hit columns come from the job's run
    ledger (``job_status``'s ``ledger`` map).  Shards with neither a
    seal event nor ledger rows show ``-`` — both sources are best-effort
    by contract.  This is the renderer behind ``repro shard status``,
    ``--watch``, and ``repro top``.
    """
    from repro.analysis.tables import format_table

    states = {}
    for state in ("done", "running", "stale", "pending"):
        for shard in status[state]:
            states[shard] = state
    timing = status.get("timing", {})
    ledger = status.get("ledger", {})
    rows = []
    for shard in range(status["shards"]):
        entry = timing.get(str(shard), {})
        wall = entry.get("wall_clock_s")
        if wall is None and entry.get("elapsed_s") is not None:
            wall = entry["elapsed_s"]
        rate = entry.get("specs_per_s")
        # Display guard mirrors job_status's guard: anything non-numeric
        # or non-finite renders as "-" (a sub-ms shard has wall 0.0 and
        # rate None — real, just unmeasurable at event resolution).
        wall_ok = isinstance(wall, (int, float)) and math.isfinite(wall)
        rate_ok = isinstance(rate, (int, float)) and math.isfinite(rate)
        accounting = ledger.get(str(shard), {})
        rows.append(
            [
                f"shard-{shard:04d}",
                states.get(shard, "?"),
                f"{wall:.3f}" if wall_ok else "-",
                f"{rate:.1f}" if rate_ok else "-",
                accounting.get("attempts", "-"),
                accounting.get("retries", "-"),
                accounting.get("cache_hits", "-"),
                entry.get("worker") or "-",
            ]
        )
    return format_table(
        [
            "shard",
            "state",
            "wall-clock (s)",
            "specs/s",
            "attempts",
            "retries",
            "cache-hits",
            "worker",
        ],
        rows,
    )


# --- event folding -----------------------------------------------------


def new_event_state() -> dict[str, Any]:
    """A fresh accumulator for :func:`fold_events`."""
    return {"by_type": {}, "heartbeats": {}, "recent": []}


def fold_events(
    state: dict[str, Any], events: list[dict[str, Any]]
) -> dict[str, Any]:
    """Fold a batch of stream events into the accumulated view state.

    Tracks counts per event type, the latest heartbeat progress per
    shard, and the :data:`RECENT_EVENTS` most recent events.  The
    accumulator plus a resume cursor is all a dashboard needs to keep
    between refreshes — each event is folded exactly once.
    """
    for event in events:
        kind = str(event.get("event"))
        state["by_type"][kind] = state["by_type"].get(kind, 0) + 1
        if kind == "shard_heartbeat" and isinstance(event.get("shard"), int):
            state["heartbeats"][event["shard"]] = {
                "done": event.get("done"),
                "total": event.get("total"),
            }
        state["recent"].append(event)
    del state["recent"][:-RECENT_EVENTS]
    return state


def _describe_event(event: dict[str, Any], now: float) -> str:
    """One tail line: age, type, and the payload worth a glance."""
    ts = event.get("unix_ts")
    age = (
        f"{max(0.0, now - ts):6.1f}s"
        if isinstance(ts, (int, float)) and not isinstance(ts, bool)
        else "     ?"
    )
    detail_parts = []
    for key in ("shard", "disposition", "fingerprint", "attempt", "pid"):
        value = event.get(key)
        if value is None:
            continue
        if key == "fingerprint" and isinstance(value, str):
            value = value[:12]
        detail_parts.append(f"{key}={value}")
    worker = event.get("worker")
    detail = " ".join(detail_parts)
    return (
        f"  {age} ago  {str(event.get('event')):<18} {detail}"
        + (f"  [{worker}]" if worker else "")
    )


# --- the view ----------------------------------------------------------


def _eta_s(status: dict[str, Any], state: dict[str, Any]) -> float | None:
    """Remaining-work estimate from observed throughput.

    Throughput is distinct specs finished per second of shard
    wall-clock observed so far (done-shard seal events plus the elapsed
    time of running shards); progress inside running shards comes from
    their latest heartbeat.  ``None`` until there is any signal — an
    ETA that would be a guess is not shown.
    """
    distinct = status.get("distinct_specs")
    done = status.get("specs_done")
    if not isinstance(distinct, int) or not isinstance(done, int):
        return None
    in_flight = 0
    for shard, beat in state["heartbeats"].items():
        if str(shard) in {str(s) for s in status.get("running", [])} and isinstance(
            beat.get("done"), int
        ):
            in_flight += beat["done"]
    finished = done + in_flight
    remaining = max(0, distinct - finished)
    if remaining == 0:
        return 0.0
    observed_s = 0.0
    for entry in (status.get("timing") or {}).values():
        for key in ("wall_clock_s", "elapsed_s"):
            value = entry.get(key)
            if isinstance(value, (int, float)) and math.isfinite(value):
                observed_s += float(value)
                break
    if finished <= 0 or observed_s <= 0:
        return None
    return remaining / (finished / observed_s)


def render_job_view(
    status: dict[str, Any],
    state: dict[str, Any],
    *,
    job: dict[str, Any] | None = None,
    title: str | None = None,
    clock: Callable[[], float] = time.time,
) -> str:
    """Render one dashboard frame from a status snapshot + event state.

    ``status`` is a :func:`repro.cluster.coordinator.job_status` dict
    (possibly arriving via the service's ``cluster`` field); ``job`` is
    the service-level snapshot when polling over HTTP (state, slots
    done).  Renders header, shard table, counters, per-worker
    throughput, ETA, and the recent-event tail.
    """
    now = clock()
    lines: list[str] = []
    if title:
        lines.append(title)
    if job is not None:
        lines.append(
            f"job {str(job.get('job'))[:12]}… state={job.get('state')} "
            f"slots {job.get('done')}/{job.get('total')}"
        )
    if status.get("shards") is None:
        lines.append("(no cluster plan yet — the job directory is empty)")
        if state["recent"]:
            lines.append("")
            lines.extend(
                _describe_event(event, now) for event in state["recent"]
            )
        return "\n".join(lines)
    lines.append(
        f"plan {str(status.get('plan_fingerprint'))[:12]}: "
        f"{len(status.get('done', []))}/{status['shards']} shards done "
        f"({status.get('specs_done')}/{status.get('distinct_specs')} "
        f"distinct specs), {len(status.get('running', []))} running, "
        f"{len(status.get('stale', []))} stale, "
        f"{len(status.get('pending', []))} pending"
    )
    lines.append(shard_progress_table(status))
    ledger = status.get("ledger") or {}
    cache_hits = sum(
        entry.get("cache_hits", 0)
        for entry in ledger.values()
        if isinstance(entry, dict)
    )
    retries = sum(
        entry.get("retries", 0)
        for entry in ledger.values()
        if isinstance(entry, dict)
    )
    by_type = state["by_type"]
    lines.append(
        f"retries: {max(retries, by_type.get('spec_retry', 0))}   "
        f"cache hits: {cache_hits}   "
        f"dead letters: {len(status.get('failed') or {})}   "
        f"events: {sum(by_type.values())}"
    )
    workers: dict[str, dict[str, float]] = {}
    for entry in (status.get("timing") or {}).values():
        worker = entry.get("worker")
        executed = entry.get("specs_executed")
        wall = entry.get("wall_clock_s")
        if (
            isinstance(worker, str)
            and isinstance(executed, int)
            and isinstance(wall, (int, float))
            and math.isfinite(wall)
        ):
            stats = workers.setdefault(
                worker, {"executed": 0, "wall_clock_s": 0.0}
            )
            stats["executed"] += executed
            stats["wall_clock_s"] += float(wall)
    if workers:
        rates = []
        for worker, stats in sorted(workers.items()):
            rate = (
                f"{stats['executed'] / stats['wall_clock_s']:.1f}/s"
                if stats["wall_clock_s"] > 0
                else "-"
            )
            rates.append(f"{worker}: {stats['executed']} specs @ {rate}")
        lines.append("workers: " + "   ".join(rates))
    eta = _eta_s(status, state)
    if status.get("complete"):
        lines.append("job complete")
    elif eta is not None:
        lines.append(f"eta: ~{eta:.1f}s at observed throughput")
    if state["recent"]:
        lines.append("")
        lines.append("recent events:")
        lines.extend(_describe_event(event, now) for event in state["recent"])
    return "\n".join(lines)


# --- gathering ---------------------------------------------------------


def gather_local(
    job_dir: str, cursor: str, *, lease_ttl: float = 60.0
) -> tuple[dict[str, Any] | None, dict[str, Any], list[dict[str, Any]], str]:
    """One local poll: ``(job, status, new_events, next_cursor)``.

    ``job`` is always ``None`` locally (there is no service snapshot);
    the cluster's own :func:`~repro.cluster.coordinator.job_status`
    provides everything else.  A directory with no plan manifest yet
    (the coordinator hasn't planned, or ``top`` was started first)
    polls as an empty snapshot instead of failing — the dashboard
    fills in once the plan lands.
    """
    from repro.cluster.coordinator import job_status
    from repro.errors import ClusterError

    try:
        status = job_status(job_dir, lease_ttl=lease_ttl)
    except ClusterError:
        status = {}
    events, cursor = read_events(events_dir_of(job_dir), cursor or None)
    return None, status, events, cursor


def gather_service(
    url: str, cursor: str, *, timeout: float = 10.0
) -> tuple[dict[str, Any], dict[str, Any], list[dict[str, Any]], str]:
    """One HTTP poll of a service job URL: ``(job, status, events, cursor)``.

    ``url`` is the job's status URL (``…/v1/jobs/<id>``); events come
    from the sibling ``/events`` route with ``follow=0`` (backlog
    only, no blocking) and the cursor from the last delivered event.
    Plain ``urllib`` — the endpoints are bare-urllib readable by
    contract.
    """
    import urllib.request

    base = url.rstrip("/")
    with urllib.request.urlopen(base, timeout=timeout) as response:
        job = json.loads(response.read())
    status = job.get("cluster") if isinstance(job.get("cluster"), dict) else {}
    events_url = f"{base}/events?follow=0"
    if cursor:
        events_url += f"&after={cursor}"
    events: list[dict[str, Any]] = []
    with urllib.request.urlopen(events_url, timeout=timeout) as response:
        for raw in response:
            line = raw.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                events.append(event)
                if isinstance(event.get("cursor"), str):
                    cursor = event["cursor"]
    return job, status, events, cursor


def _is_url(target: str) -> bool:
    return target.startswith(("http://", "https://"))


def run_top(
    target: str,
    *,
    interval: float = 2.0,
    once: bool = False,
    lease_ttl: float = 60.0,
    iterations: int | None = None,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
    emit: Callable[[str], None] = print,
) -> int:
    """The ``repro top`` loop: poll, fold, render, repeat.

    ``target`` is a job directory or a service job URL.  Exits 0 when
    the job completes (one final frame is drawn), after the first frame
    with ``once=True``, or after ``iterations`` frames (tests).
    ``clock`` / ``sleep`` / ``emit`` are injectable for deterministic
    tests; the default ``emit`` prints frames to stdout, prefixed with
    a screen clear between refreshes.
    """
    cursor = ""
    state = new_event_state()
    frames = 0
    while True:
        if _is_url(target):
            job, status, events, cursor = gather_service(target, cursor)
        else:
            job, status, events, cursor = gather_local(
                target, cursor, lease_ttl=lease_ttl
            )
        fold_events(state, events)
        frame = render_job_view(
            status, state, job=job, title=f"repro top — {target}", clock=clock
        )
        emit((CLEAR_SCREEN if frames and not once else "") + frame)
        frames += 1
        finished = bool(status.get("complete")) or (
            job is not None and job.get("state") in ("done", "failed")
        )
        if once or finished or (iterations is not None and frames >= iterations):
            return 0
        sleep(max(0.1, interval))
