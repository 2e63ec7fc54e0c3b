"""Service core: idempotent single runs and the streaming job registry.

:class:`ReproService` is the transport-free heart of the HTTP front
door (:mod:`repro.service.http` merely routes to it): it owns the
service's disk state (a result cache for single runs, a job directory
per submitted batch) and enforces the two idempotency disciplines the
service is built around —

**Single runs coalesce on the spec fingerprint.**  ``run_one`` keys
every request by ``spec.fingerprint()`` (the same SHA-256 identity the
executor caches under).  A fingerprint already answered is a cache hit;
a fingerprint currently *executing* is an in-flight hit: the first
request becomes the **leader** and actually solves, every concurrent
identical request becomes a **follower** that blocks on the leader's
:class:`threading.Event` and receives the same (immutable) result
object.  A million identical POSTs cost one solve.

**Repeats are answered from memory.**  The service keeps no result
store of its own: it reads and fills the executor's in-process cache
(:data:`repro.api.runner.RESULT_CACHE_EDGES` coloring entries, least
recently used dropped first) in front of its disk cache.  A disk-cache
hit enters that cache, and so does a leader's solved miss.  A repeat
found there reads no file: it refreshes its disk entry's mtime (so
:func:`~repro.api.diskcache.prune_cache` still evicts in use order),
writes a ``cache_memory`` ledger row and is served as a cache hit.  An
evicted fingerprint, or the first repeat after a restart, is read from
the disk cache and enters memory again.  Failures never enter it: the
disk cache holds none either, and a poison spec re-executes.

**Solves run on forked workers.**  The solver is CPU-bound Python, so
a solve on a handler thread would hold the GIL while cache hits wait.
A leader's miss therefore goes to one of a fixed set of forked worker
processes (one per CPU), started when the service is constructed, each
reached over its own duplex pipe.  The leader's thread takes an idle
worker (the most recently used first), sends the spec, waits in the
pipe read, which releases the GIL, and gives the worker back; no relay
thread stands between the two.  A worker builds, solves, validates and
stores the disk-cache entry, and sends back the result's
``to_json()`` text (the very text the disk entry embeds) and the
result fingerprint it sealed the entry with; the server rebuilds the
result from that text with :meth:`~repro.results.RunResult.from_dict`,
the form a disk-cache hit serves, and adopts both, so the response
embeds the worker's text and the result is serialized once on the way
from solver to client.  A worker found dead when it is taken is
replaced first; one that dies during a solve fails that run (and its
followers) once with :class:`~repro.errors.ServiceUnavailable` and is
replaced.  Coalescing, cache lookups, the run ledger and metrics stay
in the server process.  At most ``INFLIGHT_PER_WORKER * workers`` runs
are in flight (leaders beyond the worker count wait for an idle
worker): a further miss is refused with
:class:`~repro.errors.ServiceUnavailable` (HTTP 503), while hits and
followers are always served.

**Jobs are identified by their plan fingerprint.**  ``submit_job``
plans the batch with :func:`repro.cluster.planner.plan_shards` and
uses the plan fingerprint as the job id, so resubmitting the same
batch (same specs, same order, same shard count) returns the *same*
job — running, done, or restartable — instead of minting a duplicate.
Jobs execute on a background thread through
:func:`repro.cluster.coordinator.run_sharded_iter` with
``on_error="capture"``: results are buffered per batch index as shards
seal, which is what lets the ``/stream`` endpoint emit each result
exactly once, in batch order, while the job still runs.  Poison specs
surface as :class:`~repro.results.FailedResult` records in their
slots, never as HTTP 500s.

Everything is stdlib; the service adds no dependencies to the library.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
import traceback
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, Sequence

from repro.api.failures import FailurePolicy
from repro.api.runner import (
    _cache_store,
    _replay as _replay_cached,
    _run_in_worker,
)
from repro.api.spec import RunSpec
from repro.cluster.coordinator import job_status, run_sharded_iter
from repro.cluster.planner import plan_shards
from repro.errors import ClusterError, ServiceUnavailable
from repro.results import RunResult
from repro.telemetry.ledger import record_run
from repro.telemetry.metrics import MetricsRegistry

#: Subdirectory of the service data dir holding the single-run cache.
CACHE_SUBDIR = "cache"

#: Subdirectory holding one cluster job directory per submitted batch.
JOBS_SUBDIR = "jobs"

#: Subdirectory holding the service's run ledger (single runs; each
#: job keeps its own ledger under ``jobs/<id>/ledger/``).
LEDGER_SUBDIR = "ledger"

#: In-flight single runs admitted per solve worker; a miss beyond
#: ``INFLIGHT_PER_WORKER * workers`` of them is refused with a 503.
INFLIGHT_PER_WORKER = 2

#: Seconds a refused client is told to wait (the ``Retry-After`` header).
RETRY_AFTER_S = 1

#: Seconds between a solve worker's checks that the server still lives.
PARENT_POLL_S = 0.5

_FORK = multiprocessing.get_context("fork")


def _worker_init(server_pid: int) -> None:
    """Solve worker set-up: ignore Ctrl-C, exit with the server.

    A terminal's Ctrl-C reaches the whole process group; the server
    alone handles it and stops the workers.  A forked worker holds
    copies of the server's pipe ends, so if the server dies without
    stopping it (``SIGKILL``), nothing would ever wake the worker; a
    daemon thread polls the parent pid and exits instead.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch() -> None:
        while os.getppid() == server_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(0)

    threading.Thread(target=watch, name="repro-server-watch", daemon=True).start()


def _serve_solves(conn: Connection, server_pid: int) -> None:
    """A solve worker's loop: answer each payload until ``None`` comes.

    Each reply is ``(True, _run_in_worker(payload))``, or ``(False,
    exc)`` for an exception the run raised, its traceback text added
    as a note; an exception that cannot be pickled is sent as a
    :class:`RuntimeError` naming it.
    """
    _worker_init(server_pid)
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        if payload is None:
            return
        try:
            reply = (True, _run_in_worker(payload))
        except Exception as exc:
            exc.add_note(
                f"in solve worker {os.getpid()}:\n{traceback.format_exc()}"
            )
            reply = (False, exc)
        try:
            conn.send(reply)
        except (pickle.PicklingError, TypeError, AttributeError):
            error = reply[1]
            conn.send((False, RuntimeError(f"{type(error).__name__}: {error}")))


class _Worker:
    """One forked solve worker and the server's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self) -> None:
        self.conn, child = _FORK.Pipe()
        self.process = _FORK.Process(
            target=_serve_solves,
            args=(child, os.getpid()),
            name="repro-solve-worker",
            daemon=True,
        )
        self.process.start()
        # The worker holds the only other end: its death is an EOF here.
        child.close()

    def stop(self) -> None:
        """Ask the worker to exit after its current solve; reap it."""
        try:
            self.conn.send(None)
        except OSError:  # already dead
            pass
        self.process.join()
        self.conn.close()

    def kill(self) -> None:
        """Kill the worker (if it still runs) and reap it."""
        self.process.kill()
        self.process.join()
        self.conn.close()


class _InFlight:
    """One in-progress single-run execution other requests can join."""

    __slots__ = ("event", "result", "error", "waiters")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: RunResult | None = None
        self.error: BaseException | None = None
        self.waiters = 0


class Job:
    """One submitted batch: its spec list and per-index result slots.

    ``slots[i]`` is ``None`` until spec ``i``'s result arrives from the
    streaming executor, then its JSON-safe ``to_dict()`` payload — the
    service stores serialized results so every streamed or re-streamed
    copy is byte-identical.  All mutation happens under ``cond``;
    :meth:`wait_slot` is how stream readers block for the next index.
    """

    def __init__(
        self,
        job_id: str,
        specs: Sequence[RunSpec],
        *,
        shards: int,
        local_workers: int,
        job_dir: Path,
    ) -> None:
        self.id = job_id
        self.specs = list(specs)
        self.shards = shards
        self.local_workers = local_workers
        self.job_dir = job_dir
        self.slots: list[dict[str, Any] | None] = [None] * len(self.specs)
        self.done = 0
        self.state = "running"
        self.error: str | None = None
        self.created_at = time.time()
        self.cond = threading.Condition()

    def record(self, index: int, payload: dict[str, Any]) -> None:
        """Store spec ``index``'s serialized result; wake stream readers."""
        with self.cond:
            if self.slots[index] is None:
                self.done += 1
            self.slots[index] = payload
            self.cond.notify_all()

    def finish(self, error: str | None = None) -> None:
        """Mark the job done (or failed, with a human-readable reason)."""
        with self.cond:
            self.state = "done" if error is None else "failed"
            self.error = error
            self.cond.notify_all()

    def wait_slot(self, index: int) -> dict[str, Any] | None:
        """Block until spec ``index`` has a result (or the job fails).

        Returns the serialized result, or ``None`` if the job reached a
        terminal state without ever producing this slot (driver crash —
        captured per-spec failures still fill their slots normally).
        """
        with self.cond:
            while self.slots[index] is None and self.state == "running":
                self.cond.wait()
            return self.slots[index]

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe progress summary (the ``GET /v1/jobs/<id>`` body)."""
        with self.cond:
            return {
                "job": self.id,
                "state": self.state,
                "error": self.error,
                "done": self.done,
                "total": len(self.specs),
                "shards": self.shards,
                "local_workers": self.local_workers,
                "events_url": f"/v1/jobs/{self.id}/events",
            }


class ReproService:
    """The transport-free service: coalesced runs + streaming jobs.

    Parameters
    ----------
    data_dir:
        Root of the service's disk state: single-run results cache
        under ``cache/``, one cluster job directory per batch under
        ``jobs/<plan-fingerprint>/``.
    cache_max_entries:
        LRU budget for the single-run cache (``None`` = unbounded).
    max_local_workers:
        Upper bound on worker subprocesses a job request may ask for.
    default_shards:
        Shard count for jobs that do not specify one (``"auto"`` sizes
        to CPU count and batch length).

    Every result it serves was validated by the executor when it was
    solved, in a solve worker or a job's shard; cache and coalesced
    replies hand out such a result without checking it again.

    Successful single-run results it has answered with stay in the
    executor's bounded in-process cache, in front of the disk cache;
    repeats are served from it.

    The solve workers, one per CPU, are forked here, before any server
    thread starts; call :meth:`close` to stop them.
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        cache_max_entries: int | None = None,
        max_local_workers: int = 2,
        default_shards: int | str = "auto",
    ) -> None:
        self.data_dir = Path(data_dir)
        self.cache_dir = self.data_dir / CACHE_SUBDIR
        self.jobs_dir = self.data_dir / JOBS_SUBDIR
        self.ledger_dir = self.data_dir / LEDGER_SUBDIR
        self.cache_max_entries = cache_max_entries
        self.max_local_workers = max_local_workers
        self.default_shards = default_shards
        self.started_at = time.time()
        self.metrics = MetricsRegistry()
        self._inflight: dict[str, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self.workers = os.cpu_count() or 1
        self.max_inflight = INFLIGHT_PER_WORKER * self.workers
        self._worker_options = {
            "cache_dir": str(self.cache_dir),
            "cache_max_entries": cache_max_entries,
            "on_error": FailurePolicy(on_error="capture").to_dict(),
            "ledger_dir": None,
        }
        self._solving = 0
        self._pool_lock = threading.Lock()
        self._workers = [_Worker() for _ in range(self.workers)]
        self._idle: queue.LifoQueue[_Worker] = queue.LifoQueue()
        for worker in self._workers:
            self._idle.put(worker)

    def close(self) -> None:
        """Stop every solve worker and wait for it to exit (a worker
        in a solve finishes it first)."""
        with self._pool_lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()

    # -- single runs ----------------------------------------------------

    def run_one(self, spec: RunSpec) -> tuple[str, RunResult, str]:
        """Execute (or join, or replay) one spec; returns
        ``(fingerprint, result, source)``.

        ``source`` says where the bytes came from: ``"executed"`` (this
        request was the leader and solved), ``"cache"`` (replayed from
        memory or the disk cache), or ``"coalesced"`` (joined a concurrent
        identical request and received its result).  Captured
        failures come back as :class:`~repro.results.FailedResult`
        objects through the same three paths — a failure is an answer,
        not a transport error.

        A leader holds one of :attr:`max_inflight` slots from the moment
        it registers.  With every slot taken, a new fingerprint is
        still served from memory or the disk cache, but a miss raises
        :class:`~repro.errors.ServiceUnavailable`; followers join their
        leader whatever the load.
        """
        fingerprint = spec.fingerprint()
        result = self._from_cache(spec, fingerprint, read_disk=False)
        if result is not None:
            self._observe_run("cache", result)
            return fingerprint, result, "cache"
        with self._inflight_lock:
            entry = self._inflight.get(fingerprint)
            if entry is not None:
                entry.waiters += 1
                role = "follower"
            elif len(self._inflight) >= self.max_inflight:
                role = "overflow"
            else:
                entry = _InFlight()
                self._inflight[fingerprint] = entry
                role = "leader"
        if role == "follower":
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            assert entry.result is not None
            result = entry.result
            # Followers never reach the executor, so the executor's
            # ledger records nothing for them — the service writes the
            # "coalesced" disposition itself (observational, like every
            # ledger record).
            record_run(
                self.ledger_dir,
                spec=spec,
                fingerprint=fingerprint,
                disposition="coalesced",
                result=result,
                attempts=0,
            )
            self._observe_run("coalesced", result)
            return fingerprint, result, "coalesced"
        if role == "overflow":
            result = self._from_cache(spec, fingerprint)
            if result is None:
                raise ServiceUnavailable(
                    f"{self.max_inflight} runs already in flight; retry"
                )
            self._observe_run("cache", result)
            return fingerprint, result, "cache"
        try:
            # Look again: a leader that finished after the memory lookup
            # above has filled the caches, and this request must not
            # solve the spec a second time.
            result = self._from_cache(spec, fingerprint)
            source = "cache"
            if result is None:
                result, observed = self._solve(spec, fingerprint)
                record_run(
                    self.ledger_dir,
                    spec=spec,
                    fingerprint=fingerprint,
                    disposition=observed["disposition"],
                    result=result,
                    attempts=observed["attempts"],
                    wall_clock_s=observed["wall_clock_s"],
                )
                if not observed["disposition"].startswith("cache_"):
                    source = "executed"
                _cache_store(fingerprint, result)
            entry.result = result
        except BaseException as exc:
            entry.error = exc
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(fingerprint, None)
            entry.event.set()
        self._observe_run(source, result)
        return fingerprint, result, source

    def _from_cache(
        self, spec: RunSpec, fingerprint: str, *, read_disk: bool = True
    ) -> RunResult | None:
        """The cached result of ``fingerprint`` (ledger row written), or
        ``None``; ``read_disk=False`` looks in memory only."""
        result, _ = _replay_cached(
            fingerprint,
            spec,
            cache=True,
            cache_dir=self.cache_dir,
            ledger_dir=self.ledger_dir,
            read_disk=read_disk,
            cache_max_entries=self.cache_max_entries,
        )
        return result

    def _solve(
        self, spec: RunSpec, fingerprint: str
    ) -> tuple[RunResult, dict[str, Any]]:
        """Solve one spec on an idle worker; returns ``(result, observed)``.

        The one place a spec leaves the server process, and so the seam
        tests wrap to count executions.  ``observed``
        holds the disposition, attempts and wall-clock the ledger row
        records; the result carries the JSON text and the result
        fingerprint the worker computed.  A worker found dead when it
        is taken is replaced before the spec is sent; a worker that
        dies under this solve fails it (and its followers) once with
        :class:`~repro.errors.ServiceUnavailable` and is replaced.  An
        exception the run raised in the worker is raised here.
        """
        payload = (
            spec.to_dict(),
            {**self._worker_options, "_fingerprint": fingerprint},
            True,
        )
        with self._pool_lock:
            self._solving += 1
        worker = self._idle.get()
        try:
            if not worker.process.is_alive():
                worker = self._replace(worker)
            try:
                worker.conn.send(payload)
                ok, reply = worker.conn.recv()
            except (EOFError, OSError) as exc:
                worker = self._replace(worker)
                raise ServiceUnavailable(
                    "a solve worker died during this run; retry"
                ) from exc
        finally:
            self._idle.put(worker)
            with self._pool_lock:
                self._solving -= 1
        if not ok:
            raise reply
        text, observed, seal = reply
        result = RunResult.from_dict(json.loads(text))
        # The worker's text and seal are this result's serializations:
        # the response embeds the text instead of dumping it again.
        object.__setattr__(result, "_json", text)
        object.__setattr__(result, "_result_fingerprint", seal)
        return result, observed

    def _replace(self, dead: _Worker) -> _Worker:
        """Reap a dead worker and fork its successor; after
        :meth:`close`, refuse with
        :class:`~repro.errors.ServiceUnavailable` instead."""
        with self._pool_lock:
            if dead not in self._workers:
                raise ServiceUnavailable("the service is shutting down")
            dead.kill()
            fresh = _Worker()
            self._workers[self._workers.index(dead)] = fresh
        return fresh

    def _observe_run(self, source: str, result: RunResult) -> None:
        self.metrics.observe_run(source)
        if result.is_failure():
            self.metrics.observe_run("failed")

    def inflight_waiters(self, fingerprint: str) -> int:
        """Followers currently blocked on this fingerprint's leader.

        Observability for tests: a wrapper around
        :meth:`_solve` can hold the leader open until the expected
        crowd has gathered, making the exactly-one-execution assertion
        deterministic.
        """
        with self._inflight_lock:
            entry = self._inflight.get(fingerprint)
            return entry.waiters if entry is not None else 0

    # -- jobs -------------------------------------------------------------

    def submit_job(
        self,
        specs: Sequence[RunSpec],
        *,
        shards: int | str | None = None,
        local_workers: int = 0,
    ) -> tuple[Job, bool]:
        """Submit a batch; returns ``(job, created)``.

        Idempotent by content: the job id is the batch's plan
        fingerprint, so an identical resubmission returns the existing
        job (``created=False``) whether it is still running or already
        done.  A job that previously *failed* (driver crash, not
        captured per-spec failures) is restarted in place — the job
        directory resumes from its sealed shards.
        """
        if shards is None:
            shards = self.default_shards
        local_workers = max(0, min(int(local_workers), self.max_local_workers))
        plan = plan_shards(specs, shards=shards)
        job_id = plan.plan_fingerprint()
        with self._jobs_lock:
            existing = self._jobs.get(job_id)
            if existing is not None and existing.state != "failed":
                self.metrics.observe_job(created=False)
                return existing, False
            job = Job(
                job_id,
                plan.specs,
                shards=plan.shards,
                local_workers=local_workers,
                job_dir=self.jobs_dir / job_id,
            )
            self._jobs[job_id] = job
        thread = threading.Thread(
            target=self._drive_job,
            args=(job,),
            name=f"repro-job-{job_id[:12]}",
            daemon=True,
        )
        thread.start()
        created = existing is None
        self.metrics.observe_job(created=created)
        return job, created

    def _drive_job(self, job: Job) -> None:
        """Background driver: stream the sharded run into the slots."""
        try:
            for index, result in run_sharded_iter(
                job.specs,
                job.job_dir,
                shards=job.shards,
                local_workers=job.local_workers,
                on_error="capture",
            ):
                job.record(index, result.to_dict())
            job.finish()
        except BaseException as exc:  # surfaced via job state, never lost
            job.finish(error=f"{type(exc).__name__}: {exc}")

    def get_job(self, job_id: str) -> Job | None:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def job_snapshot(self, job: Job) -> dict[str, Any]:
        """The job's progress plus the cluster's own view of its directory.

        ``cluster`` carries per-shard state, per-shard timing, dead
        letters, and worker events straight from
        :func:`repro.cluster.coordinator.job_status`; it is absent in
        the narrow window before the driver thread has planned the
        directory.
        """
        snapshot = job.snapshot()
        try:
            snapshot["cluster"] = job_status(job.job_dir)
        except ClusterError:
            pass
        return snapshot

    # -- health -----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """The ``GET /v1/healthz`` body: liveness plus the real load.

        Every figure is measured, sourced from the same places the
        metrics endpoint reads: uptime from the metrics registry's
        start stamp, ``active_requests`` from its in-handler gauge
        (includes this very request), ``inflight_runs`` from the
        coalescing table, the solve worker count, solves handed to
        the workers (or waiting for one) and admission bound,
        per-state job counts from the registry of live jobs, and the
        lifetime request total.
        """
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        with self._inflight_lock:
            inflight = len(self._inflight)
        with self._pool_lock:
            solving = self._solving
        states: dict[str, int] = {}
        for job in jobs:
            snapshot = job.snapshot()
            states[snapshot["state"]] = states.get(snapshot["state"], 0) + 1
        return {
            "ok": True,
            "uptime_s": round(self.metrics.uptime_s(), 3),
            "active_requests": self.metrics.active_requests(),
            "requests_total": self.metrics.requests_total(),
            "inflight_runs": inflight,
            "pool": {
                "workers": self.workers,
                "solving": solving,
                "max_inflight": self.max_inflight,
            },
            "jobs": {"total": len(jobs), **states},
        }


def registry_payload() -> dict[str, Any]:
    """The ``GET /v1/registry`` body: what this service can execute.

    The same registries the CLI's ``list --json --scenarios`` prints —
    instance families, algorithms, parameter policies, execution
    models — so a client can construct valid specs without a checkout.
    """
    from repro.api import algorithm_registry
    from repro.core.params import named_policies
    from repro.graphs.families import family_registry
    from repro.scenarios import scenario_capable, scenario_registry

    return {
        "families": {
            name: {
                "size_meaning": family.size_meaning,
                "description": family.description,
            }
            for name, family in sorted(family_registry().items())
        },
        "algorithms": {
            name: {
                "kind": info.kind,
                "label": info.label,
                "description": info.description,
            }
            for name, info in algorithm_registry().items()
        },
        "policies": sorted(named_policies()),
        "scenarios": {
            name: {
                "identity": model.identity,
                "description": model.description,
                "params": dict(model.param_docs),
            }
            for name, model in scenario_registry().items()
        },
        "scenario_capable_algorithms": scenario_capable(),
    }
