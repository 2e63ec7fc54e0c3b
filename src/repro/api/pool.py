"""The one pool of forked solve workers: ``run_many_iter(parallel=N)``
forks one per call, the service holds one for its life.  Each worker
answers payloads on its own pipe with
:func:`repro.api.runner._run_in_worker`."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
import traceback
from collections import deque
from itertools import islice
from multiprocessing.connection import Connection, wait
from typing import Any, Iterable, Iterator

from repro.errors import ServiceUnavailable

#: Seconds between a worker's checks that its parent still lives.
PARENT_POLL_S = 0.5

_FORK = multiprocessing.get_context("fork")


def _serve_solves(conn: Connection, parent_pid: int) -> None:
    """A worker's loop: answer each payload until ``None`` comes.

    Each reply is ``(True, _run_in_worker(payload))``, or ``(False,
    exc)`` for an exception the run raised, its traceback text added
    as a note; an exception that cannot be pickled is sent as a
    :class:`RuntimeError` naming it.  The worker ignores Ctrl-C (the
    parent handles it and stops the pool) and exits when the parent
    dies: it holds copies of the parent's pipe ends, so after a
    ``SIGKILL`` of the parent nothing else would ever wake it.
    """
    from repro.api.runner import _run_in_worker  # the runner imports us

    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(0)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()
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
    """One forked solve worker and the parent's end of its pipe."""

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
        self.stop()


class WorkerPool:
    """``size`` solve workers, forked here, for :meth:`run` (threads
    may call it at once); ``solving`` counts the runs it waits on."""

    def __init__(self, size: int) -> None:
        self.solving = 0
        self._lock = threading.Lock()
        self._workers = [_Worker() for _ in range(size)]
        self._idle: queue.LifoQueue[_Worker] = queue.LifoQueue()
        for worker in self._workers:
            self._idle.put(worker)

    def run(self, payload: Any) -> Any:
        """Send ``payload`` to an idle worker, the most recently used
        first (a dead one is replaced first), and return its reply,
        raising the exception the run raised.  A worker that dies under
        the run is replaced, and the run fails with
        :class:`~repro.errors.ServiceUnavailable`."""
        with self._lock:
            self.solving += 1
        worker = self._idle.get()
        try:
            if not worker.process.is_alive():
                worker = self._replace(worker)
            try:
                worker.conn.send(payload)
                ok, value = worker.conn.recv()
            except (EOFError, OSError) as exc:
                worker = self._replace(worker)
                raise ServiceUnavailable(
                    "a solve worker died during this run; retry"
                ) from exc
        finally:
            self._idle.put(worker)
            with self._lock:
                self.solving -= 1
        if not ok:
            raise value
        return value

    @classmethod
    def map_unordered(
        cls, size: int, keyed_payloads: Iterable[tuple[Any, Any]]
    ) -> Iterator[tuple[Any, bool, Any]]:
        """Fork ``size`` workers, run each ``(key, payload)`` and yield
        ``(key, ok, value)`` as replies come: ``ok`` false means
        ``value`` is the exception the run raised, or
        :class:`~repro.errors.ServiceUnavailable` if its worker died,
        which ends the map.  Each worker holds a second payload queued,
        so it never waits on the consumer.  When the generator ends or
        is closed, every worker is killed."""
        pool = cls(size)
        pending = iter(keyed_payloads)
        queued = {worker.conn: deque() for worker in pool._workers}

        def feed(conn: Connection, count: int) -> None:
            for key, payload in islice(pending, count):
                queued[conn].append(key)
                try:
                    conn.send(payload)
                except OSError:  # it died: its read below is the EOF
                    pass

        try:
            for conn in queued:
                feed(conn, 2)
            while busy := [conn for conn, keys in queued.items() if keys]:
                for conn in wait(busy):
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        yield queued[conn][0], False, ServiceUnavailable(
                            "a solve worker died during this run"
                        )
                        return
                    key = queued[conn].popleft()
                    feed(conn, 1)
                    yield (key, *reply)
        finally:
            for worker in pool._workers:
                worker.kill()

    def close(self) -> None:
        """Stop every worker; one in a solve finishes it first."""
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()

    def _replace(self, dead: _Worker) -> _Worker:
        """Reap a dead worker and fork its successor; a closed pool
        refuses with :class:`~repro.errors.ServiceUnavailable`."""
        with self._lock:
            if dead not in self._workers:
                raise ServiceUnavailable("the worker pool is closed")
            dead.kill()
            fresh = _Worker()
            self._workers[self._workers.index(dead)] = fresh
        return fresh
