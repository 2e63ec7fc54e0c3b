"""The run ledger: one append-only JSONL record per executed spec.

The executor (:func:`repro.api.run` and friends) appends one record to
the ledger every time it *resolves* a spec — whether by executing it,
replaying it from a cache layer, or exhausting its failure policy.
Cluster workers default the ledger on (``<job_dir>/ledger/``), so a
sharded job accumulates a complete account of what ran where without
any caller opting in.

**Discipline.**  The ledger is strictly observational, mirroring the
rules of the job event stream (:mod:`repro.telemetry.events`):

* records live *outside* every sealed file and every fingerprint —
  nothing here can perturb result byte-identity;
* every write is best-effort: an unwritable ledger directory silently
  records nothing rather than failing the run;
* each process appends to its **own** file
  (``<hostname>-<pid>.jsonl``), so concurrent workers never interleave
  partial lines; readers merge all files of a directory;
* a process keeps each file it appends to open (``O_APPEND``, at most
  :data:`MAX_OPEN_FILES` of them) and writes a line with one
  ``os.write``.  Like a log, an open file follows a rename or removal:
  rows appended after one land in the renamed (or unlinked) file, not
  in a new file at the old path, until the descriptor is closed.

**Record shape.**  Each line is one JSON object.  Run records keep a
*deterministic core* (spec fingerprint, algorithm, instance/scenario
labels, disposition, result fingerprint, rounds, messages, attempts,
error type) separated from an ``observed`` sub-object (wall-clock,
worker identity, timestamp, environment snapshot).  The core
of a run record is byte-stable across serial / pool / sharded
execution of the same batch; the ``observed`` block is where all the
legitimately non-deterministic accounting lives.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import RunSpec
    from repro.results import RunResult

#: Ledger record format version (bumped on incompatible shape change).
LEDGER_FORMAT = 1

#: The dispositions a run record may carry: how the spec was resolved.
#: The executor writes the first four; ``coalesced`` is written by the
#: service layer for followers that joined a concurrent identical
#: request (those never reach the executor at all).
RUN_DISPOSITIONS = (
    "executed",
    "failed",
    "cache_memory",
    "cache_disk",
    "coalesced",
)

__all__ = [
    "LEDGER_FORMAT",
    "RUN_DISPOSITIONS",
    "LedgerWriter",
    "active_ledger_dir",
    "deterministic_core",
    "ledger_context",
    "read_ledger_rows",
    "record_run",
    "resolve_ledger_dir",
    "snapshot_environment",
]


# --- environment snapshot ---------------------------------------------

_ENVIRONMENT_CACHE: tuple[int, dict[str, Any]] | None = None


def _module_version(name: str) -> str | None:
    try:
        module = __import__(name)
    except Exception:
        return None
    return getattr(module, "__version__", None)


def snapshot_environment() -> dict[str, Any]:
    """A JSON-safe snapshot of the interpreter and host this runs on.

    The provenance block embedded in ledger records and
    ``BENCH_scheduler.json``: enough to answer "which python, which
    numpy, which machine" for any recorded number.  Cached per process
    (the pid key keeps forked pool workers honest); callers get a
    private copy.
    """
    global _ENVIRONMENT_CACHE
    pid = os.getpid()
    if _ENVIRONMENT_CACHE is None or _ENVIRONMENT_CACHE[0] != pid:
        _ENVIRONMENT_CACHE = (
            pid,
            {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": platform.platform(),
                "machine": platform.machine(),
                "numpy": _module_version("numpy"),
                "networkx": _module_version("networkx"),
                "hostname": socket.gethostname(),
                "pid": pid,
            },
        )
    return dict(_ENVIRONMENT_CACHE[1])


def worker_identity() -> str:
    """``hostname:pid`` — who is writing, at per-process granularity."""
    snapshot = snapshot_environment()
    return f"{snapshot['hostname']}:{snapshot['pid']}"


# --- the ambient seam --------------------------------------------------

#: The ambient ledger directory (the executor's ``ledger_dir=`` default).
#: ``None`` means runs record nothing unless told where to.
_ACTIVE_LEDGER_DIR: ContextVar[str | None] = ContextVar(
    "repro_ledger_dir", default=None
)


@contextmanager
def ledger_context(directory: str | Path | None) -> Iterator[str | None]:
    """Install ``directory`` as the ambient ledger for the ``with`` block.

    Every ``run``/``run_many``/``run_many_iter`` call inside the block
    that does not pass its own ``ledger_dir=`` records there.  ``None`` is a
    no-op (the ambient ledger is left as is), so callers can pass their
    own optional argument straight through.
    """
    if directory is None:
        yield _ACTIVE_LEDGER_DIR.get()
        return
    token = _ACTIVE_LEDGER_DIR.set(str(directory))
    try:
        yield str(directory)
    finally:
        _ACTIVE_LEDGER_DIR.reset(token)


def active_ledger_dir() -> str | None:
    """The ambient ledger directory, or ``None`` when recording is off."""
    return _ACTIVE_LEDGER_DIR.get()


def resolve_ledger_dir(explicit: str | Path | None) -> str | None:
    """An explicit ``ledger_dir=`` wins; otherwise the ambient one."""
    if explicit is not None:
        return str(explicit)
    return _ACTIVE_LEDGER_DIR.get()


# --- writing -----------------------------------------------------------

#: Ledger and event files a process keeps open for appending; opening
#: one more closes the least recently written.
MAX_OPEN_FILES = 16

#: Open append descriptors of this process, path -> descriptor, in
#: least-recently-written order.  One lock covers lookup, write and
#: close, so no thread writes through a descriptor another thread has
#: closed (and the OS may have reused).
_OPEN_FILES: OrderedDict[str, int] = OrderedDict()
_OPEN_FILES_LOCK = threading.Lock()


def _close(descriptor: int) -> None:
    try:
        os.close(descriptor)
    except OSError:
        pass


def _forget_open_files() -> None:
    """In a forked child: drop the parent's descriptors and lock.

    The child appends to its own ``<hostname>-<pid>.jsonl`` files, and
    the lock may have been held by a parent thread at the fork.
    """
    global _OPEN_FILES_LOCK
    _OPEN_FILES_LOCK = threading.Lock()
    for descriptor in _OPEN_FILES.values():
        _close(descriptor)
    _OPEN_FILES.clear()


os.register_at_fork(after_in_child=_forget_open_files)


def _append(directory: Path, path: str, data: bytes) -> bool:
    """Append ``data`` to ``path`` through its kept-open descriptor."""
    with _OPEN_FILES_LOCK:
        descriptor = _OPEN_FILES.get(path)
        try:
            if descriptor is None:
                directory.mkdir(parents=True, exist_ok=True)
                descriptor = os.open(
                    path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666
                )
                _OPEN_FILES[path] = descriptor
                if len(_OPEN_FILES) > MAX_OPEN_FILES:
                    _close(_OPEN_FILES.popitem(last=False)[1])
            else:
                _OPEN_FILES.move_to_end(path)
            view = memoryview(data)
            while view:
                view = view[os.write(descriptor, view):]
            return True
        except OSError:
            if descriptor is not None:
                _OPEN_FILES.pop(path, None)
                _close(descriptor)
            return False


class LedgerWriter:
    """Append JSON lines to a per-process file in a ledger directory.

    One writer may be constructed per call site — construction is
    cheap and opens nothing; the file's descriptor is opened on the
    first append of the process and kept.  Every :meth:`record`
    recomputes the target filename from the *current* pid, so a writer
    that crosses a ``fork`` keeps the one-file-per-process invariant.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def path(self) -> Path:
        hostname = snapshot_environment()["hostname"]
        return self.directory / f"{hostname}-{os.getpid()}.jsonl"

    def record(self, row: dict[str, Any]) -> bool:
        """Append one record; returns whether the write landed.

        Best-effort by contract: any :class:`OSError` (read-only
        directory, disk full, a file where the directory should be) is
        swallowed — observability must never fail a run — and the
        failed file's descriptor is closed.
        """
        line = json.dumps(row, sort_keys=True, default=repr) + "\n"
        return _append(self.directory, str(self.path()), line.encode("utf-8"))


def _message_count(result: "RunResult") -> int | None:
    """The scheduler's message counter, wherever this result keeps it.

    Scenario executions report ``messages_delivered``; primitive
    pipelines report ``messages``; plain solver runs may report
    neither (``None`` — absence is honest, zero would be a lie).
    """
    for source in (result.details, result.stats):
        for key in ("messages_delivered", "messages"):
            value = source.get(key)
            if isinstance(value, int) and not isinstance(value, bool):
                return value
    return None


def record_run(
    ledger_dir: str | Path | None,
    *,
    spec: "RunSpec",
    fingerprint: str,
    disposition: str,
    result: "RunResult",
    attempts: int = 1,
    wall_clock_s: float | None = None,
) -> None:
    """Append one run record; a ``None`` directory records nothing.

    Called by the executor at every resolution site (execution, cache
    hit, capture).  Wrapped in a blanket exception guard beyond the
    writer's own ``OSError`` swallow: a bug in record *construction*
    must not take the run down either.
    """
    if ledger_dir is None:
        return
    try:
        scenario = spec.scenario
        row: dict[str, Any] = {
            "kind": "run",
            "format": LEDGER_FORMAT,
            "fingerprint": fingerprint,
            "algorithm": spec.algorithm,
            "instance": spec.instance.label(),
            "scenario": (
                None
                if scenario is None or scenario.is_identity()
                else scenario.label()
            ),
            "disposition": disposition,
            "result_fingerprint": result.result_fingerprint(),
            "rounds": result.rounds,
            "messages": _message_count(result),
            "attempts": attempts,
            "error_type": getattr(result, "error_type", None),
            "observed": {
                "wall_clock_s": (
                    round(wall_clock_s, 6) if wall_clock_s is not None else None
                ),
                "worker": worker_identity(),
                "unix_ts": time.time(),
                "environment": snapshot_environment(),
            },
        }
        LedgerWriter(ledger_dir).record(row)
    except Exception:
        pass


def deterministic_core(row: dict[str, Any]) -> dict[str, Any]:
    """A run record minus its ``observed`` block.

    What the byte-stability contract covers: the core of the records a
    batch produces is identical across serial / pool / sharded
    execution; everything timing- or host-dependent lives under
    ``observed`` and is excluded here.
    """
    return {key: value for key, value in row.items() if key != "observed"}


# --- reading -----------------------------------------------------------


def read_ledger_rows(directory: str | Path) -> list[dict[str, Any]]:
    """Merge every ``*.jsonl`` file of a ledger directory into one list.

    Files are read in sorted name order, lines in append order.  A
    line that does not parse as a JSON object is skipped — a ledger
    torn by a crashing writer degrades to fewer records, never to a
    read error (the same tolerance every sidecar reader here has).  A
    missing directory is simply an empty ledger.
    """
    root = Path(directory)
    if not root.is_dir():
        return []
    rows: list[dict[str, Any]] = []
    for path in sorted(root.glob("*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict):
                rows.append(row)
    return rows
