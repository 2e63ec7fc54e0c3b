"""Shared on-disk result-store mechanics (cache spill *and* cluster files).

Extracted from :mod:`repro.api.runner` so every layer that persists
fingerprinted JSON — the executor's ``cache_dir=`` spill, and the
:mod:`repro.cluster` shard manifests / leases / result files built on
top of it — goes through one set of primitives with one concurrency
story:

* :func:`atomic_write_text` (and :func:`atomic_write_json` over it) —
  write-to-temp + ``os.replace``.  The temporary file gets a **unique**
  name (``tempfile.mkstemp`` in the destination directory), so any
  number of processes may store the same path concurrently: each
  rename is atomic, the last writer wins, and a reader can never
  observe a half-written file.  (A fixed ``.tmp`` name would let two
  writers interleave truncate/rename and publish a torn entry.)
* :func:`disk_store` / :func:`disk_load` — the sealed cache-entry
  format: one JSON file per spec fingerprint, embedding the *result
  fingerprint* so corrupt or hand-edited entries are discarded as
  misses instead of masquerading as cached runs.
* :func:`prune_cache` — LRU-by-mtime eviction, tolerant of entries
  that a concurrent process deletes mid-scan (multiple cluster workers
  legitimately share one ``cache_dir`` and may prune simultaneously).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

from repro.results import RunResult
from repro.telemetry.trace import trace

#: On-disk entry format version (bumped on incompatible layout change).
#: Format 2 dropped the per-entry ``validated`` flag: only validated
#: results are stored, so a format-1 entry (possibly stored unchecked)
#: is a miss and is re-solved.
DISK_FORMAT = 2

#: Chaos seam (:mod:`repro.faults`): when set, consulted before every
#: atomic publish as ``hook(path, text)``.  Returning ``True`` means
#: the hook already "published" (e.g. wrote a deliberately torn file
#: straight to the target, bypassing the atomic rename) and the normal
#: path is skipped.  Every reader in the library treats a torn file as
#: absent and re-runs, so injected tears exercise exactly the recovery
#: paths a real mid-write crash would.
_PUBLISH_FAULT: Callable[[Path, str], bool] | None = None


def atomic_write_json(path: str | Path, payload: Any) -> None:
    """Publish ``payload`` at ``path`` atomically (concurrent-writer safe).

    The payload is serialized with sorted keys (non-JSON values fall
    back to ``repr``) and published with :func:`atomic_write_text`.
    """
    atomic_write_text(path, json.dumps(payload, sort_keys=True, default=repr))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Publish ``text`` at ``path`` atomically (concurrent-writer safe).

    The text is written to a uniquely named temporary file in the
    destination directory and renamed into place.  Concurrent writers
    of the same path each publish a complete file; the last rename
    wins.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fault = _PUBLISH_FAULT
    if fault is not None and fault(target, text):
        return
    descriptor, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_json(path: str | Path) -> Any | None:
    """Load a JSON file; any unreadable / undecodable file is ``None``."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def disk_path(cache_dir: str | Path, fingerprint: str) -> Path:
    """The cache entry path of one spec fingerprint."""
    return Path(cache_dir) / f"{fingerprint}.json"


def disk_store(
    cache_dir: str | Path, fingerprint: str, result: RunResult
) -> None:
    """Write one sealed JSON entry per fingerprint (atomic, last-writer-wins).

    The embedded ``result_fingerprint`` seals the payload; loads that
    do not reproduce it are discarded.  The result is serialized once,
    for its seal and its memoized :meth:`~repro.results.RunResult.to_json`
    text, which the entry embeds as it is: the file holds the bytes of
    ``json.dumps({"format", "fingerprint", "result": to_dict(),
    "result_fingerprint"}, sort_keys=True, default=repr)``.
    """
    text, seal = result.sealed_json()
    entry = (
        f'{{"fingerprint": {json.dumps(fingerprint)}, '
        f'"format": {DISK_FORMAT}, '
        f'"result": {text}, '
        f'"result_fingerprint": {json.dumps(seal)}}}'
    )
    with trace("cache.publish", fingerprint=fingerprint[:12]):
        atomic_write_text(disk_path(cache_dir, fingerprint), entry)


def disk_load(cache_dir: str | Path, fingerprint: str) -> RunResult | None:
    """Load a sealed entry; returns its result or ``None``.

    Any malformed, mismatched, or unreadable entry is a miss — the
    caller simply re-runs the spec and the entry is rewritten.  The
    seal check computes the loaded result's own fingerprint, which the
    result keeps, so later ledger records do not serialize it again.
    """
    with trace("cache.load", fingerprint=fingerprint[:12]) as span:
        payload = read_json(disk_path(cache_dir, fingerprint))
        if (
            not isinstance(payload, dict)
            or payload.get("format") != DISK_FORMAT
            or payload.get("fingerprint") != fingerprint
        ):
            span.annotate(hit=False)
            return None
        try:
            result = RunResult.from_dict(payload["result"])
        except Exception:
            span.annotate(hit=False)
            return None
        if result.result_fingerprint() != payload.get("result_fingerprint"):
            span.annotate(hit=False)
            return None
        span.annotate(hit=True)
        return result


def touch_entry(cache_dir: str | Path, fingerprint: str) -> bool:
    """Refresh an entry's mtime (LRU recency) — best effort.

    Returns whether the entry was touched; ``False`` means it could not
    be (most often: it is missing).  The path is joined as a string:
    this runs on every cache hit.
    """
    try:
        os.utime(os.path.join(cache_dir, f"{fingerprint}.json"))
    except OSError:
        return False
    return True


def prune_cache(cache_dir: str | Path, max_entries: int) -> int:
    """Evict the least-recently-used on-disk entries beyond a budget.

    Recency is file mtime — entries are touched on every cache hit and
    rewritten on every store, so mtime order is use order.  Keeps the
    ``max_entries`` most recent entries, deletes the rest, and returns
    how many files were removed.  ``max_entries=0`` empties the store;
    a missing directory is a no-op.  Safe against concurrent pruners
    and writers: an entry that vanishes between the scan and its stat
    (or unlink) was deleted by another process and is simply skipped.
    Exposed on the CLI as ``python -m repro cache-prune`` and applied
    automatically when the executor entry points are given
    ``cache_max_entries=``.
    """
    if max_entries < 0:
        raise ValueError(f"max_entries must be >= 0, got {max_entries}")
    directory = Path(cache_dir)
    if not directory.is_dir():
        return 0
    found = list(directory.glob("*.json"))
    if len(found) <= max_entries:
        # Under budget: skip the per-entry stat and the sort, so
        # per-run pruning (``run(..., cache_max_entries=)`` in a loop)
        # costs one directory scan, not O(store) stats each call.
        return 0
    entries: list[tuple[int, str, Path]] = []
    for path in found:
        try:
            entries.append((path.stat().st_mtime_ns, path.name, path))
        except FileNotFoundError:
            # Evicted by a concurrent pruner between glob and stat —
            # already gone, nothing for us to remove.
            continue
    if len(entries) <= max_entries:
        return 0
    entries.sort()
    excess = entries[: len(entries) - max_entries] if max_entries else entries
    removed = 0
    for _, _, path in excess:
        try:
            path.unlink()
            removed += 1
        except OSError:
            # FileNotFoundError included: a concurrent process beat us
            # to this entry; it does not count toward *our* removals.
            pass
    return removed
