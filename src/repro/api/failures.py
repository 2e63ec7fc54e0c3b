"""Failure policy: capture vs. raise, retries, backoff, and timeouts.

The batch executor (:mod:`repro.api.runner`) accepts either the
shorthand ``on_error="raise"|"capture"`` or a full
:class:`FailurePolicy` on every entry point.  The policy decides what
one spec's failure does to the batch:

* ``on_error="raise"`` (the default) — the exception propagates,
  annotated with the failing spec's batch index and fingerprint (see
  ``run_many``), aborting the batch: the pre-failure-domain behaviour.
* ``on_error="capture"`` — every attempt is exhausted, then the spec's
  slot in the result list holds a deterministic
  :class:`~repro.results.FailedResult` instead of a result; the rest
  of the batch is unaffected.  Serial and parallel execution produce
  byte-identical failure records because capture happens at the
  execution site (inside :func:`repro.api.runner.run`), never at the
  pool boundary.

Retries are bounded (``retries`` extra attempts after the first) with
**seeded deterministic backoff**: the delay before attempt ``k+1`` is
``backoff_s * 2**(k-1)`` scaled by a jitter factor derived from
SHA-256 over ``(backoff_seed, spec fingerprint, attempt)`` — the same
spec retries on the same schedule in every process, every session.

``timeout_s`` bounds one *attempt*.  Enforcement uses ``SIGALRM``
(:func:`execution_deadline`), which works wherever specs actually
execute — the serial path, process-pool workers, and cluster worker
processes all run specs on their main thread.  Off the main thread (or
on platforms without ``SIGALRM``) the deadline degrades to a no-op
rather than failing: a documented best-effort seam, not a hard
guarantee.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.errors import ParameterError, SpecTimeoutError

#: Sleep seam for backoff delays — module-level so tests (and the
#: chaos harness) can observe or neutralise real sleeping.
_sleep = time.sleep

#: The ``repro`` package directory, with a trailing separator: frames
#: of a failure's traceback inside it are named relative to it.
_PACKAGE_PREFIX = (
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep
)

#: Keys a serialized FailurePolicy may carry.
_POLICY_KEYS = frozenset(
    {"on_error", "retries", "backoff_s", "max_backoff_s", "timeout_s",
     "backoff_seed"}
)


@dataclass(frozen=True)
class FailurePolicy:
    """How the executor treats a spec whose execution raises.

    Attributes
    ----------
    on_error:
        ``"raise"`` propagates the last attempt's exception (annotated
        with the spec's batch position); ``"capture"`` records a
        :class:`~repro.results.FailedResult` in the spec's slot.
    retries:
        Extra attempts after the first (``0`` = one attempt total).
    backoff_s:
        Base delay before the first retry; doubles per retry.  ``0``
        retries immediately.
    max_backoff_s:
        Hard cap on any single backoff delay.
    timeout_s:
        Per-attempt wall-clock budget (``None`` = unbounded).  See
        :func:`execution_deadline` for enforcement scope.
    backoff_seed:
        Seed mixed into the deterministic backoff jitter.
    """

    on_error: str = "raise"
    retries: int = 0
    backoff_s: float = 0.0
    max_backoff_s: float = 30.0
    timeout_s: float | None = None
    backoff_seed: int = 0

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "capture"):
            raise ParameterError(
                f"on_error must be 'raise' or 'capture', got "
                f"{self.on_error!r}"
            )
        if self.retries < 0:
            raise ParameterError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ParameterError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.max_backoff_s < 0:
            raise ParameterError(
                f"max_backoff_s must be >= 0, got {self.max_backoff_s}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ParameterError(
                f"timeout_s must be > 0 (or None), got {self.timeout_s}"
            )

    @property
    def captures(self) -> bool:
        return self.on_error == "capture"

    @property
    def attempts(self) -> int:
        """Total attempts this policy allows per spec."""
        return self.retries + 1

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (crosses the process-pool boundary)."""
        return {
            "on_error": self.on_error,
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "max_backoff_s": self.max_backoff_s,
            "timeout_s": self.timeout_s,
            "backoff_seed": self.backoff_seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FailurePolicy":
        """Inverse of :meth:`to_dict` (unknown fields ignored-free)."""
        from repro.errors import check_known_keys

        check_known_keys(payload, _POLICY_KEYS, "FailurePolicy")
        return cls(
            on_error=payload.get("on_error", "raise"),
            retries=int(payload.get("retries", 0)),
            backoff_s=float(payload.get("backoff_s", 0.0)),
            max_backoff_s=float(payload.get("max_backoff_s", 30.0)),
            timeout_s=payload.get("timeout_s"),
            backoff_seed=int(payload.get("backoff_seed", 0)),
        )


def resolve_policy(on_error: "str | FailurePolicy") -> FailurePolicy:
    """Normalise the executor's ``on_error`` argument to a policy.

    Accepts the shorthand strings ``"raise"`` / ``"capture"`` (default
    retry/timeout settings) or a full :class:`FailurePolicy`.
    """
    if isinstance(on_error, FailurePolicy):
        return on_error
    return FailurePolicy(on_error=on_error)


def backoff_delay(
    policy: FailurePolicy, fingerprint: str, attempt: int
) -> float:
    """The deterministic delay before retrying ``attempt + 1``.

    Exponential base (``backoff_s * 2**(attempt-1)``) scaled by a
    jitter factor in ``[1, 2)`` derived from SHA-256 over
    ``(backoff_seed, fingerprint, attempt)`` — pure, so every process
    that retries the same spec sleeps the same schedule.
    """
    if policy.backoff_s <= 0:
        return 0.0
    digest = hashlib.sha256(
        f"{policy.backoff_seed}:{fingerprint}:{attempt}".encode("utf-8")
    ).hexdigest()
    jitter = 1.0 + int(digest[:8], 16) / 16**8  # [1, 2)
    base = policy.backoff_s * (2 ** (attempt - 1))
    return min(base * jitter, policy.max_backoff_s)


@contextmanager
def execution_deadline(timeout_s: float | None) -> Iterator[None]:
    """Bound one execution attempt to ``timeout_s`` wall-clock seconds.

    Implemented with ``SIGALRM`` + ``setitimer``, so a runaway or hung
    attempt (tight loop, sleeping solver) is interrupted with
    :class:`~repro.errors.SpecTimeoutError` mid-flight.  Only
    enforceable on the main thread of a process with ``SIGALRM``
    (which covers the serial executor, process-pool workers, and
    cluster workers); anywhere else the context is a documented no-op.
    """
    if (
        not timeout_s
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum: int, frame: Any) -> None:
        raise SpecTimeoutError(
            f"spec execution attempt exceeded timeout_s={timeout_s}"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _frame_file(filename: str) -> str:
    """A traceback frame's file: relative to the ``repro`` package
    (``api/runner.py``), or its basename outside it."""
    path = os.path.abspath(filename)
    if path.startswith(_PACKAGE_PREFIX):
        return path[len(_PACKAGE_PREFIX):].replace(os.sep, "/")
    return os.path.basename(path)


def traceback_digest(exc: BaseException) -> str:
    """SHA-256 over what raised ``exc`` and where, wherever the code lives.

    Hashes the exception's type name and message and, for each frame
    of its traceback (:func:`traceback.extract_tb`), the frame's file
    (:func:`_frame_file`), its function name and its source line
    (``FrameSummary.line`` is stripped).  Line numbers and absolute
    paths are left out, so the same failure gives the same digest in
    every checkout, and an edit that only moves lines keeps it.
    """
    frames = [
        [_frame_file(frame.filename), frame.name, frame.line]
        for frame in traceback.extract_tb(exc.__traceback__)
    ]
    text = json.dumps([type(exc).__name__, str(exc), frames])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
