"""Unified run results: the common outcome type of every algorithm.

Historically the paper solver returned ``SolveResult`` and the
baselines returned ``BaselineResult`` through a separate registry, so
the harness, CLI, and benchmarks each handled two shapes.
:class:`RunResult` is now the single common type: both legacy classes
are thin subclasses of it (their old import paths keep working), and
the :mod:`repro.api` entry points deal exclusively in ``RunResult``.

A result knows how to render itself as a JSON-safe dict and how to
compute a **result fingerprint** — the SHA-256 of its canonical JSON
form.  Fingerprints are the reproducibility contract of the batch
executor: the same :class:`repro.api.RunSpec` must produce the same
result fingerprint whether it ran serially, in a process pool, or in a
different session.

Results are **immutable**: the dataclasses are frozen, ``coloring``,
``stats`` and ``details`` are read-only mappings (nested dicts too,
with lists turned into tuples), and an attached
:class:`~repro.core.ledger.RoundLedger` is frozen.  Caches, duplicate
specs and coalesced service requests therefore share one result object
instead of copying it, and the serializations a result memoizes
(:meth:`RunResult.result_fingerprint`, :meth:`RunResult.to_json`) are
shared with it; derive a changed result with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

from repro.graphs.edges import Edge, edge_to_token, token_to_edge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ledger import RoundLedger


def canonical_json(payload: Any) -> str:
    """Render ``payload`` as canonical (sorted, compact) JSON.

    Non-JSON values fall back to ``repr`` so fingerprinting is total.
    """
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        default=repr,
    )


def fingerprint_of(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _freeze(value: Any) -> Any:
    """A read-only copy of ``value``: dicts become read-only mappings and
    lists tuples, recursively.  A read-only mapping is taken as already
    frozen; other values are kept as they are.
    """
    if isinstance(value, MappingProxyType):
        return value
    if isinstance(value, dict):
        return MappingProxyType(
            {key: _freeze(item) for key, item in value.items()}
        )
    if isinstance(value, list) or type(value) is tuple:
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: Any) -> Any:
    """The plain dict / list form of a :func:`_freeze` result, for JSON."""
    if isinstance(value, MappingProxyType):
        return {key: _thaw(item) for key, item in value.items()}
    if type(value) is tuple:
        return [_thaw(item) for item in value]
    return value


def _rebuild(cls: type, state: dict[str, Any]) -> "RunResult":
    return cls(**state)


@dataclass(frozen=True)
class RunResult:
    """Outcome of running any registered algorithm on one instance.

    Attributes
    ----------
    name:
        Algorithm name (registry key / table row label).
    coloring:
        Edge -> color (palette ``{1, ..., 2Δ-1}`` unless noted).
    rounds:
        LOCAL rounds under the library's accounting rules (sequential
        stages add, parallel stages take the max, primitives report
        simulated rounds).
    palette_size:
        Size of the palette the algorithm promises (``2Δ-1``).
    fingerprint:
        Fingerprint of the :class:`repro.api.RunSpec` that produced
        this result (empty for direct, spec-less invocations).
    policy_name:
        Parameter policy in force (paper solver only).
    initial_palette:
        ``X`` of the initial edge coloring the recursion consumed
        (paper solver only).
    stats:
        Structural statistics (ledger counters, Lemma 4.2 trajectory).
    details:
        Algorithm-specific observables (e.g. Luby's trial count).
    ledger:
        Full round-accounting tree when the algorithm keeps one.
    """

    name: str = ""
    coloring: Mapping[Edge, int] = field(default_factory=dict)
    rounds: int = 0
    palette_size: int = 0
    fingerprint: str = ""
    policy_name: str | None = None
    initial_palette: int | None = None
    stats: Mapping[str, object] = field(default_factory=dict)
    details: Mapping[str, object] = field(default_factory=dict)
    ledger: "RoundLedger | None" = field(default=None, repr=False)
    #: Ledger total carried by deserialized results (the tree itself is
    #: not persisted); keeps ``to_dict`` — and hence the result
    #: fingerprint — exact across a disk round-trip.
    _ledger_rounds: int | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        coloring = self.coloring
        if not isinstance(coloring, MappingProxyType):
            object.__setattr__(self, "coloring", MappingProxyType(dict(coloring)))
        object.__setattr__(self, "stats", _freeze(self.stats))
        object.__setattr__(self, "details", _freeze(self.details))
        if self.ledger is not None:
            self.ledger.freeze()

    def __reduce__(self):
        # Read-only mappings cannot be pickled, and a process pool
        # pickles every result: ship plain dicts and re-freeze on load.
        return _rebuild, (
            type(self),
            {f.name: _thaw(getattr(self, f.name)) for f in fields(self)},
        )

    def colors_used(self) -> int:
        """Number of distinct colors actually used."""
        return len(set(self.coloring.values()))

    def to_dict(self, *, include_coloring: bool = True) -> dict[str, Any]:
        """Render as a JSON-safe dict (edges become ``"u--v"`` tokens).

        The ledger tree is summarised by its total (the full tree is
        available via :mod:`repro.analysis.serialization`).
        """
        payload: dict[str, Any] = {
            "name": self.name,
            "rounds": self.rounds,
            "palette_size": self.palette_size,
            "colors_used": self.colors_used(),
            "edges": len(self.coloring),
            "fingerprint": self.fingerprint,
            "policy_name": self.policy_name,
            "initial_palette": self.initial_palette,
            "stats": _thaw(self.stats),
            "details": _thaw(self.details),
            "ledger_rounds": (
                self.ledger.total_rounds()
                if self.ledger is not None
                else self._ledger_rounds
            ),
        }
        if include_coloring:
            payload["coloring"] = {
                edge_to_token(edge): color
                for edge, color in sorted(self.coloring.items(), key=repr)
            }
        return payload

    def is_failure(self) -> bool:
        """``True`` for captured per-spec failures (:class:`FailedResult`)."""
        return False

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from its :meth:`to_dict` form.

        The inverse used by the on-disk result cache
        (:mod:`repro.api.runner`).  Edge tokens are parsed back into
        canonical tuples (integer labels restored as integers); the
        ledger tree is not serialized by :meth:`to_dict` and therefore
        comes back as ``None`` — everything :meth:`result_fingerprint`
        covers round-trips exactly.

        Captured failure records (payloads carrying a ``"failure"``
        block, see :class:`FailedResult`) deserialize back into
        ``FailedResult``, so shard result files and dead-letter entries
        round-trip failures exactly like successes.
        """
        if "failure" in payload and cls is RunResult:
            return FailedResult.from_dict(payload)
        return cls(
            name=payload.get("name", ""),
            coloring={
                token_to_edge(token): color
                for token, color in payload.get("coloring", {}).items()
            },
            rounds=int(payload.get("rounds", 0)),
            palette_size=int(payload.get("palette_size", 0)),
            fingerprint=payload.get("fingerprint", ""),
            policy_name=payload.get("policy_name"),
            initial_palette=payload.get("initial_palette"),
            stats=dict(payload.get("stats", {})),
            details=dict(payload.get("details", {})),
            _ledger_rounds=payload.get("ledger_rounds"),
        )

    def result_fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form of this result.

        Two runs of the same spec — serial or parallel, this session or
        the next — must agree byte-for-byte on this value.  Computed
        once per object: the value is kept in the instance ``__dict__``,
        outside the dataclass fields, so equality, pickling and
        :func:`dataclasses.replace` never carry it.
        """
        cached = self.__dict__.get("_result_fingerprint")
        if cached is None:
            cached = self.sealed_dict()[1]
        return cached

    def to_json(self) -> str:
        """``json.dumps(to_dict(), sort_keys=True, default=repr)``: the
        text the service embeds in its responses.

        Computed once per object and kept, like
        :meth:`result_fingerprint`, in the instance ``__dict__``, so
        pickling and :func:`dataclasses.replace` never carry it.
        """
        text = self.__dict__.get("_json")
        if text is None:
            text = json.dumps(self.to_dict(), sort_keys=True, default=repr)
            object.__setattr__(self, "_json", text)
        return text

    def sealed_dict(self) -> tuple[dict[str, Any], str]:
        """``(to_dict(), result_fingerprint())`` from one serialization.

        For writers that store the dict next to its seal (the disk
        cache); also fills the :meth:`result_fingerprint` cache.
        """
        payload = self.to_dict()
        fingerprint = fingerprint_of(payload)
        object.__setattr__(self, "_result_fingerprint", fingerprint)
        return payload, fingerprint


@dataclass(frozen=True)
class FailedResult(RunResult):
    """A captured per-spec failure: the executor's account of a poison spec.

    Produced by the batch executor under ``on_error="capture"``
    (:mod:`repro.api.runner`) when every attempt at a spec raised: the
    spec's slot in the batch holds this record instead of aborting the
    whole pool.  The serialized **failure record**
    (:meth:`to_dict` / :meth:`result_fingerprint`) is deterministic —
    serial and parallel executions of the same deterministic failure
    agree byte for byte, and re-running with the same fault seed
    reproduces it exactly.  Wall-clock and the full traceback text are
    observational: they live on the in-memory object (and in
    dead-letter files) but stay out of the canonical record.

    Attributes
    ----------
    error_type:
        Exception class name of the last attempt's failure.
    error_message:
        ``str()`` of that exception.
    traceback_digest:
        SHA-256 over the last attempt's formatted traceback (captured
        at the execution site, so it is identical whether the spec ran
        serially, in a pool worker, or in a cluster worker).
    attempts:
        How many attempts were made (1 + retries).
    wall_clock_s:
        Total wall-clock across all attempts (not serialized).
    traceback_text:
        The full formatted traceback of the last attempt (not
        serialized into the record; dead-letter files keep a copy for
        debugging).
    """

    error_type: str = ""
    error_message: str = ""
    traceback_digest: str = ""
    attempts: int = 1
    wall_clock_s: float | None = field(default=None, compare=False)
    traceback_text: str | None = field(
        default=None, repr=False, compare=False
    )

    def is_failure(self) -> bool:
        return True

    def to_dict(self, *, include_coloring: bool = True) -> dict[str, Any]:
        """The canonical failure record (deterministic, no wall-clock)."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "failure": {
                "error_type": self.error_type,
                "error_message": self.error_message,
                "traceback_digest": self.traceback_digest,
                "attempts": self.attempts,
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FailedResult":
        """Rebuild a failure record from its :meth:`to_dict` form."""
        failure = dict(payload.get("failure", {}))
        return cls(
            name=payload.get("name", ""),
            fingerprint=payload.get("fingerprint", ""),
            error_type=str(failure.get("error_type", "")),
            error_message=str(failure.get("error_message", "")),
            traceback_digest=str(failure.get("traceback_digest", "")),
            attempts=int(failure.get("attempts", 1)),
        )
