"""Execution models: the adversaries a scenario run executes under.

An :class:`ExecutionModel` is one entry of the scenario registry
(:mod:`repro.scenarios.registry`).  It owns two things: a *parameter
schema* (``validate_params`` — unknown keys and out-of-range values
raise :class:`~repro.errors.ScenarioError`; defaults are filled in, so
two spellings of the same adversary normalise to one fingerprint) and a
*hook factory* (``build_hook`` — the seeded
:class:`~repro.model.scheduler.DeliveryHook` the columnar engine runs
under).

Four models ship:

``synchronous``
    The identity model: no hook at all.  Runs are *bit-for-bit* the
    plain engine — a :class:`repro.api.RunSpec` carrying the identity
    scenario even shares the fingerprint (and therefore the cache
    entries) of the same spec without one.
``bounded_async``
    Bounded asynchrony via seeded per-round message quotas: each round
    at most ``quota (+ seeded jitter)`` messages flush from the global
    FIFO backlog into the delivery columns; everything else carries
    over.  Messages are never lost, only late.
``crash_stop``
    An adversary crashes up to ``f`` nodes, each at a seeded round in
    ``{1, ..., horizon}``.  Crashed nodes stop composing and receiving
    immediately and are excluded from the run's outputs; survivors keep
    running against whatever stale neighbor state their inboxes
    reflect.
``lossy_links``
    Seeded per-link-use loss: every message is independently dropped
    with probability ``drop``; a delivered message is echoed once more
    a round later with probability ``duplicate``.

Determinism: every hook draws from one ``random.Random(seed)`` whose
consumption order is fixed by the engine's canonical node order, so a
fixed scenario seed yields the identical drop/crash/quota schedule in
every process — serial runs, pool workers, and future sessions agree.
"""

from __future__ import annotations

import abc
import random
from collections import deque
from typing import Any, Iterable, Mapping

from repro.errors import ScenarioError
from repro.model.network import Network
from repro.model.scheduler import Send


class ScenarioHook:
    """Base :class:`~repro.model.scheduler.DeliveryHook` with bookkeeping.

    Owns the FIFO backlog of withheld sends, the adversary's crash set,
    a global round counter spanning multi-stage runs (a program that
    chains several scheduler runs on the same agents keeps *one*
    adversary timeline), and the outcome counters the scenario result
    reports.  Subclasses override :meth:`_bind` (build the seeded
    schedule once the network is known), :meth:`_crashes_at`, and
    :meth:`gate`.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        self._backlog: deque[Send] = deque()
        self._bound = False
        self.crashed: set[int] = set()
        self.global_round = 0
        self.stages = 0
        self.dropped = 0
        self.deferred = 0
        self.duplicated = 0
        self.delivered = 0
        self.undelivered_at_finish = 0

    # -- scheduler-facing protocol ------------------------------------

    def begin_run(self, network: Network) -> None:
        self.stages += 1
        if not self._bound:
            self._bind(network)
            self._bound = True

    def initially_crashed(self) -> Iterable[int]:
        return sorted(self.crashed)

    def round_crashes(self, round_index: int) -> Iterable[int]:
        self.global_round += 1
        victims = self._crashes_at(self.global_round)
        self.crashed.update(victims)
        return victims

    def gate(self, round_index: int, new_sends: list[Send]) -> list[Send]:
        return new_sends  # synchronous delivery unless overridden

    def requeue(self, round_index: int, sends: list[Send]) -> None:
        # A busy link hands surplus sends back; they rejoin the *front*
        # of the backlog so per-link FIFO order is preserved.
        self._backlog.extendleft(reversed(sends))
        self.deferred += len(sends)

    def end_run(self, rounds: int, delivered: int = 0) -> None:
        # In-flight messages do not survive a run (or stage) boundary.
        # The engine reports how many messages it flushed, so the count
        # survives even when a run dies mid-flight (aborted programs
        # still record their real delivery totals).
        self.undelivered_at_finish += len(self._backlog)
        self.delivered += delivered
        self._backlog.clear()

    # -- model-specific pieces ----------------------------------------

    def _bind(self, network: Network) -> None:
        """Build the seeded schedule; called once, at the first run."""

    def _crashes_at(self, global_round: int) -> list[int]:
        return []

    def stats(self) -> dict[str, Any]:
        """JSON-safe outcome counters for the scenario result."""
        return {
            "messages_dropped": self.dropped,
            "messages_deferred": self.deferred,
            "messages_duplicated": self.duplicated,
            "undelivered_at_finish": self.undelivered_at_finish,
            "crashed_count": len(self.crashed),
            "stages": self.stages,
        }


class ExecutionModel(abc.ABC):
    """One registry entry: a named, parameterised execution model."""

    #: Registry key (also ``ScenarioSpec.model``).
    name: str = ""
    #: One-line description for ``repro list --scenarios``.
    description: str = ""
    #: ``True`` for the model whose runs are the plain engine.
    identity: bool = False
    #: Parameter name -> one-line doc (with default), for the CLI table.
    param_docs: Mapping[str, str] = {}

    @abc.abstractmethod
    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Return the normalised parameter dict (defaults filled in).

        Raises :class:`~repro.errors.ScenarioError` on unknown keys or
        out-of-range values.  The normalised dict is what fingerprints
        and executes, so ``{}`` and spelled-out defaults are one
        scenario.
        """

    @abc.abstractmethod
    def build_hook(self, seed: int, params: Mapping[str, Any]) -> ScenarioHook | None:
        """Return a fresh seeded hook (``None`` for the identity model).

        Accepts raw *or* normalised parameters — it runs
        :meth:`validate_params` itself, so it is safe as the single
        entry point (callers that also need the normalised dict, like
        the executor's provenance block, may validate first; the repeat
        is a few dict probes).
        """

    def _check_keys(self, params: Mapping[str, Any]) -> None:
        unknown = sorted(set(params) - set(self.param_docs))
        if unknown:
            raise ScenarioError(
                f"execution model {self.name!r} does not take parameters "
                f"{unknown}; have {sorted(self.param_docs)}"
            )


def _int_param(model: str, params: Mapping[str, Any], key: str, default: int, minimum: int) -> int:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(
            f"{model} parameter {key!r} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise ScenarioError(
            f"{model} parameter {key!r} must be >= {minimum}, got {value}"
        )
    return value


def _rate_param(model: str, params: Mapping[str, Any], key: str, default: float) -> float:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(
            f"{model} parameter {key!r} must be a number, got {value!r}"
        )
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise ScenarioError(
            f"{model} parameter {key!r} must lie in [0, 1), got {value}"
        )
    return value


class Synchronous(ExecutionModel):
    """The identity model: the plain synchronous engine, bit-for-bit."""

    name = "synchronous"
    description = (
        "identity model — the untouched synchronous engine; shares "
        "fingerprints (and cache entries) with scenario-less specs"
    )
    identity = True
    param_docs: Mapping[str, str] = {}

    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        self._check_keys(params)
        return {}

    def build_hook(self, seed: int, params: Mapping[str, Any]) -> ScenarioHook | None:
        return None


class _BoundedAsynchronyHook(ScenarioHook):
    def __init__(self, seed: int, quota: int, jitter: int) -> None:
        super().__init__(seed)
        self._quota = quota
        self._jitter = jitter

    def gate(self, round_index: int, new_sends: list[Send]) -> list[Send]:
        backlog = self._backlog
        backlog.extend(new_sends)
        quota = self._quota
        if self._jitter:
            quota += self._rng.randint(0, self._jitter)
        take = backlog.popleft
        deliver = [take() for _ in range(min(quota, len(backlog)))]
        # Deferral is counted in message-rounds: a message that waits
        # three rounds in the backlog contributes three.
        self.deferred += len(backlog)
        return deliver


class BoundedAsynchrony(ExecutionModel):
    """Seeded per-round message quotas; late delivery, never loss."""

    name = "bounded_async"
    description = (
        "bounded asynchrony — at most quota (+ seeded jitter) messages "
        "flush per round from a global FIFO backlog; the rest carry over"
    )
    param_docs = {
        "quota": "messages delivered per round (int >= 1, default 2)",
        "jitter": "extra seeded per-round headroom in [0, jitter] (int >= 0, default 0)",
    }

    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        self._check_keys(params)
        return {
            "quota": _int_param(self.name, params, "quota", 2, 1),
            "jitter": _int_param(self.name, params, "jitter", 0, 0),
        }

    def build_hook(self, seed: int, params: Mapping[str, Any]) -> ScenarioHook:
        normalized = self.validate_params(params)
        return _BoundedAsynchronyHook(
            seed, normalized["quota"], normalized["jitter"]
        )


class _CrashStopHook(ScenarioHook):
    def __init__(self, seed: int, f: int, horizon: int) -> None:
        super().__init__(seed)
        self._f = f
        self._horizon = horizon
        self._schedule: dict[int, list[int]] = {}
        #: Seeded ``[round, node_index]`` pairs, for result provenance.
        self.crash_schedule: list[list[int]] = []

    def _bind(self, network: Network) -> None:
        victims = self._rng.sample(range(network.n), min(self._f, network.n))
        for victim in victims:
            crash_round = self._rng.randint(1, self._horizon)
            self._schedule.setdefault(crash_round, []).append(victim)
        self.crash_schedule = sorted(
            [crash_round, victim]
            for crash_round, victims_at in self._schedule.items()
            for victim in victims_at
        )

    def _crashes_at(self, global_round: int) -> list[int]:
        return sorted(self._schedule.get(global_round, ()))

    def stats(self) -> dict[str, Any]:
        stats = super().stats()
        stats["crash_schedule"] = self.crash_schedule
        return stats


class CrashStop(ExecutionModel):
    """Up to ``f`` seeded crash-stop faults within the first rounds."""

    name = "crash_stop"
    description = (
        "crash-stop faults — the adversary crashes up to f nodes at "
        "seeded rounds in {1..horizon}; survivors keep running against "
        "stale neighbor state"
    )
    param_docs = {
        "f": "maximum number of crashed nodes (int >= 0, default 1)",
        "horizon": "crash rounds are drawn from {1..horizon} (int >= 1, default 8)",
    }

    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        self._check_keys(params)
        return {
            "f": _int_param(self.name, params, "f", 1, 0),
            "horizon": _int_param(self.name, params, "horizon", 8, 1),
        }

    def build_hook(self, seed: int, params: Mapping[str, Any]) -> ScenarioHook:
        normalized = self.validate_params(params)
        return _CrashStopHook(seed, normalized["f"], normalized["horizon"])


class _LossyLinksHook(ScenarioHook):
    def __init__(self, seed: int, drop: float, duplicate: float) -> None:
        super().__init__(seed)
        self._drop = drop
        self._duplicate = duplicate

    def gate(self, round_index: int, new_sends: list[Send]) -> list[Send]:
        # Echoes scheduled by an earlier round's duplication (and any
        # link-busy requeues) arrive ahead of this round's traffic.
        deliver = list(self._backlog)
        self._backlog.clear()
        rng = self._rng
        drop = self._drop
        duplicate = self._duplicate
        for send in new_sends:
            if rng.random() < drop:
                self.dropped += 1
                continue
            deliver.append(send)
            if duplicate and rng.random() < duplicate:
                self.duplicated += 1
                self._backlog.append(send)
        return deliver


class LossyLinks(ExecutionModel):
    """Seeded per-link-use message drop and duplication."""

    name = "lossy_links"
    description = (
        "lossy links — every message is independently dropped with "
        "probability drop; delivered messages echo once more a round "
        "later with probability duplicate"
    )
    param_docs = {
        "drop": "per-message drop probability in [0, 1) (default 0.1)",
        "duplicate": "per-message echo probability in [0, 1) (default 0.0)",
    }

    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        self._check_keys(params)
        return {
            "drop": _rate_param(self.name, params, "drop", 0.1),
            "duplicate": _rate_param(self.name, params, "duplicate", 0.0),
        }

    def build_hook(self, seed: int, params: Mapping[str, Any]) -> ScenarioHook:
        normalized = self.validate_params(params)
        return _LossyLinksHook(seed, normalized["drop"], normalized["duplicate"])
