"""Exception hierarchy for the ``repro`` library.

Every error raised by this library derives from :class:`ReproError`, so
downstream users can catch a single base class.  The more specific
subclasses distinguish between *user* mistakes (bad inputs), *model*
violations (an algorithm tried to do something the LOCAL model forbids)
and *algorithm* failures (an internal invariant of one of the paper's
procedures was violated — these indicate a bug and are always worth
reporting).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidInstanceError(ReproError, ValueError):
    """An input instance violates a documented precondition.

    Examples: a list edge coloring instance where some list is smaller
    than ``deg(e) + 1``, a palette that does not cover the lists, or a
    graph with self-loops.
    """


class ModelViolationError(ReproError, RuntimeError):
    """A simulated node attempted an operation the LOCAL model forbids.

    Examples: sending a message to a non-neighbor, or reading another
    node's private state outside of message passing.
    """


class AlgorithmInvariantError(ReproError, RuntimeError):
    """An internal invariant of one of the paper's procedures failed.

    These errors indicate a bug in the implementation (or an instance
    outside the regime an algorithm supports), never a user mistake.
    """


class ColoringValidationError(ReproError, AssertionError):
    """A produced coloring failed independent validation.

    Raised by :mod:`repro.coloring.verify` when a coloring is not a
    proper edge coloring, uses a color outside an edge's list, or
    exceeds a defect bound it promised to satisfy.
    """


class RoundLimitExceededError(ReproError, RuntimeError):
    """A simulated execution exceeded its configured round budget."""


class ParameterError(ReproError, ValueError):
    """A tuning parameter is outside its allowed range.

    Examples: a slack parameter smaller than one, a color-space split
    parameter ``p`` outside ``[2, C]``, or a non-positive defect target.
    """


class SpecFormatError(ReproError, ValueError):
    """A serialized spec carries fields this library does not understand.

    Raised by the ``from_dict`` constructors of
    :class:`repro.api.InstanceSpec` / :class:`repro.api.RunSpec` /
    :class:`repro.scenarios.ScenarioSpec` when a payload contains
    unknown keys.  Silently dropping them would let a spec written by a
    newer library version round-trip into a *different* experiment (and
    a different fingerprint), so unknown fields are an error, never a
    warning.
    """


def check_known_keys(payload, allowed, what: str) -> None:
    """Raise :class:`SpecFormatError` on keys ``from_dict`` would drop.

    Shared by every spec deserializer (it lives here, next to the error
    it raises, because the api and scenarios spec layers both use it):
    a payload written by a newer (or foreign) library version must fail
    loudly instead of silently round-tripping into a different
    experiment.
    """
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise SpecFormatError(
            f"{what} payload carries unknown fields {unknown} "
            f"(known: {sorted(allowed)}); refusing to drop them — "
            "the payload may come from a newer library version"
        )


class ScenarioError(ReproError, ValueError):
    """A scenario description cannot be executed.

    Examples: an unknown execution model, a model parameter outside its
    range, or an algorithm that has no message-passing program and
    therefore cannot run under an adversarial execution model.
    """


class ClusterError(ReproError, RuntimeError):
    """A sharded job's on-disk state is unusable or inconsistent.

    Examples: a job directory whose manifest does not match the specs
    handed to the coordinator, a sealed shard-result file that fails
    its integrity check, or a merge attempted while shards are still
    missing.  Stale *leases* are never an error — crashed workers are
    an expected execution condition and their shards are reclaimed.
    """


class SpecTimeoutError(ReproError, TimeoutError):
    """A single spec execution exceeded its ``timeout_s`` budget.

    Raised by the executor's per-attempt deadline
    (:func:`repro.api.failures.execution_deadline`) when one attempt at
    one spec runs past the failure policy's ``timeout_s``.  Under
    ``on_error="capture"`` it is recorded in a
    :class:`~repro.results.FailedResult` like any other per-spec
    failure; under ``on_error="raise"`` it propagates.
    """


class InjectedFault(ReproError, RuntimeError):
    """A failure deliberately injected by the chaos harness.

    Raised by :mod:`repro.faults` fault hooks (``poison`` / ``flaky``
    fault kinds) so injected failures are distinguishable from organic
    ones in captured failure records and dead-letter files.
    """


class FaultError(ReproError, ValueError):
    """A fault-injection description cannot be executed.

    Examples: an unknown fault kind, a fault parameter outside its
    range, or a fault plan payload that fails to deserialize.
    """


class ServiceUnavailable(ReproError, RuntimeError):
    """The service cannot take this run now; the client should retry.

    Raised by :meth:`repro.service.app.ReproService.run_one` when the
    solve pool already holds its bound of in-flight runs, or when a
    pool worker died under the run.  The HTTP layer answers **503**
    with a ``Retry-After`` header.
    """
