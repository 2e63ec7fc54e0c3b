"""CONGEST-model execution: bandwidth-bounded synchronous rounds.

The paper works in the LOCAL model (unbounded messages).  A natural
follow-up question — explicitly part of the field's agenda — is which
of its building blocks already fit the CONGEST model, where every
message is limited to ``O(log n)`` bits.  This module answers that
*empirically*: it runs any :class:`~repro.model.algorithm.NodeAlgorithm`
under a hard per-message bit budget and reports violations.

Payload sizes are measured exactly for the payload shapes our
primitives send (integers and small tuples of integers), so the verdict
"Linial's reduction is CONGEST-compatible" is a measured fact, not an
estimate (its messages are single colors of ``O(log n + log Δ)`` bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ModelViolationError, ParameterError
from repro.model.algorithm import NodeAlgorithm
from repro.model.network import Network
from repro.model.scheduler import ExecutionResult, Scheduler


def payload_bits(payload: Any) -> int:
    """Return the exact bit size of a primitive payload.

    Supported shapes (everything our algorithms send): ``None``, bools,
    non-negative integers, strings, and (nested) tuples/lists of these.
    Integers cost their binary length; containers cost the sum of their
    items plus 2 bits of framing per item (a standard self-delimiting
    encoding surcharge).
    """
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    if isinstance(payload, str):
        return 8 * len(payload.encode())
    if isinstance(payload, (tuple, list, frozenset, set)):
        items = list(payload)
        return sum(payload_bits(item) + 2 for item in items)
    raise ModelViolationError(
        f"cannot size payload of type {type(payload).__name__}; "
        "CONGEST execution supports ints, strings and containers thereof"
    )


@dataclass
class CongestReport:
    """Outcome of a CONGEST execution.

    Attributes
    ----------
    result:
        The underlying execution result (rounds, outputs, ...).
    bandwidth_bits:
        The enforced per-message budget.
    max_bits_seen:
        Largest message observed.
    violations:
        Number of messages over budget (0 when ``strict`` — execution
        would have raised instead).
    """

    result: ExecutionResult
    bandwidth_bits: int
    max_bits_seen: int = 0
    violations: int = 0

    @property
    def congest_compatible(self) -> bool:
        """Did the whole execution fit the budget?"""
        return self.violations == 0


class CongestScheduler(Scheduler):
    """A :class:`Scheduler` that enforces a per-message bit budget.

    Parameters
    ----------
    network:
        The network to run on.
    bandwidth_bits:
        Per-message budget.  The classic CONGEST choice is
        ``c * ceil(log2 n)`` for a small constant ``c``.
    strict:
        When ``True`` an oversized message raises
        :class:`ModelViolationError`; when ``False`` it is delivered
        but counted, so experiments can measure *how far* an algorithm
        is from CONGEST.
    """

    def __init__(
        self,
        network: Network,
        *,
        bandwidth_bits: int,
        strict: bool = True,
        max_rounds: int = 10_000,
    ) -> None:
        if bandwidth_bits < 1:
            raise ParameterError(
                f"bandwidth_bits must be >= 1, got {bandwidth_bits}"
            )
        # The bit audit reads the recorded trace: one Message per
        # delivered message, carrying the round, sender and receiver a
        # violation report names.  The repr-size audit runs too, so
        # ``report.result.max_message_size`` keeps reporting the LOCAL
        # size metric alongside the bit metric.
        super().__init__(network, max_rounds=max_rounds, record_trace=True)
        self._bandwidth_bits = bandwidth_bits
        self._strict = strict

    def run_congest(self, algorithm: NodeAlgorithm) -> CongestReport:
        """Execute and audit every message against the budget.

        The audit walks the result's trace, so ``report.result.trace``
        holds exactly the audited messages.  Distributed algorithms
        resend the same few payloads (colors, IDs) millions of times,
        so sizes of hashable payloads are memoized — the audit costs
        one dict probe per message instead of a recursive traversal.
        """
        result = super().run(algorithm)
        max_bits = 0
        violations = 0
        # Keyed by type then value: equal payloads of different types
        # (1 vs 1.0) must not share an entry — payload_bits is
        # type-strict and e.g. rejects floats.
        sizes: dict[type, dict[Any, int]] = {}
        for message in result.trace:
            payload = message.payload
            try:
                bits = sizes[payload.__class__][payload]
            except TypeError:  # unhashable payload; size it directly
                bits = payload_bits(payload)
            except KeyError:
                bits = payload_bits(payload)
                try:
                    sizes.setdefault(payload.__class__, {})[payload] = bits
                except TypeError:  # unhashable payload: no memo entry
                    pass
            max_bits = max(max_bits, bits)
            if bits > self._bandwidth_bits:
                violations += 1
                if self._strict:
                    raise ModelViolationError(
                        f"round {message.round_index}: message "
                        f"{message.sender!r} -> {message.receiver!r} "
                        f"uses {bits} bits > budget {self._bandwidth_bits}"
                    )
        return CongestReport(
            result=result,
            bandwidth_bits=self._bandwidth_bits,
            max_bits_seen=max_bits,
            violations=violations,
        )


def standard_bandwidth(n: int, constant: int = 4) -> int:
    """The conventional CONGEST budget ``constant * ceil(log2 n)`` bits."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return max(1, constant * max(1, (n - 1).bit_length()))
