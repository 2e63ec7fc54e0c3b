"""The programming interface of a simulated distributed algorithm.

An algorithm is written from the perspective of a single node, exactly
as in the LOCAL model: the node knows ``n``, ``Δ``, its own unique ID,
and its ports; everything else must arrive through messages.  The
scheduler drives all nodes through synchronous rounds:

1. ``initialize(ctx)`` — once, before round 1 (local computation only);
2. per round: ``compose_messages(ctx)`` — return the messages to send
   this round, keyed by port;
3. per round: ``receive_messages(ctx, inbox)`` — handle the messages
   that arrived (keyed by port), update state, possibly halt;
4. ``output(ctx)`` — after halting, the node's part of the solution.

The split into compose/receive enforces the synchronous semantics: all
sends of a round happen against the state at the *start* of the round.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping

from repro.errors import ModelViolationError


@dataclass
class NodeContext:
    """Everything a node legitimately knows, plus its private state.

    Attributes
    ----------
    node:
        The node's label in the simulation (not visible to a real LOCAL
        node; exposed for debugging only — algorithms should key their
        logic on ``unique_id`` and ports).
    unique_id:
        The node's unique identifier from ``{1, ..., n^{O(1)}}``.
    degree:
        Number of incident ports.
    port_count:
        Alias of ``degree`` (ports are ``0 .. degree-1``).
    n:
        Number of nodes in the network (known in the LOCAL model).
    max_degree:
        ``Δ`` of the network (known in the LOCAL model).
    state:
        Private mutable state dictionary for the algorithm.
    halted:
        Set by the algorithm when the node is finished.  A halted node
        neither sends nor receives.
    """

    node: Hashable
    unique_id: int
    degree: int
    n: int
    max_degree: int
    state: dict[str, Any] = field(default_factory=dict)
    halted: bool = False

    @property
    def port_count(self) -> int:
        return self.degree

    def halt(self) -> None:
        """Mark this node as finished (idempotent)."""
        self.halted = True

    def require_port(self, port: int) -> None:
        """Raise unless ``port`` is a valid port number of this node."""
        if not 0 <= port < self.degree:
            raise ModelViolationError(
                f"node {self.node!r} used invalid port {port} "
                f"(has {self.degree} ports)"
            )


class NodeAlgorithm(abc.ABC):
    """Base class for LOCAL algorithms run by the scheduler.

    Subclasses override the three hooks below.  The same *instance* is
    shared across all nodes (algorithms are uniform); all per-node data
    must live in ``ctx.state``.
    """

    def initialize(self, ctx: NodeContext) -> None:
        """Set up per-node state before the first round (optional)."""

    @abc.abstractmethod
    def compose_messages(self, ctx: NodeContext) -> Mapping[int, Any]:
        """Return this round's outgoing payloads, keyed by port.

        Ports without an entry send nothing.  Returning an empty
        mapping is allowed — a node may stay silent and still receive.
        """

    @abc.abstractmethod
    def receive_messages(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        """Process this round's incoming payloads, keyed by port.

        This is where state transitions happen; call ``ctx.halt()``
        when the node has computed its part of the output.
        """

    @abc.abstractmethod
    def output(self, ctx: NodeContext) -> Any:
        """Return the node's part of the solution (after halting)."""
