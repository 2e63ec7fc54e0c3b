"""The original (seed) round loop, preserved as the reference oracle.

This module keeps the pre-optimization scheduler implementation alive
for two jobs:

* **Equivalence testing.**  The fast path in
  :mod:`repro.model.scheduler` must produce bit-identical ``rounds``,
  ``messages_sent`` and ``outputs``; the property-style tests in
  ``tests/test_model_scheduler_equivalence.py`` run both loops on
  random graphs and diff the results.
* **Perf baselining.**  ``benchmarks/bench_scheduler_core.py`` and the
  ``python -m repro bench-core`` command time this loop against the
  fast path to record the before/after trajectory in
  ``BENCH_scheduler.json``.

It deliberately reproduces the seed's cost profile, not just its
semantics: ``max_degree`` is recomputed from the raw graph once per
node during context setup (the old O(n²) hotspot), delivery goes
through the ``neighbor_at_port`` / ``port_towards`` dictionary API,
every node gets an inbox dict every round whether or not it is halted,
global halting is an O(n) ``all()`` scan per round, and every message
is wrapped in a :class:`~repro.model.message.Message` envelope whose
``repr`` size is computed eagerly.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.errors import RoundLimitExceededError
from repro.graphs.properties import max_degree as _graph_max_degree
from repro.model.algorithm import NodeAlgorithm, NodeContext
from repro.model.message import Message
from repro.model.network import Network
from repro.model.scheduler import ExecutionResult


def reference_run(
    network: Network,
    algorithm: NodeAlgorithm,
    *,
    max_rounds: int = 10_000,
    record_trace: bool = False,
) -> ExecutionResult:
    """Execute ``algorithm`` with the seed scheduler loop.

    Semantically equal to ``Scheduler(network, ...).run(algorithm)``;
    kept only as the slow oracle (see module docstring).
    """
    contexts: dict[Hashable, NodeContext] = {}
    for node in network.nodes():
        contexts[node] = NodeContext(
            node=node,
            unique_id=network.id_of(node),
            degree=network.degree(node),
            n=network.n,
            # The seed recomputed Δ from scratch for every node; keep
            # that cost so "before" timings are honest.
            max_degree=_graph_max_degree(network.graph),
        )
        algorithm.initialize(contexts[node])

    rounds = 0
    messages_sent = 0
    max_message_size = 0
    trace: list[Message] = []

    while not all(ctx.halted for ctx in contexts.values()):
        if rounds >= max_rounds:
            stuck = [n for n, c in contexts.items() if not c.halted][:5]
            raise RoundLimitExceededError(
                f"round budget {max_rounds} exhausted; "
                f"non-halted nodes include {stuck!r}"
            )
        rounds += 1

        # Phase 1: all nodes compose against start-of-round state.
        inboxes: dict[Hashable, dict[int, Any]] = {
            node: {} for node in contexts
        }
        for node, ctx in contexts.items():
            if ctx.halted:
                continue
            outbox = algorithm.compose_messages(ctx)
            for port, payload in outbox.items():
                ctx.require_port(port)
                receiver = network.neighbor_at_port(node, port)
                receiver_port = network.port_towards(receiver, node)
                inboxes[receiver][receiver_port] = payload
                messages_sent += 1
                message = Message(
                    sender=node,
                    receiver=receiver,
                    round_index=rounds,
                    payload=payload,
                )
                max_message_size = max(max_message_size, message.size_estimate())
                if record_trace:
                    trace.append(message)

        # Phase 2: simultaneous delivery and state transition.
        for node, ctx in contexts.items():
            if ctx.halted:
                continue
            algorithm.receive_messages(ctx, inboxes[node])

    outputs = {node: algorithm.output(ctx) for node, ctx in contexts.items()}
    return ExecutionResult(
        rounds=rounds,
        messages_sent=messages_sent,
        outputs=outputs,
        trace=trace,
        max_message_size=max_message_size,
    )
