"""The synchronous round loop (columnar fast path).

The scheduler realises the LOCAL model's semantics exactly:

* rounds are global and synchronous;
* in a round, every non-halted node first *composes* its outgoing
  messages against its state at the start of the round, then all
  messages are delivered simultaneously, then every node *receives*;
* the execution ends when all nodes have halted (or the round budget
  is exhausted, which raises — silent truncation would corrupt round
  measurements).

Columnar round engine
---------------------
This is the scheduler's only backend and :meth:`Scheduler.run` its
only round loop: every run — clean, traced, or under a delivery hook —
goes through it.  It is the compiled counterpart of the original
reference loop (preserved verbatim-in-behavior in
:mod:`repro.model.reference` and pinned by the scheduler-equivalence
tests).  Delivery runs over **flat parallel buffers** addressed by the
network's compiled column layout (:meth:`Network.delivery_columns`)
instead of per-node dictionaries.  A delivery hook changes the loop in
three places only — crashes before compose, composed sends collected
for the hook's ``gate`` instead of written, and a flush of the released
sends — and shares every buffer and the receive phase with the clean
path.

Buffer layout
~~~~~~~~~~~~~
The network's CSR layout assigns every directed (node, port) pair a
*slot*: node index ``i`` owns slots ``row_start[i] ..
row_start[i+1]-1``, one per port, in port order.  The engine keeps
three flat buffers over those ``2m`` slots plus three per-node
columns:

* ``payload_buf[slot]`` — the payload delivered *into* ``slot`` (a
  receiver-side address: ``row_start[j] + receiver_port``);
* ``stamp_buf[slot]`` — the round stamp at which that payload was
  written; a slot is live only while its stamp equals the current
  round's stamp, so buffers never need clearing between rounds or
  runs;
* ``recv_stamp[j]`` — the last stamp at which node ``j`` had a payload
  *pushed* to one of its slots, so silent receivers cost O(1), not a
  port scan;
* ``bcast_payload[i]`` / ``bcast_stamp[i]`` — the **broadcast
  column**: when a node's outbox sends one identical payload through
  every port (the dominant shape of distributed algorithms — floods,
  color announcements, class sweeps), the engine records the whole
  outbox as a single stamped per-*sender* cell instead of ``deg(i)``
  per-slot writes.  Send cost for a broadcast round is O(active
  nodes), not O(messages).

Delivery is therefore push *or* pull per sender: a mixed or partial
outbox is *pushed* — the compiled ``dest_slot`` column maps the
sender-side index ``row_start[i] + port`` straight to the receiver's
flat slot, three list indexings per message, no inbox dict in sight —
while a uniform full outbox is *pulled* by its receivers from the
broadcast column.

Inboxes as slices
~~~~~~~~~~~~~~~~~
At receive time each node materialises its inbox from contiguous
columns in one pass.  A receiver of pushed messages reads its own
slice ``payload_buf[row_start[j] : row_start[j+1]]``; a receiver of
broadcasts gathers ``bcast_payload`` through its neighbor-index row
(:meth:`Network.neighbor_index_rows` — the receiver column resliced
per node) with C-level ``map``/``count``, and the common full-inbox
case is built with ``dict(enumerate(...))`` without an interpreted
per-message loop at all.  Rounds that mixed pushes and broadcasts
merge the two sources port by port (each port has exactly one sender,
so the union is disjoint).  Nodes that received nothing get a fresh
empty dict.

Determinism argument
~~~~~~~~~~~~~~~~~~~~
The reference loop builds each inbox dict by inserting messages in
ascending *sender* order (all nodes compose in the single canonical
sort order).  Ports are numbered in ascending neighbor-rank order, so
for a fixed receiver the map ``sender rank -> receiver port`` is
strictly increasing: iterating a receiver's slots in port order visits
exactly the reference's insertion order.  Slice- and gather-built
inboxes are therefore *order-identical* to the reference dicts, not
just equal-as-mappings, and every reordering-sensitive choice (node
order, port order, round iteration) still derives from the one
canonical sort — ``rounds``, ``messages_sent`` and ``outputs`` stay
bit-identical to the reference loop.  The broadcast column never
changes observable behavior either: it is only taken when every port
carries the *same payload object* (a C-level ``id`` set — ==-equal
but distinct payloads such as ``1`` vs ``1.0`` keep exact per-port
delivery and size accounting) and the outbox keys equal the canonical
port set ``{0 .. deg-1}`` (a C set-equality against a precomputed
frozenset — out-of-range or fractional ports route to the push path,
whose validation raises exactly where the reference raises), so the
pulled inbox entry is the very object the reference would have
delivered, and ``messages_sent`` still counts ``deg(i)`` messages per
broadcast.  Messages addressed to halted nodes are stored and
*counted* (the reference counts them too) but never materialised into
an inbox.  One deliberate nicety remains: a uniform outbox keyed by
*integral* floats (``{0.0: x, 1.0: x}``) hashes equal to the port set
and is delivered by key equality where the reference happens to raise
``TypeError``; real algorithms use integer ports and never hit the
difference.

Arenas
~~~~~~
The flat buffers live in a :class:`RoundArena` and are sized by the
network's slot count.  By default each ``run`` leases a private arena;
sweeps that execute many runs can share one arena across cells (see
:func:`shared_arena` and the harness), so buffer allocation happens
once per sweep instead of once per cell.  Stamps come from the arena's
monotone clock and are never reused, so a recycled buffer cannot leak
stale payloads into a later run — sharing is observably free.

Size accounting
~~~~~~~~~~~~~~~
The running ``max_message_size`` is kept exactly as the reference
does, but the ``repr`` size of each *distinct* payload value is
computed once and memoized, and consecutive sends of the *same object*
within one outbox (broadcasts) are audited once — no user code runs
between the ports of one outbox, so the object cannot change size in
between.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Protocol

from repro.errors import RoundLimitExceededError
from repro.model.algorithm import NodeAlgorithm, NodeContext
from repro.model.message import Message
from repro.model.network import Network

#: One composed message: ``(sender_index, port, payload)`` — the unit
#: the delivery-hook seam gates.  Sender index and port are the dense
#: network coordinates; ``row_start[sender] + port`` is the flat CSR
#: slot the engine flushes through.
Send = tuple[int, int, Any]


class DeliveryHook(Protocol):
    """The narrow seam adversarial execution models plug into.

    A hook never forks the engine: :meth:`Scheduler.run` still
    composes, flushes through the same flat stamp/payload columns, and
    materialises inboxes from them — the hook only decides *which*
    composed messages flush *when*, and which nodes the adversary
    crashes.  Every composed message reaches ``gate`` individually, so
    hooked runs never use the broadcast column.
    :mod:`repro.scenarios.models` implements the concrete models
    (bounded asynchrony, crash-stop, lossy links) on top of it.

    Contract notes:

    * ``begin_run`` and ``initially_crashed`` are called once at the
      start of a run, and ``end_run`` once at its end — also when the
      run raises, with the rounds and flushed messages so far.
    * ``gate`` receives this round's freshly composed sends and returns
      the sends to flush now; anything withheld (a backlog the hook
      owns) must resurface through a later ``gate`` or be reported via
      its own bookkeeping.  Dropping and duplicating are the hook's
      business — the engine delivers exactly what ``gate`` returns,
      except that a link (sender, port) carries at most one message per
      round: surplus sends on a busy link are handed back through
      ``requeue`` and should be re-gated later.
    * ``round_crashes`` is consulted once per round *before* compose;
      returned node indices are halted immediately and excluded from
      the run's outputs.  ``initially_crashed`` lets a hook re-apply
      crashes at the start of a follow-up run on the same agents
      (multi-stage programs keep one adversary timeline).
    """

    def begin_run(self, network: Network) -> None: ...

    def initially_crashed(self) -> Iterable[int]: ...

    def round_crashes(self, round_index: int) -> Iterable[int]: ...

    def gate(self, round_index: int, new_sends: list[Send]) -> list[Send]: ...

    def requeue(self, round_index: int, sends: list[Send]) -> None: ...

    def end_run(self, rounds: int, delivered: int) -> None: ...


@dataclass
class ExecutionResult:
    """Outcome of one simulated execution.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds until global halting.
    messages_sent:
        Total messages delivered over the whole execution.
    outputs:
        Mapping node -> the node's declared output.
    max_message_size:
        Largest payload ``repr`` size observed (LOCAL ignores message
        size; reported so experiments can discuss CONGEST-feasibility).
    trace:
        Optional list of all messages (populated when tracing is on).
    """

    rounds: int
    messages_sent: int
    outputs: dict[Hashable, Any]
    trace: list[Message] = field(default_factory=list)
    max_message_size: int = 0


class RoundArena:
    """Reusable flat buffers for the columnar round engine.

    One arena holds the receiver-side payload/stamp buffers and the
    per-node receive stamps, sized to the largest network seen so far
    (buffers only grow).  Its monotone ``clock`` supplies round stamps
    that are unique across every run sharing the arena, which is what
    makes reuse safe: a slot written by an earlier run can never carry
    a stamp equal to a later run's round.

    An arena is single-occupancy: nested runs (an algorithm that spins
    up an inner simulation from inside a callback) automatically fall
    back to a private arena instead of corrupting the outer run's
    buffers.
    """

    def __init__(self) -> None:
        self._payload_buf: list[Any] = []
        self._stamp_buf: list[int] = []
        self._recv_stamp: list[int] = []
        self._bcast_payload: list[Any] = []
        self._bcast_stamp: list[int] = []
        self._clock = 0
        self._in_use = False

    def lease(
        self, slots: int, n: int
    ) -> tuple[list[Any], list[int], list[int], list[Any], list[int]]:
        """Return the five buffers, grown to fit.

        ``(payload_buf, stamp_buf, recv_stamp, bcast_payload,
        bcast_stamp)`` — the first two sized by ``slots`` (directed
        slot count), the rest by ``n``.
        """
        if len(self._stamp_buf) < slots:
            grow = slots - len(self._stamp_buf)
            self._stamp_buf.extend([0] * grow)
            self._payload_buf.extend([None] * grow)
        if len(self._recv_stamp) < n:
            grow = n - len(self._recv_stamp)
            self._recv_stamp.extend([0] * grow)
            self._bcast_payload.extend([None] * grow)
            self._bcast_stamp.extend([0] * grow)
        return (
            self._payload_buf,
            self._stamp_buf,
            self._recv_stamp,
            self._bcast_payload,
            self._bcast_stamp,
        )

    def tick(self) -> int:
        """Advance the monotone clock and return a fresh round stamp."""
        self._clock += 1
        return self._clock

    def clear(self) -> None:
        """Drop payload references (stamps and the clock are kept).

        Payload slots retain references to the last run's payloads
        until overwritten; call this after a sweep so a long-lived
        arena does not pin large payloads in memory.
        """
        self._payload_buf = [None] * len(self._payload_buf)
        self._bcast_payload = [None] * len(self._bcast_payload)


#: The ambient shared arena, if a sweep installed one (see
#: :func:`shared_arena`).  ``None`` means every run leases a private
#: arena.
_ACTIVE_ARENA: ContextVar[RoundArena | None] = ContextVar(
    "repro_round_arena", default=None
)

@contextmanager
def shared_arena(arena: RoundArena | None = None) -> Iterator[RoundArena]:
    """Install ``arena`` (or a fresh one) as the ambient arena.

    Every :class:`Scheduler` constructed without an explicit ``arena=``
    inside the ``with`` block reuses these buffers, so a sweep of many
    cells pays for buffer allocation once.  The arena's payload slots
    are cleared on exit.
    """
    active = arena if arena is not None else RoundArena()
    token = _ACTIVE_ARENA.set(active)
    try:
        yield active
    finally:
        _ACTIVE_ARENA.reset(token)
        active.clear()


def build_contexts(
    network: Network, algorithm: NodeAlgorithm
) -> tuple[list[NodeContext], list[int]]:
    """Batched context construction for one run.

    Builds all :class:`NodeContext` objects from the network's compiled
    tables in one pass, runs ``initialize`` on each, and returns the
    contexts (indexed by dense node index) plus the initial active set
    (indices of nodes that did not halt during initialisation, in
    canonical order).
    """
    nodes = network.nodes()
    degrees = network.degree_table()
    ids = network.ids_by_index()
    n = network.n
    delta = network.max_degree
    contexts = [
        NodeContext(
            node=nodes[index],
            unique_id=ids[index],
            degree=degrees[index],
            n=n,
            max_degree=delta,
        )
        for index in range(n)
    ]
    initialize = algorithm.initialize
    for ctx in contexts:
        initialize(ctx)
    active = [index for index in range(n) if not contexts[index].halted]
    return contexts, active


#: Sentinel for the per-outbox "same object as the previous payload"
#: audit skip; never a user payload.
_UNSEEN = object()


def _repr_size_miss(
    size_memo: dict[type, dict[Any, int]], payload: Any
) -> int:
    """Size a payload the memo missed, and memoize it if hashable.

    The hit is probed inline at each call site, ``size_memo[type][value]``:
    keyed by type then value because equal payloads of different types
    (1 vs 1.0 vs True) repr differently.  Unhashable payloads are sized
    on every send.
    """
    size = len(repr(payload))
    try:
        size_memo.setdefault(payload.__class__, {})[payload] = size
    except TypeError:  # unhashable: no memo entry
        pass
    return size


class Scheduler:
    """Runs a :class:`NodeAlgorithm` on a :class:`Network`.

    Parameters
    ----------
    network:
        The network to run on.
    max_rounds:
        Hard budget; exceeding it raises :class:`RoundLimitExceededError`.
    record_trace:
        When ``True``, every message is kept in the result's trace
        (memory-heavy; meant for tests, small demos and the CONGEST
        audit).
    arena:
        Buffer arena to lease from.  ``None`` uses the ambient arena
        installed by :func:`shared_arena`, or a private one.
    delivery_hook:
        Optional :class:`DeliveryHook` realising an adversarial
        execution model (see :mod:`repro.scenarios`).  ``None`` (the
        default) runs the synchronous path with the broadcast column.
        With a hook installed, ``messages_sent`` counts messages
        actually *flushed* into the delivery columns (dropped and
        still-deferred messages are the hook's bookkeeping), the trace
        records deliveries rather than sends, and
        ``ExecutionResult.outputs`` covers surviving (non-crashed)
        nodes only.
    """

    def __init__(
        self,
        network: Network,
        *,
        max_rounds: int = 10_000,
        record_trace: bool = False,
        arena: RoundArena | None = None,
        delivery_hook: DeliveryHook | None = None,
    ) -> None:
        self._network = network
        self._max_rounds = max_rounds
        self._record_trace = record_trace
        self._arena = arena
        self._delivery_hook = delivery_hook

    def run(self, algorithm: NodeAlgorithm) -> ExecutionResult:
        """Execute ``algorithm`` to global halting and return the result.

        Under a delivery hook, composed sends are flushed only when the
        hook's ``gate`` releases them (withheld sends carry over inside
        the hook and re-enter through later gates — the monotone stamps
        make late flushes indistinguishable from fresh ones), and the
        hook may crash nodes at the start of any round.  Crashed nodes
        stop composing and receiving immediately and are excluded from
        ``outputs``; survivors keep running against whatever stale
        state their inboxes reflect.
        """
        network = self._network
        nodes = network.nodes()
        degrees = network.degree_table()
        row_start, col_receiver, _col_port, col_dest = (
            network.delivery_columns()
        )
        neighbor_rows = network.neighbor_index_rows()
        n = network.n
        hook = self._delivery_hook

        contexts, active = build_contexts(network, algorithm)

        arena = self._arena
        if arena is None:
            arena = _ACTIVE_ARENA.get()
        if arena is None or arena._in_use:
            arena = RoundArena()
        payload_buf, stamp_buf, recv_stamp, bcast_payload, bcast_stamp = (
            arena.lease(row_start[n], n)
        )
        bcast_payload_get = bcast_payload.__getitem__
        bcast_stamp_get = bcast_stamp.__getitem__
        # Canonical port sets per degree: a full outbox keyed exactly
        # by {0 .. deg-1} is eligible for the broadcast column.  The
        # keys-view comparison is one C set-equality per sender with no
        # allocation.
        port_sets = {
            degree: frozenset(range(degree)) for degree in set(degrees)
        }

        rounds = 0
        messages_sent = 0
        trace: list[Message] = []
        trace_append = trace.append
        record_trace = self._record_trace
        size_memo: dict[type, dict[Any, int]] = {}
        max_message_size = 0
        max_rounds = self._max_rounds
        compose = algorithm.compose_messages
        receive = algorithm.receive_messages
        crashed: set[int] = set()

        try:
            arena._in_use = True
            if hook is not None:
                hook.begin_run(network)
                for index in hook.initially_crashed():
                    crashed.add(index)
                    contexts[index].halt()
                if crashed:
                    active = [i for i in active if i not in crashed]
            while active:
                if rounds >= max_rounds:
                    stuck = [nodes[index] for index in active[:5]]
                    raise RoundLimitExceededError(
                        f"round budget {max_rounds} exhausted; "
                        f"non-halted nodes include {stuck!r}"
                    )
                rounds += 1
                stamp = arena.tick()
                any_broadcast = False
                any_push = False

                if hook is not None:
                    # Adversary phase: crashes take effect before
                    # compose, so a node crashed in round r sends
                    # nothing in r.
                    for index in hook.round_crashes(rounds):
                        if index not in crashed:
                            crashed.add(index)
                            contexts[index].halt()
                    new_sends: list[Send] = []
                    new_sends_append = new_sends.append

                # Phase 1: all active nodes compose against start-of-
                # round state.  Under a hook each send is collected for
                # the gate.  Otherwise a uniform full outbox lands in
                # the broadcast column in O(1) and anything else is
                # pushed payload by payload into flat receiver slots.
                # No inbox dicts exist during the send phase.
                for index in active:
                    ctx = contexts[index]
                    if ctx.halted:
                        continue
                    outbox = compose(ctx)
                    if not outbox:
                        continue
                    degree = degrees[index]
                    if hook is not None:
                        for port, payload in outbox.items():
                            if not 0 <= port < degree:
                                ctx.require_port(port)  # raises
                            new_sends_append((index, port, payload))
                        continue
                    broadcast = None
                    # Tracing needs one record per message in send
                    # order, so it forces every outbox through the
                    # per-message push path.
                    if (
                        len(outbox) == degree
                        and not record_trace
                        and outbox.keys() == port_sets[degree]
                    ):
                        # Identity, not equality: every port must carry
                        # the *same object* (checked at C speed via the
                        # id set), so ==-equal but distinct payloads
                        # (1 vs 1.0, per-port tuples) keep the exact
                        # per-port delivery and size accounting of the
                        # reference.
                        values = list(outbox.values())
                        candidate = values[0]
                        if degree == 1 or len(set(map(id, values))) == 1:
                            broadcast = candidate
                    if broadcast is not None:
                        bcast_payload[index] = broadcast
                        bcast_stamp[index] = stamp
                        any_broadcast = True
                        messages_sent += degree
                        # Every copy is the same object, so one memo
                        # probe accounts for all deg messages.
                        try:
                            size = size_memo[broadcast.__class__][broadcast]
                        except (KeyError, TypeError):  # miss, unhashable
                            size = _repr_size_miss(size_memo, broadcast)
                        if size > max_message_size:
                            max_message_size = size
                        continue
                    any_push = True
                    base = row_start[index]
                    prev = _UNSEEN
                    for port, payload in outbox.items():
                        if not 0 <= port < degree:
                            ctx.require_port(port)  # raises
                        idx = base + port
                        slot = col_dest[idx]
                        payload_buf[slot] = payload
                        stamp_buf[slot] = stamp
                        receiver = col_receiver[idx]
                        if recv_stamp[receiver] != stamp:
                            recv_stamp[receiver] = stamp
                        if payload is not prev:
                            prev = payload
                            try:
                                size = size_memo[payload.__class__][payload]
                            except (KeyError, TypeError):
                                size = _repr_size_miss(size_memo, payload)
                            if size > max_message_size:
                                max_message_size = size
                        if record_trace:
                            trace_append(
                                Message(
                                    sender=nodes[index],
                                    receiver=nodes[receiver],
                                    round_index=rounds,
                                    payload=payload,
                                )
                            )
                    messages_sent += len(outbox)

                if hook is not None:
                    # Flush phase: exactly the sends the hook releases
                    # land in the flat columns.  A link carries one
                    # message per round — surplus sends on a busy link
                    # go back to the hook and re-enter through a later
                    # gate.
                    any_push = True
                    busy: list[Send] = []
                    for send in hook.gate(rounds, new_sends):
                        sender, port, payload = send
                        idx = row_start[sender] + port
                        slot = col_dest[idx]
                        if stamp_buf[slot] == stamp:
                            busy.append(send)
                            continue
                        payload_buf[slot] = payload
                        stamp_buf[slot] = stamp
                        receiver = col_receiver[idx]
                        if recv_stamp[receiver] != stamp:
                            recv_stamp[receiver] = stamp
                        messages_sent += 1
                        try:
                            size = size_memo[payload.__class__][payload]
                        except (KeyError, TypeError):
                            size = _repr_size_miss(size_memo, payload)
                        if size > max_message_size:
                            max_message_size = size
                        if record_trace:
                            trace_append(
                                Message(
                                    sender=nodes[sender],
                                    receiver=nodes[receiver],
                                    round_index=rounds,
                                    payload=payload,
                                )
                            )
                    if busy:
                        hook.requeue(rounds, busy)

                # Phase 2: simultaneous delivery and state transition.
                # Each receiver materialises its inbox from contiguous
                # columns in one pass — pushed slices, pulled broadcast
                # gathers, or a port-by-port merge of both.  A node that
                # halted during its own compose is skipped, same as the
                # reference.
                next_active: list[int] = []
                next_active_append = next_active.append
                for index in active:
                    ctx = contexts[index]
                    if ctx.halted:
                        continue
                    pushed = any_push and recv_stamp[index] == stamp
                    if not any_broadcast:
                        if not pushed:
                            receive(ctx, {})
                            if not ctx.halted:
                                next_active_append(index)
                            continue
                        base = row_start[index]
                        end = row_start[index + 1]
                        stamps = stamp_buf[base:end]
                        width = end - base
                        if stamps.count(stamp) == width:
                            inbox = dict(enumerate(payload_buf[base:end]))
                        else:
                            payloads = payload_buf[base:end]
                            inbox = {
                                port: payloads[port]
                                for port in range(width)
                                if stamps[port] == stamp
                            }
                    else:
                        sources = neighbor_rows[index]
                        pulled = list(map(bcast_stamp_get, sources))
                        width = len(sources)
                        if not pushed:
                            hits = pulled.count(stamp)
                            if hits == width:
                                inbox = dict(
                                    enumerate(
                                        map(bcast_payload_get, sources)
                                    )
                                )
                            elif hits == 0:
                                inbox = {}
                            else:
                                inbox = {
                                    port: bcast_payload[source]
                                    for port, source in enumerate(sources)
                                    if pulled[port] == stamp
                                }
                        else:
                            # Mixed round: each port has exactly one
                            # sender, so push and pull entries are
                            # disjoint; merge in port order.
                            base = row_start[index]
                            inbox = {}
                            for port in range(width):
                                slot = base + port
                                if stamp_buf[slot] == stamp:
                                    inbox[port] = payload_buf[slot]
                                elif pulled[port] == stamp:
                                    inbox[port] = bcast_payload[
                                        sources[port]
                                    ]
                    receive(ctx, inbox)
                    if not ctx.halted:
                        next_active_append(index)
                active = next_active
        finally:
            arena._in_use = False
            if hook is not None:
                hook.end_run(rounds, messages_sent)

        output = algorithm.output
        outputs = {
            ctx.node: output(ctx)
            for index, ctx in enumerate(contexts)
            if index not in crashed
        }
        return ExecutionResult(
            rounds=rounds,
            messages_sent=messages_sent,
            outputs=outputs,
            trace=trace,
            max_message_size=max_message_size,
        )


def run_on_graph(
    algorithm: NodeAlgorithm,
    graph,
    *,
    ids=None,
    max_rounds: int = 10_000,
    record_trace: bool = False,
) -> ExecutionResult:
    """One-shot convenience wrapper: build the network and run."""
    network = Network(graph, ids=ids)
    scheduler = Scheduler(
        network, max_rounds=max_rounds, record_trace=record_trace
    )
    return scheduler.run(algorithm)
