"""Message-passing implementations of the primitive subroutines.

The functional primitive :mod:`repro.primitives.linial` computes its
result plus round count directly; :class:`LinialColorReductionAlgorithm`
is the same reduction as a genuine
:class:`~repro.model.algorithm.NodeAlgorithm` that runs on the
synchronous simulator of :mod:`repro.model`, exchanging real messages.
Tests cross-validate the two forms: same proper colorings, and round
counts matching the functional accounting.  The class sweep's
message-passing form is
:class:`~repro.scenarios.programs.ResilientGreedySweepAlgorithm`, the
second stage of the ``linial_greedy`` scenario program.

Both algorithms are *uniform*: every node runs the same code and
decides everything from ``(n, Δ, unique_id, ports, messages)`` only, as
the LOCAL model requires.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import AlgorithmInvariantError, ParameterError
from repro.model.algorithm import NodeAlgorithm, NodeContext
from repro.primitives.linial import LinialStepParameters, linial_step_parameters
from repro.utils.gf import FieldPolynomial


def build_linial_schedule(
    id_space: int, degree_bound: int
) -> list[LinialStepParameters]:
    """Return the deterministic ``(q, k)`` schedule all nodes agree on.

    Every node knows the ID space and ``Δ``, so all nodes compute the
    same schedule locally — no coordination needed.  The schedule runs
    the reduction until its fixpoint.
    """
    if id_space < 1:
        raise ParameterError(f"id_space must be >= 1, got {id_space}")
    schedule: list[LinialStepParameters] = []
    palette = id_space + 1
    while palette >= 2:
        params = linial_step_parameters(palette, degree_bound)
        if params.new_palette_size >= palette:
            break
        schedule.append(params)
        palette = params.new_palette_size
    return schedule


class LinialColorReductionAlgorithm(NodeAlgorithm):
    """Linial's color reduction as a real message-passing program.

    Each round, every node broadcasts its current color, then applies
    one ``GF(q)`` reduction step against the received neighbor colors.
    After the schedule is exhausted the node halts with a color in an
    ``O(Δ²)`` palette.  Rounds: ``len(schedule) = O(log* id_space)``.
    """

    def __init__(self, id_space: int) -> None:
        self._id_space = id_space
        # Shared by all nodes of one run: every node derives the same
        # schedule from (id_space, Δ), and a color's value table from
        # (q, k, color), so each is computed once.
        self._schedules: dict[int, tuple[LinialStepParameters, ...]] = {}
        self._tables: dict[tuple[int, int, int], tuple[int, ...]] = {}

    def _schedule(self, degree_bound: int) -> tuple[LinialStepParameters, ...]:
        schedule = self._schedules.get(degree_bound)
        if schedule is None:
            schedule = tuple(build_linial_schedule(self._id_space, degree_bound))
            self._schedules[degree_bound] = schedule
        return schedule

    def _table(self, color: int, q: int, k: int) -> tuple[int, ...]:
        """The polynomial of ``color`` evaluated on all of ``GF(q)``."""
        key = (q, k, color)
        table = self._tables.get(key)
        if table is None:
            polynomial = FieldPolynomial.from_color(color, q, k)
            table = tuple(polynomial.evaluate(x) for x in range(q))
            self._tables[key] = table
        return table

    def initialize(self, ctx: NodeContext) -> None:
        ctx.state["color"] = ctx.unique_id
        ctx.state["schedule"] = self._schedule(ctx.max_degree)
        ctx.state["step"] = 0
        if not ctx.state["schedule"]:
            ctx.halt()

    def compose_messages(self, ctx: NodeContext) -> Mapping[int, Any]:
        return dict.fromkeys(range(ctx.degree), ctx.state["color"])

    def receive_messages(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        schedule: tuple[LinialStepParameters, ...] = ctx.state["schedule"]
        step = ctx.state["step"]
        params = schedule[step]
        q, k = params.q, params.k
        own_color = ctx.state["color"]
        own = self._table(own_color, q, k)
        forbidden: set[int] = set()
        for color in inbox.values():
            if color == own_color:
                raise AlgorithmInvariantError(
                    f"node {ctx.unique_id} saw its own color at a neighbor"
                )
            if not 0 <= color < q**k:
                # Only a message from an earlier step, delivered late
                # under an asynchronous schedule, carries a color this
                # step's polynomials cannot encode.
                raise AlgorithmInvariantError(
                    f"node {ctx.unique_id} received color {color}, outside "
                    f"step {step}'s {k}-digit GF({q}) color space"
                )
            other = self._table(color, q, k)
            forbidden.update(x for x in range(q) if own[x] == other[x])
        for x in range(q):
            if x not in forbidden:
                ctx.state["color"] = x * q + own[x]
                break
        else:  # pragma: no cover — guarded by q > d(k-1)
            raise AlgorithmInvariantError(
                f"node {ctx.unique_id} found no free evaluation point"
            )
        ctx.state["step"] += 1
        if ctx.state["step"] == len(schedule):
            ctx.halt()

    def output(self, ctx: NodeContext) -> int:
        return ctx.state["color"]


class FloodMaxAlgorithm(NodeAlgorithm):
    """Flood the maximum ID for a fixed horizon (scheduler demo/test).

    After ``horizon`` rounds every node within distance ``horizon`` of
    the maximum-ID node knows the maximum; with ``horizon >= diameter``
    all do.  Used by the model tests to pin down the synchronous
    semantics (information travels exactly one hop per round).
    """

    def __init__(self, horizon: int) -> None:
        if horizon < 0:
            raise ParameterError(f"horizon must be >= 0, got {horizon}")
        self._horizon = horizon

    def initialize(self, ctx: NodeContext) -> None:
        ctx.state["best"] = ctx.unique_id
        ctx.state["round"] = 0
        if self._horizon == 0:
            ctx.halt()

    def compose_messages(self, ctx: NodeContext) -> Mapping[int, Any]:
        # dict.fromkeys builds the uniform broadcast outbox at C speed;
        # identical mapping to a per-port comprehension.
        return dict.fromkeys(range(ctx.degree), ctx.state["best"])

    def receive_messages(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        if inbox:
            best = max(inbox.values())
            if best > ctx.state["best"]:
                ctx.state["best"] = best
        ctx.state["round"] += 1
        if ctx.state["round"] >= self._horizon:
            ctx.halt()

    def output(self, ctx: NodeContext) -> int:
        return ctx.state["best"]
