"""Scenario programs: message-passing workloads an adversary can drive.

An execution model can only perturb an algorithm that actually
*exchanges messages*.  Most registry entries (the paper solver, the
ledger-accounted baselines) compute centrally with round accounting —
there is nothing for an adversary to delay, drop, or crash.  This
module therefore keeps its own capability table: algorithm name ->
:class:`ScenarioProgram`, a genuinely distributed
:class:`~repro.model.algorithm.NodeAlgorithm` realisation of that
algorithm, runnable on the columnar engine with a delivery hook
installed.  Asking for a scenario run of an algorithm without a
program raises a clear :class:`~repro.errors.ScenarioError` naming the
capable ones; registering a new program is one
:func:`register_program` call.

Three programs ship:

``greedy_sequential``
    The sequential greedy baseline as a distributed sweep on the line
    graph: the launcher ranks the edge-agents by their (seeded)
    derived IDs, and agent ``r`` picks its color in round ``r + 1``,
    greedily avoiding every color announced so far.  Colored agents
    *retransmit* their color every round until global halting, which
    makes the program naturally fault-tolerant — a dropped or deferred
    announcement usually arrives before it matters, so degradation
    under adversarial schedules is gradual and measurable.
``linial_greedy``
    The two-stage [Lin87]-style pipeline on the line graph:
    :class:`~repro.primitives.node_algorithms.LinialColorReductionAlgorithm`
    reduces the edge IDs to an ``O(Δ̄²)`` class assignment, then
    :class:`ResilientGreedySweepAlgorithm` sweeps the classes with the
    ``2Δ-1`` palette, stage after stage under *one* adversary timeline.
    Under the identity model it takes stage-1 rounds plus one round
    per class plus one announcement round.  Linial's
    reduction assumes its invariants hold round by round, so harsh
    schedules can abort it — the executor records the abort as an
    outcome instead of crashing the sweep (brittleness under
    asynchrony is itself a measurement).
``randomized_luby``
    The randomized ``O(log n)`` trial baseline [ABI86/Lub86 style] as a
    genuinely distributed protocol: each round every uncolored agent
    draws a uniform proposal from its residual list (using a private
    per-agent RNG derived from the run seed, so the randomness is
    independent of message timing), announces it, and keeps it if no
    neighbor proposed or already owns the same color.  Colored agents
    rebroadcast their final color every round; an agent halts once all
    its neighbors are final — or, so crashed neighbors cannot wedge
    the run, after ``patience`` consecutive silent rounds.  *Liveness*
    is fault-tolerant — losses lower the per-round success rate but
    never wedge the run; *safety* degrades measurably — symmetric
    proposal loss can finalize a conflict, recorded (like the sibling
    programs' conflicts) in ``conflicts_on_survivors``, not forbidden.

Agents of all three programs are the *edges* of the underlying graph,
so "crash a node" at the model layer means "crash an edge-agent" here;
survivor-induced validation happens over the edges whose agents
survived.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import networkx as nx

from repro.errors import AlgorithmInvariantError, ScenarioError
from repro.graphs.edges import Edge
from repro.graphs.index import EdgeIndex
from repro.graphs.properties import assign_unique_ids, max_degree
from repro.model.algorithm import NodeAlgorithm, NodeContext
from repro.model.edge_network import line_graph_network
from repro.model.network import Network
from repro.model.scheduler import Scheduler
from repro.primitives.node_algorithms import LinialColorReductionAlgorithm
from repro.scenarios.models import ScenarioHook


@dataclass(frozen=True)
class ProgramOutcome:
    """What one scenario program run observed.

    Attributes
    ----------
    coloring:
        Edge -> color over the *surviving, colored* agents only.
    rounds:
        Simulated rounds to quiescence (all survivors halted), summed
        over the program's stages.
    messages:
        Messages actually delivered into the columns (the hook's
        counters hold the dropped/deferred/duplicated complement).
    crashed_edges:
        Edges whose agents the adversary crashed (no output).
    uncolored_survivors:
        Surviving agents that finished without a color (their decision
        inputs never arrived).
    extra:
        Program-specific JSON-safe observables (e.g. the intermediate
        class-palette size of the pipeline).
    """

    coloring: dict[Edge, int]
    rounds: int
    messages: int
    crashed_edges: list[Edge] = field(default_factory=list)
    uncolored_survivors: int = 0
    extra: dict[str, Any] = field(default_factory=dict)


#: Signature of a program runner: build the network(s), run the
#: scheduler(s) with ``delivery_hook=hook``, and report what happened.
ProgramRunner = Callable[..., ProgramOutcome]


@dataclass(frozen=True)
class ScenarioProgram:
    """One capability-table entry.

    ``params`` names the run-level keyword arguments
    (``RunSpec.params``) the runner accepts — the executor rejects
    anything else with a :class:`~repro.errors.ScenarioError` naming
    this set, so a typo'd parameter fails loudly instead of silently
    configuring nothing.
    """

    name: str
    description: str
    runner: ProgramRunner = field(repr=False)
    params: frozenset[str] = frozenset({"max_rounds"})


class ResilientGreedySweepAlgorithm(NodeAlgorithm):
    """A class sweep that retransmits, built to degrade gracefully.

    Runs on the line-graph network, one agent per edge: in round ``r``
    the agents of class ``r`` pick the smallest list color no neighbor
    has announced, and the sweep halts one announcement round after the
    last class (``class_count + 1`` rounds).  It is hardened for
    adversarial delivery: a colored agent rebroadcasts its color
    *every* round until halting (so a single dropped announcement is
    not fatal), and class assignments arrive from the launcher rather
    than over the wire.  Under the identity model the sweep is exactly
    sequential greedy in class order; under faults the only possible
    failure is a *conflict* (two neighbors picking the same color after
    a lost announcement), which the executor measures rather than
    forbids.
    """

    def __init__(
        self,
        classes: Mapping[Any, int],
        lists: Mapping[Any, frozenset[int]],
        class_count: int,
    ) -> None:
        self._classes = dict(classes)
        self._lists = dict(lists)
        self._class_count = class_count

    def initialize(self, ctx: NodeContext) -> None:
        ctx.state["class"] = self._classes[ctx.node]
        ctx.state["taken"] = set()
        ctx.state["round"] = 0
        ctx.state["color"] = None

    def compose_messages(self, ctx: NodeContext) -> Mapping[int, Any]:
        color = ctx.state["color"]
        if color is None:
            return {}
        return dict.fromkeys(range(ctx.degree), color)

    def receive_messages(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        taken = ctx.state["taken"]
        taken.update(inbox.values())
        if ctx.state["round"] == ctx.state["class"] and ctx.state["color"] is None:
            free = [c for c in self._lists[ctx.node] if c not in taken]
            if not free:
                # Cannot happen under the identity model (the palette
                # strictly exceeds the agent's degree); under faults a
                # neighborhood could in principle over-announce via
                # duplication, so fail loudly rather than miscolor.
                raise AlgorithmInvariantError(
                    f"agent {ctx.unique_id} ran out of list colors"
                )
            ctx.state["color"] = min(free)
        ctx.state["round"] += 1
        # One extra round after the last class lets the final picks be
        # announced before everyone halts.
        if ctx.state["round"] > self._class_count:
            ctx.halt()

    def output(self, ctx: NodeContext) -> int | None:
        return ctx.state["color"]


def _greedy_palette(graph: nx.Graph) -> frozenset[int]:
    delta = max_degree(graph)
    return frozenset(range(1, max(2, 2 * delta)))


def _agents(graph: nx.Graph, seed: int) -> tuple[list[Edge], Network]:
    """The run's edge-agents, in edge order, and their line-graph
    network (edge IDs derived from ``seed``-scattered node IDs), both
    from one :class:`~repro.graphs.index.EdgeIndex`."""
    index = EdgeIndex(graph)
    node_ids = assign_unique_ids(graph, seed=seed)
    return index.items, line_graph_network(graph, node_ids=node_ids, index=index)


def _collect(
    edges: list[Edge], outputs: Mapping[Any, int | None]
) -> tuple[dict[Edge, int], list[Edge], int]:
    """Split scheduler outputs into (coloring, crashed edges, uncolored)."""
    coloring = {
        edge: color for edge, color in outputs.items() if color is not None
    }
    uncolored = sum(1 for color in outputs.values() if color is None)
    crashed = [edge for edge in edges if edge not in outputs]
    return coloring, crashed, uncolored


def _run_greedy_sweep(
    graph: nx.Graph,
    *,
    seed: int,
    hook: ScenarioHook | None,
    max_rounds: int = 100_000,
) -> ProgramOutcome:
    """Distributed sequential greedy (ID-rank sweep) under ``hook``."""
    if graph.number_of_edges() == 0:
        return ProgramOutcome(coloring={}, rounds=0, messages=0)
    edges, network = _agents(graph, seed)
    # Rank the agents by their derived IDs: the run seed scatters the
    # node IDs, so it also permutes the sweep order — deterministic,
    # and locally known to every agent's launcher-side twin.
    order = sorted(edges, key=network.id_of)
    classes = {edge: rank for rank, edge in enumerate(order)}
    palette = _greedy_palette(graph)
    lists = {edge: palette for edge in edges}
    execution = Scheduler(
        network, max_rounds=max_rounds, delivery_hook=hook
    ).run(ResilientGreedySweepAlgorithm(classes, lists, len(edges)))
    coloring, crashed, uncolored = _collect(edges, execution.outputs)
    return ProgramOutcome(
        coloring=coloring,
        rounds=execution.rounds,
        messages=execution.messages_sent,
        crashed_edges=crashed,
        uncolored_survivors=uncolored,
    )


def _run_linial_pipeline(
    graph: nx.Graph,
    *,
    seed: int,
    hook: ScenarioHook | None,
    max_rounds: int = 100_000,
) -> ProgramOutcome:
    """The two-stage Linial+sweep pipeline under one adversary timeline."""
    if graph.number_of_edges() == 0:
        return ProgramOutcome(coloring={}, rounds=0, messages=0)
    edges, network = _agents(graph, seed)

    # Stage 1: Linial color reduction to an O(Δ̄²) class assignment.
    stage1 = Scheduler(
        network, max_rounds=max_rounds, delivery_hook=hook
    ).run(LinialColorReductionAlgorithm(id_space=network.max_id()))
    survivors_classes = dict(stage1.outputs)
    class_count = max(survivors_classes.values(), default=0) + 1

    # Stage 2: the class sweep.  The same hook carries the adversary
    # timeline over (its crash set is re-applied before round 1);
    # crashed agents still need *a* class for initialisation, but they
    # never act on it.
    classes = {edge: survivors_classes.get(edge, 0) for edge in edges}
    palette = _greedy_palette(graph)
    lists = {edge: palette for edge in edges}
    stage2 = Scheduler(
        network, max_rounds=max_rounds, delivery_hook=hook
    ).run(ResilientGreedySweepAlgorithm(classes, lists, class_count))

    coloring, crashed, uncolored = _collect(edges, stage2.outputs)
    return ProgramOutcome(
        coloring=coloring,
        rounds=stage1.rounds + stage2.rounds,
        messages=stage1.messages_sent + stage2.messages_sent,
        crashed_edges=crashed,
        uncolored_survivors=uncolored,
        extra={"class_palette": class_count},
    )


class RandomizedTrialAlgorithm(NodeAlgorithm):
    """Distributed Luby-style random trials, hardened for adversaries.

    Protocol per round, per agent:

    * **uncolored** — draw a uniform proposal from the residual list
      (the ``2Δ̄-1`` palette minus every color a neighbor has announced
      as final) and broadcast ``("prop", color)``.  On receive, keep
      the proposal iff no neighbor proposed the same color this round
      and no arriving final claims it.  Residual lists can never empty:
      the palette strictly exceeds the line-graph degree.
    * **colored** — broadcast ``("final", color)`` every round (so a
      single dropped announcement is not fatal), and halt once a final
      has arrived from every port, or after ``patience`` consecutive
      rounds without any proposal traffic (a crashed neighbor sends
      nothing forever; waiting for its final would wedge the run).

    Each agent draws from a private ``random.Random`` seeded from
    ``(run seed, unique id)`` through SHA-256, so randomness is
    deterministic per spec, identical across processes, and — unlike a
    single shared RNG — independent of message timing: the adversary
    reorders deliveries, never the dice.
    """

    def __init__(
        self,
        lists: Mapping[Any, frozenset[int]],
        seed: int,
        patience: int = 3,
    ) -> None:
        self._lists = dict(lists)
        self._seed = seed
        self._patience = patience

    def initialize(self, ctx: NodeContext) -> None:
        digest = hashlib.sha256(
            f"luby:{self._seed}:{ctx.unique_id}".encode()
        ).digest()
        ctx.state["rng"] = random.Random(int.from_bytes(digest[:8], "big"))
        ctx.state["color"] = None
        ctx.state["proposal"] = None
        ctx.state["neighbor_finals"] = set()
        ctx.state["final_ports"] = set()
        ctx.state["quiet"] = 0

    def compose_messages(self, ctx: NodeContext) -> Mapping[int, Any]:
        color = ctx.state["color"]
        if color is not None:
            return dict.fromkeys(range(ctx.degree), ("final", color))
        residual = sorted(
            self._lists[ctx.node] - ctx.state["neighbor_finals"]
        )
        if not residual:
            # Impossible under faithful delivery (palette > degree);
            # duplication echoing stale finals cannot add *distinct*
            # colors either, so this is a genuine invariant.
            raise AlgorithmInvariantError(
                f"agent {ctx.unique_id} ran out of residual colors"
            )
        proposal = ctx.state["rng"].choice(residual)
        ctx.state["proposal"] = proposal
        return dict.fromkeys(range(ctx.degree), ("prop", proposal))

    def receive_messages(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        finals = ctx.state["neighbor_finals"]
        proposals_heard = set()
        for port, (kind, color) in inbox.items():
            if kind == "final":
                finals.add(color)
                ctx.state["final_ports"].add(port)
            else:
                proposals_heard.add(color)
        if ctx.state["color"] is None:
            proposal = ctx.state["proposal"]
            if (
                proposal is not None
                and proposal not in proposals_heard
                and proposal not in finals
            ):
                ctx.state["color"] = proposal
            return
        if len(ctx.state["final_ports"]) == ctx.degree:
            ctx.halt()
            return
        if proposals_heard:
            ctx.state["quiet"] = 0
        else:
            ctx.state["quiet"] += 1
            if ctx.state["quiet"] >= self._patience:
                ctx.halt()

    def output(self, ctx: NodeContext) -> int | None:
        return ctx.state["color"]


def _run_randomized_luby(
    graph: nx.Graph,
    *,
    seed: int,
    hook: ScenarioHook | None,
    max_rounds: int = 100_000,
    patience: int = 3,
) -> ProgramOutcome:
    """Distributed randomized trials on the line graph, under ``hook``."""
    if graph.number_of_edges() == 0:
        return ProgramOutcome(coloring={}, rounds=0, messages=0)
    edges, network = _agents(graph, seed)
    palette = _greedy_palette(graph)
    lists = {edge: palette for edge in edges}
    execution = Scheduler(
        network, max_rounds=max_rounds, delivery_hook=hook
    ).run(RandomizedTrialAlgorithm(lists, seed, patience=patience))
    coloring, crashed, uncolored = _collect(edges, execution.outputs)
    return ProgramOutcome(
        coloring=coloring,
        rounds=execution.rounds,
        messages=execution.messages_sent,
        crashed_edges=crashed,
        uncolored_survivors=uncolored,
    )


_PROGRAMS: dict[str, ScenarioProgram] = {}


def register_program(program: ScenarioProgram) -> ScenarioProgram:
    """Add (or replace) a capability-table entry."""
    _PROGRAMS[program.name] = program
    return program


register_program(
    ScenarioProgram(
        name="greedy_sequential",
        description=(
            "distributed ID-rank greedy sweep on the line graph, with "
            "per-round retransmission (fault-tolerant by construction)"
        ),
        runner=_run_greedy_sweep,
    )
)
register_program(
    ScenarioProgram(
        name="linial_greedy",
        description=(
            "two-stage Linial reduction + class sweep pipeline; stage 1 "
            "may abort under harsh schedules (recorded, not raised)"
        ),
        runner=_run_linial_pipeline,
    )
)
register_program(
    ScenarioProgram(
        name="randomized_luby",
        description=(
            "distributed randomized trials on the line graph (per-agent "
            "seeded RNG, per-round retransmission of finals); losses "
            "never wedge the run, but may finalize measured conflicts"
        ),
        runner=_run_randomized_luby,
        params=frozenset({"max_rounds", "patience"}),
    )
)


def scenario_capable() -> list[str]:
    """Algorithm names that have a message-passing program, sorted."""
    return sorted(_PROGRAMS)


def get_program(name: str) -> ScenarioProgram:
    """Look up the program behind an algorithm name."""
    try:
        return _PROGRAMS[name]
    except KeyError:
        raise ScenarioError(
            f"algorithm {name!r} has no message-passing program, so it "
            "cannot run under an adversarial execution model; "
            f"scenario-capable algorithms: {scenario_capable()} "
            "(register one via repro.scenarios.programs.register_program)"
        ) from None
