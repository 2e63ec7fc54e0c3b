"""Executing scenario runs and validating their survivor claims.

:func:`execute_scenario` is what the batch executor
(:mod:`repro.api.runner`) calls when a spec carries a non-identity
scenario: it resolves the execution model and the algorithm's
message-passing program, runs the program under a freshly seeded hook,
and assembles a plain :class:`~repro.results.RunResult` — same type,
same caches, same process-pool path as every other run.  Scenario
provenance and the adversarial outcome fields live in
``result.details`` (all JSON-safe, so results round-trip exactly
through the on-disk cache):

``scenario``
    ``{"model", "seed", "params"}`` — normalised provenance.
``rounds_to_quiescence`` / ``messages_delivered``
    Rounds until every survivor halted; messages actually flushed.
``messages_dropped`` / ``messages_deferred`` / ``messages_duplicated``
    The hook's adversary counters (deferral in message-rounds).
``undelivered_at_finish``
    Backlog still in flight when the run (or a stage) ended.
``crashed_edges`` / ``survivors`` / ``uncolored_survivors``
    Crash outcome: edge tokens of crashed agents, survivor count, and
    survivors that finished undecided.
``conflicts_on_survivors`` / ``proper_on_survivors``
    Survivor-induced validity: adjacent same-colored pairs among the
    surviving colored edges.  Adversarial executions may legitimately
    produce conflicts — they are *measured*, and independently
    re-checked by :func:`validate_scenario_result`.
``aborted``
    ``None``, or the error that stopped a brittle program (Linial's
    invariants do not survive every schedule); recorded, not raised,
    so sweeps keep streaming.

A failed *claim* is still an error: validation recomputes the conflict
count from the graph and the returned coloring and raises
:class:`~repro.errors.ColoringValidationError` on any mismatch, exactly
like the properness check does for ordinary runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

import networkx as nx

from repro.coloring.verify import check_palette_bound, measure_defects
from repro.errors import (
    AlgorithmInvariantError,
    ColoringValidationError,
    ModelViolationError,
    RoundLimitExceededError,
    ScenarioError,
)
from repro.graphs.edges import Edge, canonical_edges, edge_to_token, token_to_edge
from repro.graphs.properties import max_degree
from repro.model.algorithm import NodeAlgorithm
from repro.model.network import Network
from repro.model.scheduler import ExecutionResult, Scheduler
from repro.results import RunResult
from repro.scenarios.programs import ProgramOutcome, get_program
from repro.scenarios.registry import get_model

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import RunSpec



def conflict_count(graph: nx.Graph, coloring: Mapping[Edge, int]) -> int:
    """Number of adjacent same-colored pairs among the colored edges.

    Defined through :func:`repro.coloring.verify.measure_defects` — the
    module designated as the single independent correctness checker —
    so the scenario layer cannot drift from the library's one notion of
    a conflict.  Each conflicting pair contributes a defect of 1 to
    both endpoints, hence the halving.
    """
    return sum(measure_defects(graph, coloring).values()) // 2


def run_under_model(
    network: Network,
    algorithm: NodeAlgorithm,
    *,
    model: str = "synchronous",
    seed: int = 0,
    params: Mapping[str, Any] | None = None,
    max_rounds: int = 10_000,
) -> ExecutionResult:
    """Engine-level entry: run one node algorithm under a named model.

    The low-level sibling of the spec path, for benchmarks and tests
    that already hold a :class:`~repro.model.network.Network`.  The
    identity model builds no hook at all, so its runs are the untouched
    fast path — this is what ``benchmarks/bench_scenarios.py`` pins the
    wrapper-overhead claim on.
    """
    entry = get_model(model)
    # build_hook is the single normalisation point — it validates and
    # fills defaults itself, so raw partial params are fine here.
    hook = entry.build_hook(seed, params or {})
    scheduler = Scheduler(network, max_rounds=max_rounds, delivery_hook=hook)
    return scheduler.run(algorithm)


def execute_scenario(spec: "RunSpec", graph: nx.Graph) -> RunResult:
    """Run one non-identity scenario spec and assemble its result."""
    scenario = spec.scenario
    assert scenario is not None and not scenario.is_identity()
    model = get_model(scenario.model)
    params = model.validate_params(dict(scenario.params))
    program = get_program(spec.algorithm)
    if spec.policy is not None:
        raise ScenarioError(
            f"scenario programs take no parameter policy (got "
            f"{spec.policy!r}); policies configure the paper solver only"
        )
    run_params = dict(spec.params)
    # Each program declares its own run-parameter set (``max_rounds``
    # everywhere, plus program-specific knobs like randomized_luby's
    # ``patience``); a typo must fail loudly, not configure nothing.
    unknown = sorted(set(run_params) - program.params)
    if unknown:
        raise ScenarioError(
            f"scenario program {spec.algorithm!r} does not take run "
            f"parameters {unknown}; have {sorted(program.params)}"
        )

    hook = model.build_hook(scenario.seed, params)
    assert hook is not None  # identity models never reach the executor
    aborted: str | None = None
    try:
        outcome = program.runner(
            graph, seed=spec.effective_seed(), hook=hook, **run_params
        )
    except (
        AlgorithmInvariantError,
        ModelViolationError,
        RoundLimitExceededError,
    ) as error:
        # Brittle programs can die under harsh schedules; that is a
        # *finding* of the scenario run, not a sweep-stopping crash.
        # The hook's counters survive the unwind (the engine reports
        # flushed messages through end_run even on failure), so the
        # adversary observables stay real — only the per-agent outcome
        # is lost.
        aborted = f"{type(error).__name__}: {error}"
        outcome = ProgramOutcome(
            coloring={}, rounds=hook.global_round, messages=hook.delivered
        )

    conflicts = conflict_count(graph, outcome.coloring)
    edges_total = graph.number_of_edges()
    details: dict[str, Any] = {
        "scenario": {
            "model": scenario.model,
            "seed": scenario.seed,
            "params": params,
        },
        "rounds_to_quiescence": outcome.rounds,
        "messages_delivered": outcome.messages,
        **hook.stats(),
        "crashed_edges": sorted(
            edge_to_token(edge) for edge in outcome.crashed_edges
        ),
        "survivors": edges_total - len(outcome.crashed_edges),
        "uncolored_survivors": outcome.uncolored_survivors,
        "conflicts_on_survivors": conflicts,
        "proper_on_survivors": conflicts == 0 and aborted is None,
        "aborted": aborted,
        **outcome.extra,
    }
    # Crash observables describe the *outcome*, not the adversary's
    # plan: on an aborted run no per-agent outcome exists, so the count
    # must agree with the (empty) crashed_edges list rather than with
    # the hook's schedule — which remains visible as provenance via
    # crash_schedule.  On completed runs the two are identical (the
    # hook's crash set is exactly the agents excluded from outputs).
    details["crashed_count"] = len(outcome.crashed_edges)
    if aborted is not None:
        # Survivor-population fields are *unknown*, not zero/full —
        # a null keeps an aborted row from reading healthier than a
        # degraded-but-finished one in the sweep tables.
        details["survivors"] = None
        details["uncolored_survivors"] = None
    return RunResult(
        name=spec.algorithm,
        coloring=outcome.coloring,
        rounds=outcome.rounds,
        palette_size=max(1, 2 * max_degree(graph) - 1),
        details=details,
    )


def is_scenario_result(result: RunResult) -> bool:
    """Did ``result`` come out of a scenario execution?"""
    return isinstance(result.details.get("scenario"), Mapping)


def validate_scenario_result(result: RunResult, graph: nx.Graph) -> None:
    """Independently re-check a scenario result's survivor claims.

    The scenario counterpart of the properness check: colored edges
    must exist in the graph and must not belong to crashed agents,
    colors must respect the palette bound, and the recorded
    survivor-induced validity (conflict count and properness flag) must
    match a from-scratch recomputation.  Any mismatch raises
    :class:`~repro.errors.ColoringValidationError`.
    """
    details = result.details
    crashed = {
        token_to_edge(token) for token in details.get("crashed_edges", [])
    }
    edge_lookup = canonical_edges(graph)
    for edge in result.coloring:
        if edge not in edge_lookup:
            raise ColoringValidationError(
                f"colored edge {edge!r} does not exist in the graph"
            )
        if edge in crashed:
            raise ColoringValidationError(
                f"edge {edge!r} is recorded as crashed yet carries a color"
            )
    if result.palette_size:
        check_palette_bound(result.coloring, result.palette_size)
    conflicts = conflict_count(graph, result.coloring)
    if conflicts != details.get("conflicts_on_survivors"):
        raise ColoringValidationError(
            f"recorded conflicts_on_survivors="
            f"{details.get('conflicts_on_survivors')!r} but recomputation "
            f"found {conflicts}"
        )
    proper = conflicts == 0 and details.get("aborted") is None
    if bool(details.get("proper_on_survivors")) != proper:
        raise ColoringValidationError(
            f"recorded proper_on_survivors="
            f"{details.get('proper_on_survivors')!r} disagrees with the "
            f"recomputed value {proper}"
        )

