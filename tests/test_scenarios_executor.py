"""Tests for spec-driven scenario execution through the batch executor.

Pins the PR's acceptance criteria: the identity scenario is bit-for-bit
a plain ``run()`` (same fingerprint-keyed result payload, shared cache
entries), and every adversarial model is deterministic under a fixed
seed — serial == parallel, including via the on-disk cache.
"""

import dataclasses

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.harness import run_scenario_sweep
from repro.api import (
    InstanceSpec,
    RunSpec,
    ScenarioSpec,
    clear_result_cache,
    result_cache_size,
    run,
    run_many,
    specs_for_scenarios,
)
from repro.baselines.linial_greedy import linial_greedy_coloring
from repro.coloring.verify import check_proper_edge_coloring
from repro.errors import ColoringValidationError, ScenarioError
from repro.graphs.generators import (
    complete_bipartite,
    cycle_graph,
    random_regular,
    star_graph,
)
from repro.graphs.properties import assign_unique_ids, max_degree
from repro.model.edge_network import line_graph_network
from repro.model.scheduler import Scheduler
from repro.primitives.node_algorithms import LinialColorReductionAlgorithm
from repro.results import RunResult
from repro.scenarios import (
    conflict_count,
    is_scenario_result,
    scenario_capable,
    scenario_registry,
    validate_scenario_result,
)
from repro.scenarios.programs import get_program
from repro.utils.logstar import log_star


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


def instance() -> InstanceSpec:
    return InstanceSpec(family="complete_bipartite", size=3, seed=2)


def adversarial_specs(algorithm="greedy_sequential") -> list[RunSpec]:
    inst = instance()
    return specs_for_scenarios(
        inst,
        [
            ScenarioSpec(model="bounded_async", seed=1, params={"quota": 3}),
            ScenarioSpec(model="crash_stop", seed=2, params={"f": 2}),
            ScenarioSpec(model="lossy_links", seed=3, params={"drop": 0.25}),
            ScenarioSpec(
                model="lossy_links", seed=4,
                params={"drop": 0.2, "duplicate": 0.4},
            ),
        ],
        algorithm=algorithm,
    )


class TestSynchronousBitForBit:
    def test_identity_scenario_equals_plain_run(self):
        plain_spec = RunSpec(instance=instance(), algorithm="greedy_sequential")
        sync_spec = plain_spec.with_scenario(ScenarioSpec())
        plain = run(plain_spec, cache=False)
        sync = run(sync_spec, cache=False)
        assert sync.result_fingerprint() == plain.result_fingerprint()
        assert sync.coloring == plain.coloring
        assert sync.rounds == plain.rounds
        assert not is_scenario_result(sync)

    def test_identity_scenario_hits_the_plain_cache_entry(self):
        plain_spec = RunSpec(instance=instance(), algorithm="greedy_sequential")
        first = run(plain_spec)
        assert result_cache_size() == 1
        hit = run(plain_spec.with_scenario(ScenarioSpec()))
        assert result_cache_size() == 1  # same fingerprint, same entry
        assert hit.result_fingerprint() == first.result_fingerprint()


class TestAdversarialDeterminism:
    def test_repeat_runs_are_byte_identical(self):
        # The batch covers every adversarial model of the registry.
        assert {spec.scenario.model for spec in adversarial_specs()} == {
            name
            for name, model in scenario_registry().items()
            if not model.identity
        }
        for spec in adversarial_specs():
            first = run(spec, cache=False)
            second = run(spec, cache=False)
            assert first.result_fingerprint() == second.result_fingerprint(), (
                spec.label()
            )

    def test_serial_equals_parallel(self):
        specs = adversarial_specs()
        serial = run_many(specs, parallel=1, cache=False)
        clear_result_cache()
        parallel = run_many(specs, parallel=2, cache=False)
        for spec, left, right in zip(specs, serial, parallel):
            assert left.result_fingerprint() == right.result_fingerprint(), (
                spec.label()
            )

    def test_disk_cache_round_trip_is_byte_identical(self, tmp_path):
        specs = adversarial_specs()
        first = run_many(specs, cache=False, cache_dir=tmp_path)
        clear_result_cache()
        # Second pass replays from disk (cache=False keeps process
        # memory out of the picture) and must validate + match exactly.
        second = run_many(specs, cache=False, cache_dir=tmp_path)
        for left, right in zip(first, second):
            assert left.result_fingerprint() == right.result_fingerprint()
            assert is_scenario_result(right)

    def test_different_adversary_seeds_differ_somewhere(self):
        inst = instance()
        outcomes = {
            run(
                RunSpec(
                    instance=inst,
                    algorithm="greedy_sequential",
                    scenario=ScenarioSpec(
                        model="lossy_links", seed=seed, params={"drop": 0.4}
                    ),
                ),
                cache=False,
            ).details["messages_dropped"]
            for seed in range(5)
        }
        assert len(outcomes) > 1


class TestScenarioOutcomes:
    def test_crash_stop_reports_survivor_induced_validity(self):
        spec = RunSpec(
            instance=instance(),
            algorithm="greedy_sequential",
            scenario=ScenarioSpec(model="crash_stop", seed=2, params={"f": 2}),
        )
        result = run(spec, cache=False)
        details = result.details
        assert details["crashed_count"] == len(details["crashed_edges"]) == 2
        assert details["survivors"] == 9 - 2
        # Crashed agents never carry a color.
        from repro.graphs.edges import token_to_edge

        for token in details["crashed_edges"]:
            assert token_to_edge(token) not in result.coloring
        # The survivor coloring is proper *as a partial coloring*.
        if details["proper_on_survivors"]:
            check_proper_edge_coloring(
                instance().build(), result.coloring, require_total=False
            )
        assert [round_ for round_, _ in details["crash_schedule"]]

    def test_retransmission_keeps_moderate_loss_proper(self):
        # The sweep rebroadcasts colors every round, so moderate loss
        # rarely creates conflicts; conflicts are *counted* either way
        # and the recorded count must match a recomputation.
        spec = RunSpec(
            instance=instance(),
            algorithm="greedy_sequential",
            scenario=ScenarioSpec(
                model="lossy_links", seed=3, params={"drop": 0.25}
            ),
        )
        result = run(spec, cache=False)
        graph = instance().build()
        assert result.details["conflicts_on_survivors"] == conflict_count(
            graph, result.coloring
        )

    def test_starved_sweep_measures_conflicts_instead_of_raising(self):
        spec = RunSpec(
            instance=instance(),
            algorithm="greedy_sequential",
            scenario=ScenarioSpec(
                model="bounded_async", seed=1, params={"quota": 2}
            ),
        )
        result = run(spec, cache=False)  # validate=True must not raise
        assert result.details["conflicts_on_survivors"] > 0
        assert result.details["proper_on_survivors"] is False

    def test_pipeline_program_records_class_palette(self):
        spec = RunSpec(
            instance=instance(),
            algorithm="linial_greedy",
            scenario=ScenarioSpec(model="lossy_links", seed=5),
        )
        result = run(spec, cache=False)
        if result.details["aborted"] is None:
            assert result.details["class_palette"] >= 1
        else:
            assert result.coloring == {}

    def test_rounds_to_quiescence_matches_rounds(self):
        for spec in adversarial_specs():
            result = run(spec, cache=False)
            assert result.details["rounds_to_quiescence"] == result.rounds


def run_linial_greedy(graph, seed):
    return get_program("linial_greedy").runner(graph, seed=seed, hook=None)


class TestLinialGreedyAccounting:
    """The ``linial_greedy`` program without an adversary is the [Lin87]
    accounting realised in messages: stage 1 (Linial, ``O(log* n)``
    rounds) plus one round per class plus the final announcement."""

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: cycle_graph(10),
            lambda: star_graph(7),
            lambda: complete_bipartite(4, 5),
            lambda: random_regular(5, 14, seed=6),
        ],
        ids=["cycle10", "star7", "k45", "rr5_14"],
    )
    def test_rounds_decompose_as_linial_plus_classes(self, make_graph, seed):
        graph = make_graph()
        outcome = run_linial_greedy(graph, seed)
        assert len(outcome.coloring) == graph.number_of_edges()
        check_proper_edge_coloring(graph, outcome.coloring)
        assert outcome.messages > 0

        # Stage 1 on its own, on the same line-graph network.
        network = line_graph_network(
            graph, node_ids=assign_unique_ids(graph, seed=seed)
        )
        stage1 = Scheduler(network).run(
            LinialColorReductionAlgorithm(id_space=network.max_id())
        )
        class_palette = outcome.extra["class_palette"]
        assert class_palette == max(stage1.outputs.values()) + 1
        assert outcome.rounds == stage1.rounds + class_palette + 1
        functional = linial_greedy_coloring(graph, seed=seed)
        assert abs(stage1.rounds - functional.details["linial_rounds"]) <= 1
        dbar = 2 * max_degree(graph) - 2
        assert class_palette <= 16 * (dbar + 2) ** 2

    def test_stage1_rounds_logstar(self):
        outcome = run_linial_greedy(cycle_graph(200), seed=4)
        # With Δ̄ = 2 the class palette is tiny.
        assert outcome.rounds <= log_star(200**4) + 30

    def test_edgeless_graph_takes_no_rounds(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(3))
        outcome = run_linial_greedy(graph, seed=0)
        assert outcome.coloring == {}
        assert outcome.rounds == 0

    @settings(deadline=None, max_examples=8)
    @given(st.integers(min_value=0, max_value=10**5))
    def test_random_instances_are_proper(self, seed):
        graph = random_regular(4, 12, seed=seed % 47)
        outcome = run_linial_greedy(graph, seed % 13)
        check_proper_edge_coloring(graph, outcome.coloring)


class TestAbortedRuns:
    def aborted_spec(self) -> RunSpec:
        # A 3-round budget cannot fit the m+1-round sweep: the program
        # dies with RoundLimitExceededError, which is recorded.
        return RunSpec(
            instance=instance(),
            algorithm="greedy_sequential",
            params={"max_rounds": 3},
            scenario=ScenarioSpec(
                model="crash_stop", seed=1, params={"f": 5, "horizon": 2}
            ),
        )

    def test_abort_is_recorded_not_raised(self):
        result = run(self.aborted_spec(), cache=False)
        assert "RoundLimitExceededError" in result.details["aborted"]
        assert result.coloring == {}
        assert result.details["proper_on_survivors"] is False

    def test_abort_crash_observables_are_internally_consistent(self):
        result = run(self.aborted_spec(), cache=False)
        details = result.details
        # No per-agent outcome exists, so the observed crash count must
        # agree with the (empty) crashed edge list — the adversary's
        # *plan* stays visible separately as crash_schedule provenance —
        # and the survivor-population fields are null, not zero/full.
        assert details["crashed_count"] == len(details["crashed_edges"]) == 0
        assert details["survivors"] is None
        assert details["uncolored_survivors"] is None
        assert len(details["crash_schedule"]) == 5

    def test_abort_keeps_partial_delivery_observables(self):
        # The engine reports flushed messages through the hook even
        # when the run dies, so an aborted row still shows its real
        # traffic instead of a too-healthy-looking zero.  (A 6-round
        # budget lets several announcement rounds happen before the
        # m+1-round sweep blows the limit.)
        spec = self.aborted_spec()
        spec = RunSpec(
            instance=spec.instance,
            algorithm=spec.algorithm,
            params={"max_rounds": 6},
            scenario=spec.scenario,
        )
        result = run(spec, cache=False)
        assert result.details["aborted"] is not None
        assert result.details["messages_delivered"] > 0
        assert result.details["rounds_to_quiescence"] > 0

    def test_aborted_runs_are_deterministic_and_validate(self):
        spec = self.aborted_spec()
        first = run(spec, cache=False)
        second = run(spec, cache=False)
        assert first.result_fingerprint() == second.result_fingerprint()
        validate_scenario_result(first, instance().build())


    @pytest.mark.parametrize("seed", range(1, 6))
    def test_stale_linial_color_under_asynchrony_aborts(self, seed):
        # Bounded asynchrony delivers an earlier step's color to a
        # Linial node; a color the step's polynomials cannot encode
        # used to escape execute_scenario as a ParameterError.
        graph_spec = InstanceSpec(family="random_regular", size=5, seed=seed)
        spec = RunSpec(
            instance=graph_spec,
            algorithm="linial_greedy",
            scenario=ScenarioSpec(model="bounded_async", seed=seed),
        )
        result = run(spec, cache=False)
        assert result.details["aborted"].startswith("AlgorithmInvariantError")
        assert "color space" in result.details["aborted"]
        assert result.details["proper_on_survivors"] is False
        validate_scenario_result(result, graph_spec.build())


class TestProgramExtensionPoint:
    def test_registered_program_runs_without_api_registry_entry(self):
        from repro.scenarios import ProgramOutcome, ScenarioProgram, register_program
        from repro.scenarios.programs import _PROGRAMS

        def runner(graph, *, seed, hook, max_rounds=10):
            return ProgramOutcome(coloring={}, rounds=1, messages=0)

        register_program(
            ScenarioProgram(
                name="noop_program", description="test-only", runner=runner
            )
        )
        try:
            spec = RunSpec(
                instance=instance(),
                algorithm="noop_program",
                scenario=ScenarioSpec(model="lossy_links", seed=1),
            )
            result = run(spec, cache=False)
            assert result.name == "noop_program"
            assert result.rounds == 1
        finally:
            _PROGRAMS.pop("noop_program", None)


class TestScenarioErrors:
    def test_non_capable_algorithm_raises_with_capable_list(self):
        spec = RunSpec(
            instance=instance(),
            algorithm="bko20",
            scenario=ScenarioSpec(model="lossy_links", seed=1),
        )
        with pytest.raises(ScenarioError) as excinfo:
            run(spec, cache=False)
        for name in scenario_capable():
            assert name in str(excinfo.value)

    def test_policy_with_scenario_raises(self):
        spec = RunSpec(
            instance=instance(),
            algorithm="greedy_sequential",
            policy="scaled",
            scenario=ScenarioSpec(model="lossy_links", seed=1),
        )
        with pytest.raises(ScenarioError, match="policy"):
            run(spec, cache=False)

    def test_unknown_run_params_raise(self):
        spec = RunSpec(
            instance=instance(),
            algorithm="greedy_sequential",
            params={"horizon": 3},
            scenario=ScenarioSpec(model="lossy_links", seed=1),
        )
        with pytest.raises(ScenarioError, match="run"):
            run(spec, cache=False)


class TestScenarioValidation:
    def run_crash(self) -> RunResult:
        spec = RunSpec(
            instance=instance(),
            algorithm="greedy_sequential",
            scenario=ScenarioSpec(model="crash_stop", seed=2, params={"f": 2}),
        )
        return run(spec, cache=False)

    def test_tampered_conflict_count_is_rejected(self):
        result = self.run_crash()
        graph = instance().build()
        validate_scenario_result(result, graph)  # honest result passes
        tampered = dataclasses.replace(
            result, details={**result.details, "conflicts_on_survivors": 99}
        )
        with pytest.raises(ColoringValidationError, match="conflicts"):
            validate_scenario_result(tampered, graph)

    def test_tampered_proper_flag_is_rejected(self):
        result = self.run_crash()
        graph = instance().build()
        tampered = dataclasses.replace(
            result,
            details={
                **result.details,
                "proper_on_survivors": not result.details["proper_on_survivors"],
            },
        )
        with pytest.raises(ColoringValidationError, match="proper"):
            validate_scenario_result(tampered, graph)

    def test_colored_crashed_edge_is_rejected(self):
        result = self.run_crash()
        graph = instance().build()
        from repro.graphs.edges import token_to_edge

        crashed_edge = token_to_edge(result.details["crashed_edges"][0])
        tampered = dataclasses.replace(
            result, coloring={**result.coloring, crashed_edge: 1}
        )
        with pytest.raises(ColoringValidationError):
            validate_scenario_result(tampered, graph)

    def test_details_survive_disk_round_trip_exactly(self, tmp_path):
        spec = adversarial_specs()[3]  # lossy with duplication
        stored = run(spec, cache=False, cache_dir=tmp_path)
        clear_result_cache()
        loaded = run(spec, cache=False, cache_dir=tmp_path)
        assert loaded.details == stored.details
        assert loaded.to_dict() == stored.to_dict()


class TestScenarioSweep:
    def test_sweep_rows_carry_outcome_columns(self):
        inst = instance()
        specs = [
            RunSpec(instance=inst, algorithm="greedy_sequential")
        ] + adversarial_specs()
        sweep = run_scenario_sweep(specs, parallel=1)
        assert len(sweep.rows) == len(specs)
        baseline = sweep.rows[0]
        assert baseline.values["model"] == "synchronous"
        assert baseline.values["dropped"] == 0
        for row in sweep.rows[1:]:
            assert row.values["model"] in (
                "bounded_async", "crash_stop", "lossy_links",
            )
            assert isinstance(row.values["conflicts"], int)
        names = sweep.series_names()
        for column in ("model", "rounds", "delivered", "proper", "fingerprint"):
            assert column in names

    def test_sweep_serial_equals_parallel(self):
        specs = adversarial_specs()
        serial = run_scenario_sweep(specs, parallel=1, cache=False)
        clear_result_cache()
        parallel = run_scenario_sweep(specs, parallel=2, cache=False)
        assert [row.values for row in serial.rows] == [
            row.values for row in parallel.rows
        ]
