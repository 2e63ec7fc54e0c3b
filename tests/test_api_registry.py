"""Tests for the unified algorithm registry and the policy registry."""

import pytest

from repro.api import (
    PAPER_ALGORITHM,
    PAPER_LABEL,
    Algorithm,
    algorithm_names,
    algorithm_registry,
    get_algorithm,
    run_algorithm,
)
from repro.baselines.registry import all_baselines, run_baseline
from repro.core.params import (
    ParameterPolicy,
    machinery_policy,
    named_policies,
    resolve_policy,
)
from repro.core.solver import solve_edge_coloring
from repro.errors import ParameterError
from repro.graphs.generators import complete_bipartite


class TestRegistryCompleteness:
    def test_every_baseline_is_reachable(self):
        registry = algorithm_registry()
        for name in all_baselines():
            assert name in registry
            assert registry[name].kind == "baseline"

    def test_paper_solver_is_registered_first(self):
        names = algorithm_names()
        assert names[0] == PAPER_ALGORITHM
        assert get_algorithm(PAPER_ALGORITHM).label == PAPER_LABEL
        assert get_algorithm(PAPER_ALGORITHM).kind == "paper"

    def test_entries_satisfy_the_algorithm_protocol(self):
        for info in algorithm_registry().values():
            assert isinstance(info, Algorithm)
            assert info.description

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="bko20"):
            get_algorithm("nope")

    def test_lookup_builds_the_same_entry_as_the_table(self):
        registry = algorithm_registry()
        for name, info in registry.items():
            found = get_algorithm(name)
            assert (found.name, found.kind, found.label, found.description) == (
                info.name, info.kind, info.label, info.description
            )

    def test_baseline_registered_after_first_lookup_is_found(self, monkeypatch):
        from repro.baselines import registry as baseline_registry

        get_algorithm("greedy_sequential")
        # Register into a copy, so the late entry leaves with the test.
        monkeypatch.setattr(
            baseline_registry, "_REGISTRY", dict(baseline_registry._REGISTRY)
        )

        @baseline_registry.register("late_greedy")
        def late_greedy(graph, *, seed=None):
            """A baseline registered late."""
            return run_baseline("greedy_sequential", graph, seed=seed)

        info = get_algorithm("late_greedy")
        assert (info.kind, info.description) == ("baseline", "A baseline registered late.")
        assert "late_greedy" in algorithm_names()
        result = info.run(complete_bipartite(2, 2))
        assert result.coloring == run_baseline("greedy_sequential", complete_bipartite(2, 2)).coloring


class TestUnifiedExecution:
    def test_baseline_through_registry_matches_direct_call(self):
        graph = complete_bipartite(3, 3)
        via_registry = run_algorithm("kuhn_wattenhofer", graph, seed=2)
        direct = run_baseline("kuhn_wattenhofer", graph, seed=2)
        assert via_registry.rounds == direct.rounds
        assert via_registry.coloring == direct.coloring

    def test_paper_through_registry_matches_direct_call(self):
        graph = complete_bipartite(3, 3)
        via_registry = run_algorithm(PAPER_ALGORITHM, graph, seed=2)
        direct = solve_edge_coloring(graph, seed=2)
        assert via_registry.rounds == direct.rounds
        assert via_registry.coloring == direct.coloring

    def test_paper_accepts_policy_by_name_and_object(self):
        graph = complete_bipartite(3, 3)
        by_name = run_algorithm(PAPER_ALGORITHM, graph, seed=2, policy="machinery")
        by_object = run_algorithm(
            PAPER_ALGORITHM, graph, seed=2, policy=machinery_policy()
        )
        assert by_name.rounds == by_object.rounds
        assert by_name.policy_name == by_object.policy_name

    def test_baselines_reject_policies(self):
        graph = complete_bipartite(2, 2)
        with pytest.raises(ParameterError, match="no parameter policy"):
            run_algorithm("linial_greedy", graph, seed=1, policy="scaled")


class TestPolicyRegistry:
    def test_expected_names_present(self):
        assert set(named_policies()) == {"scaled", "paper", "kuhn20", "machinery"}

    def test_factories_produce_policies(self):
        for factory in named_policies().values():
            assert isinstance(factory(), ParameterPolicy)

    def test_resolve_by_name_object_and_none(self):
        assert resolve_policy(None) is None
        policy = machinery_policy()
        assert resolve_policy(policy) is policy
        assert resolve_policy("machinery").name == policy.name

    def test_resolve_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown policy"):
            resolve_policy("nope")
