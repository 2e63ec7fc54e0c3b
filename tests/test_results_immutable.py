"""Results are immutable, so caches and duplicates can share them.

A returned result's coloring, stats, details (nested ones included)
and round ledger refuse mutation, and a later run of the same spec
still hits an unpoisoned cache.  Results stay picklable (process pools
ship them) and render to plain JSON.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from types import MappingProxyType

import pytest

from repro.api import InstanceSpec, RunSpec, ScenarioSpec, run
from repro.api.runner import clear_result_cache, result_cache_size
from repro.results import RunResult, canonical_json


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


def paper_spec() -> RunSpec:
    return RunSpec(InstanceSpec(family="random_regular", size=6, seed=2))


def scenario_spec() -> RunSpec:
    return RunSpec(
        InstanceSpec(family="complete_bipartite", size=3, seed=2),
        algorithm="greedy_sequential",
        scenario=ScenarioSpec(model="crash_stop", seed=2, params={"f": 2}),
    )


def test_mutating_a_result_raises_and_the_cache_stays_clean():
    spec = paper_spec()
    result = run(spec)
    pristine = result.result_fingerprint()
    edge = next(iter(result.coloring))
    with pytest.raises(TypeError):
        result.coloring[edge] = 99
    with pytest.raises(AttributeError):
        result.coloring.clear()
    with pytest.raises(TypeError):
        result.stats["injected"] = True
    with pytest.raises(AttributeError):
        result.stats["dbar_trajectory"].append(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.rounds = 0
    with pytest.raises(TypeError):
        result.ledger.charge("forged", 1)
    with pytest.raises(TypeError):
        result.ledger.bump("forged")
    with pytest.raises(TypeError):
        with result.ledger.sequential("forged"):
            pass
    with pytest.raises(AttributeError):
        result.ledger.root.children.append(None)

    again = run(spec)
    assert result_cache_size() == 1
    assert again is result
    assert again.result_fingerprint() == pristine
    assert again.ledger.total_rounds() == again.rounds


def test_nested_details_are_read_only():
    result = run(scenario_spec())
    scenario = result.details["scenario"]
    assert isinstance(scenario, MappingProxyType)
    with pytest.raises(TypeError):
        scenario["params"]["f"] = 0
    with pytest.raises(TypeError):
        result.details["conflicts_on_survivors"] = 0
    assert isinstance(result.details["crashed_edges"], tuple)
    assert run(scenario_spec()).result_fingerprint() == result.result_fingerprint()


def test_constructor_copies_its_inputs():
    coloring = {(0, 1): 1}
    details = {"nested": {"values": [1, 2]}}
    result = RunResult(name="x", coloring=coloring, details=details)
    coloring[(1, 2)] = 2
    details["nested"]["values"].append(3)
    assert dict(result.coloring) == {(0, 1): 1}
    assert result.details["nested"]["values"] == (1, 2)


@pytest.mark.parametrize("make_spec", [paper_spec, scenario_spec])
def test_results_pickle_copy_and_render_plain_json(make_spec):
    result = run(make_spec())
    for clone in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert type(clone) is type(result)
        assert clone.result_fingerprint() == result.result_fingerprint()
        assert isinstance(clone.coloring, MappingProxyType)
        with pytest.raises(TypeError):
            clone.stats["injected"] = True
    payload = result.to_dict()

    def plain(value):
        if isinstance(value, dict):
            return all(plain(item) for item in value.values())
        if isinstance(value, list):
            return all(plain(item) for item in value)
        return not isinstance(value, (MappingProxyType, tuple))

    assert plain(payload)
    assert "mappingproxy" not in canonical_json(payload)


def test_replace_derives_a_new_frozen_result():
    result = run(paper_spec())
    derived = dataclasses.replace(result, fingerprint="other")
    assert derived.fingerprint == "other" and result.fingerprint != "other"
    assert derived.coloring == result.coloring
    with pytest.raises(TypeError):
        derived.coloring[next(iter(derived.coloring))] = 0
