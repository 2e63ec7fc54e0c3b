"""repro.scenarios — adversarial execution models as first-class specs.

The paper's round-complexity claims live in the clean synchronous
CONGEST/LOCAL world; this subsystem asks what happens to the same
programs when the world misbehaves.  An execution model (asynchrony,
crash faults, message loss) is a registry entry with a declarative,
seeded :class:`ScenarioSpec` that composes into
:class:`repro.api.RunSpec` — scenario runs flow through ``run`` /
``run_many`` / ``run_many_iter``, the fingerprint-keyed caches, and
the process-pool executor like any other run::

    from repro.api import InstanceSpec, RunSpec, run
    from repro.scenarios import ScenarioSpec

    spec = RunSpec(
        instance=InstanceSpec(family="random_regular", size=6, seed=1),
        algorithm="greedy_sequential",
        scenario=ScenarioSpec(model="lossy_links", seed=7,
                              params={"drop": 0.2}),
    )
    result = run(spec)          # deterministic: seed fixes the adversary
    print(result.details["conflicts_on_survivors"])

The pieces:

* :class:`ScenarioSpec` (:mod:`repro.scenarios.spec`) — the
  declarative block; the identity model fingerprints away entirely, so
  ``synchronous`` runs are bit-for-bit (and cache-compatible with)
  plain runs;
* the model registry (:mod:`repro.scenarios.registry`) —
  ``synchronous`` / ``bounded_async`` / ``crash_stop`` /
  ``lossy_links``, each a parameter schema plus a seeded
  :class:`~repro.model.scheduler.DeliveryHook` factory
  (:mod:`repro.scenarios.models`);
* the capability table (:mod:`repro.scenarios.programs`) —
  message-passing programs adversaries can actually drive, keyed by
  algorithm name;
* the executor (:mod:`repro.scenarios.executor`) — runs a program
  under a hook and reports survivor-induced validity, drop/defer/crash
  counters, and rounds-to-quiescence; plus the engine-level
  :func:`run_under_model` for benchmarks and tests.

The CLI front ends are ``python -m repro scenario`` and
``python -m repro list --scenarios``; the sweep harness adds
:func:`repro.analysis.harness.run_scenario_sweep`.
"""

from repro.scenarios.executor import (
    conflict_count,
    execute_scenario,
    is_scenario_result,
    run_under_model,
    validate_scenario_result,
)
from repro.scenarios.models import (
    BoundedAsynchrony,
    CrashStop,
    ExecutionModel,
    LossyLinks,
    ScenarioHook,
    Synchronous,
)
from repro.scenarios.programs import (
    ProgramOutcome,
    ScenarioProgram,
    get_program,
    register_program,
    scenario_capable,
)
from repro.scenarios.registry import get_model, model_names, scenario_registry
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "BoundedAsynchrony",
    "CrashStop",
    "ExecutionModel",
    "LossyLinks",
    "ProgramOutcome",
    "ScenarioHook",
    "ScenarioProgram",
    "ScenarioSpec",
    "Synchronous",
    "conflict_count",
    "execute_scenario",
    "get_model",
    "get_program",
    "is_scenario_result",
    "model_names",
    "register_program",
    "run_under_model",
    "scenario_capable",
    "scenario_registry",
    "validate_scenario_result",
]
