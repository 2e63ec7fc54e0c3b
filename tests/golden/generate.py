"""Regenerate the golden result corpus.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/generate.py

Runs every case of :func:`cases` through :func:`repro.api.run` without
caches and writes ``corpus.json``: one entry per case holding the spec
and the SHA-256 result fingerprint, which covers the coloring, round
counts, ledger counters and scenario observables.
``tests/test_golden.py`` replays the corpus and asserts byte-identity,
so a refactor that changes any result fails tier-1.  Regenerate only
when a behaviour change is intended, and say why in the commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.api import InstanceSpec, RunSpec, run
from repro.api.registry import PAPER_ALGORITHM, algorithm_names
from repro.scenarios import ScenarioSpec
from repro.scenarios.programs import scenario_capable

CORPUS = Path(__file__).with_name("corpus.json")

#: (family, size, seed): random_regular has int labels whose repr order
#: differs from numeric order, grid has tuple labels.
INSTANCES = (
    ("random_regular", 4, 3),
    ("random_regular", 7, 5),
    ("random_regular", 10, 2),
    ("complete_bipartite", 5, 1),
    ("grid", 4, 2),
)

#: The remaining named policies, on small instances.  ``paper``'s β
#: exceeds Δ̄ here, so Lemma 4.2 runs with almost every defective class
#: empty; ``kuhn20`` on K_{25,25} recurses to depth 3.
POLICY_INSTANCES = {
    "paper": (("random_regular", 7, 5), ("complete_bipartite", 5, 1)),
    "kuhn20": (("random_regular", 10, 2), ("complete_bipartite", 25, 1)),
}

SCENARIO_MODELS = ("lossy_links", "crash_stop", "bounded_async")

#: Scenario cells run on smaller instances; the greedy sweep under
#: bounded asynchrony is slow at higher degree.
SCENARIO_INSTANCES = (
    ("random_regular", 4, 3),
    ("complete_bipartite", 4, 1),
    ("grid", 3, 2),
)


def cases() -> dict[str, RunSpec]:
    """Every golden case, keyed by a stable readable id."""
    specs: dict[str, RunSpec] = {}
    for family, size, seed in INSTANCES:
        instance = InstanceSpec(family=family, size=size, seed=seed)
        for algorithm in algorithm_names():
            specs[f"{algorithm}/{family}[{size}]"] = RunSpec(
                instance, algorithm=algorithm
            )
    machinery = InstanceSpec(family="complete_bipartite", size=25, seed=1)
    specs["bko20-machinery/complete_bipartite[25]"] = RunSpec(
        machinery, algorithm=PAPER_ALGORITHM, policy="machinery"
    )
    specs["bko20/complete_bipartite[25]"] = RunSpec(
        machinery, algorithm=PAPER_ALGORITHM
    )
    for policy, instances in POLICY_INSTANCES.items():
        for family, size, seed in instances:
            specs[f"bko20-{policy}/{family}[{size}]"] = RunSpec(
                InstanceSpec(family=family, size=size, seed=seed),
                algorithm=PAPER_ALGORITHM,
                policy=policy,
            )
    for family, size, seed in SCENARIO_INSTANCES:
        instance = InstanceSpec(family=family, size=size, seed=seed)
        for program in scenario_capable():
            for model in SCENARIO_MODELS:
                specs[f"{program}@{model}/{family}[{size}]"] = RunSpec(
                    instance,
                    algorithm=program,
                    scenario=ScenarioSpec(model=model, seed=seed + 10),
                )
    return specs


def outcome(spec: RunSpec) -> str:
    """The result fingerprint of ``spec``, or the error it raises."""
    try:
        return run(spec, cache=False).result_fingerprint()
    except Exception as error:  # noqa: BLE001 - the corpus records it
        return f"error:{type(error).__name__}"


def main() -> int:
    corpus = {
        case: {"spec": spec.to_dict(), "result": outcome(spec)}
        for case, spec in cases().items()
    }
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
