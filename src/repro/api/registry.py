"""The unified algorithm registry: paper solver + every baseline.

One table, one calling convention, one result type.  Entries wrap

* the paper's recursive solver (``bko20``) — accepts any parameter
  policy, by name (:func:`repro.core.params.named_policies`) or as a
  :class:`~repro.core.params.ParameterPolicy` object;
* every baseline registered in :mod:`repro.baselines.registry`.

All runners return :class:`repro.results.RunResult` (the baselines'
``BaselineResult`` and the solver's ``SolveResult`` are subclasses),
so callers — the batch executor, the race sweep, the CLI — never
branch on algorithm kind again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import networkx as nx

from repro.baselines.registry import all_baselines
from repro.core.params import ParameterPolicy, resolve_policy
from repro.core.solver import solve_edge_coloring
from repro.errors import ParameterError
from repro.results import RunResult

#: Registry key and table label of the paper's algorithm.
PAPER_ALGORITHM = "bko20"
PAPER_LABEL = "BKO20 (this paper)"


@runtime_checkable
class Algorithm(Protocol):
    """What the rest of the system expects an algorithm entry to be."""

    name: str
    kind: str
    label: str
    description: str

    def run(
        self,
        graph: nx.Graph,
        *,
        seed: int | None = None,
        policy: "ParameterPolicy | str | None" = None,
        **params: object,
    ) -> RunResult: ...


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registry entry.

    Attributes
    ----------
    name:
        Registry key (also the :class:`repro.api.RunSpec` field).
    kind:
        ``"paper"`` or ``"baseline"``.
    label:
        Column label in race tables.
    description:
        One line on what the algorithm is / its round complexity.
    """

    name: str
    kind: str
    label: str
    description: str
    runner: Callable[..., RunResult] = field(repr=False)

    def run(
        self,
        graph: nx.Graph,
        *,
        seed: int | None = None,
        policy: "ParameterPolicy | str | None" = None,
        **params: object,
    ) -> RunResult:
        """Run on ``graph`` and return a unified result."""
        return self.runner(graph, seed=seed, policy=policy, **params)


def _paper_runner(
    graph: nx.Graph,
    *,
    seed: int | None = None,
    policy: "ParameterPolicy | str | None" = None,
    **params: object,
) -> RunResult:
    return solve_edge_coloring(
        graph, policy=resolve_policy(policy), seed=seed, **params
    )


def _wrap_baseline(name: str, func: Callable[..., RunResult]):
    def runner(
        graph: nx.Graph,
        *,
        seed: int | None = None,
        policy: "ParameterPolicy | str | None" = None,
        **params: object,
    ) -> RunResult:
        if policy is not None:
            raise ParameterError(
                f"baseline {name!r} takes no parameter policy "
                "(policies configure the paper solver only)"
            )
        return func(graph, seed=seed, **params)

    return runner


def _first_doc_line(func: Callable[..., object]) -> str:
    doc = (func.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


#: The paper solver's entry; it never changes.
_PAPER_ENTRY = AlgorithmInfo(
    name=PAPER_ALGORITHM,
    kind="paper",
    label=PAPER_LABEL,
    description=(
        "Balliu-Kuhn-Olivetti PODC'20: (deg(e)+1)-list edge coloring "
        "in quasi-polylog-in-Δ̄ rounds (+ O(log* n))"
    ),
    runner=_paper_runner,
)


def _baseline_entry(name: str, func: Callable[..., RunResult]) -> AlgorithmInfo:
    return AlgorithmInfo(
        name=name,
        kind="baseline",
        label=name,
        description=_first_doc_line(func),
        runner=_wrap_baseline(name, func),
    )


def algorithm_registry() -> dict[str, AlgorithmInfo]:
    """Return the unified registry (name -> :class:`AlgorithmInfo`).

    The paper solver always comes first; baselines follow sorted by
    name.  Rebuilt on each call (it is cheap) so late baseline
    registrations are picked up.
    """
    registry = {PAPER_ALGORITHM: _PAPER_ENTRY}
    for name, func in sorted(all_baselines().items()):
        registry[name] = _baseline_entry(name, func)
    return registry


def algorithm_names() -> list[str]:
    """Every registered algorithm name, paper solver first."""
    return [PAPER_ALGORITHM] + sorted(all_baselines())


def get_algorithm(name: str) -> AlgorithmInfo:
    """Look up one algorithm by name.

    Builds only that entry, from the baselines registered at the time
    of the call.
    """
    if name == PAPER_ALGORITHM:
        return _PAPER_ENTRY
    func = all_baselines().get(name)
    if func is None:
        raise KeyError(
            f"unknown algorithm {name!r}; have {algorithm_names()}"
        )
    return _baseline_entry(name, func)


def run_algorithm(
    name: str,
    graph: nx.Graph,
    *,
    seed: int | None = None,
    policy: "ParameterPolicy | str | None" = None,
    **params: object,
) -> RunResult:
    """Run a registered algorithm by name on an in-memory graph.

    The imperative sibling of the spec-driven :func:`repro.api.run` —
    for callers that already hold a graph object.
    """
    return get_algorithm(name).run(graph, seed=seed, policy=policy, **params)
