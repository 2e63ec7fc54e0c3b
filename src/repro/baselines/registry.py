"""Common result type and registry for baseline algorithms.

Every baseline exposes the same signature::

    baseline(graph, *, seed=None, **kwargs) -> BaselineResult

so the benchmark harness can sweep them uniformly.  All results carry
the number of LOCAL rounds under the same accounting rules as the main
solver (sequential stages add, parallel stages take the max, primitives
report simulated rounds).

This per-kind registry is wrapped by the unified algorithm registry in
:mod:`repro.api.registry`, which exposes the baselines *and* the paper
solver behind one interface — new code should go through that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import networkx as nx

from repro.results import RunResult


@dataclass(frozen=True)
class BaselineResult(RunResult):
    """Outcome of a baseline run.

    A :class:`repro.results.RunResult` specialisation kept as a named
    class so existing ``from repro.baselines.registry import
    BaselineResult`` imports (and isinstance checks) continue to work.
    Baselines populate ``name``, ``coloring``, ``rounds``,
    ``palette_size`` and ``details``; see the base class for field
    semantics.
    """


#: Registry: name -> callable(graph, *, seed) -> BaselineResult
_REGISTRY: dict[str, Callable[..., BaselineResult]] = {}


def register(name: str):
    """Class of decorators adding a baseline to the registry."""

    def decorator(func: Callable[..., BaselineResult]):
        _REGISTRY[name] = func
        return func

    return decorator


def all_baselines() -> dict[str, Callable[..., BaselineResult]]:
    """Return the registered baselines (import side effects included)."""
    # Importing the modules populates the registry.
    from repro.baselines import (  # noqa: F401  (import for side effects)
        greedy_sequential,
        kuhn_soda20,
        kuhn_wattenhofer,
        panconesi_rizzi,
        linial_greedy,
        randomized_luby,
    )

    return dict(_REGISTRY)


def run_baseline(name: str, graph: nx.Graph, *, seed: int | None = None, **kwargs) -> BaselineResult:
    """Run a registered baseline by name."""
    registry = all_baselines()
    if name not in registry:
        raise KeyError(f"unknown baseline {name!r}; have {sorted(registry)}")
    return registry[name](graph, seed=seed, **kwargs)
