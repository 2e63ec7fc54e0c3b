"""Theorem 4.1: the full recursive list edge coloring algorithm.

Public entry points:

* :func:`solve_list_edge_coloring` — solve a ``(deg(e)+1)``-list edge
  coloring instance in quasi-polylog-in-Δ̄ rounds (plus ``O(log* n)``);
* :func:`solve_edge_coloring` — the classic ``(2Δ-1)``-edge coloring
  as the special case with uniform lists.

Execution pipeline (Section 4.3):

1. compute an initial ``O(Δ̄²)``-edge coloring with Linial on the line
   graph, in ``O(log* n)`` simulated rounds;
2. run :meth:`RecursiveSolver._solve_slack1` — Lemma 4.2: reduce the
   slack-1 instance to slack-β instances via defective colorings,
   iterating while ``Δ̄`` halves;
3. each slack-β instance goes through
   :meth:`RecursiveSolver._solve_relaxed` — Lemma 4.3/4.5: split the
   color space by ``p = √Δ̄`` and recurse per subspace in parallel;
   the subspace-index assignment itself is a small ``(deg+1)``-list
   instance on a virtual graph, solved by a recursive sub-solver (the
   ``T(2p-1, 1, 2p)`` term);
4. constant-degree / constant-palette instances hit the base case:
   Linial down to ``O(Δ̄²)`` classes, optionally Kuhn-Wattenhofer down
   to ``Δ̄+1`` classes, then a greedy class sweep.

Robustness: the asymptotic guarantees (list sizes vs degrees) are
checked at runtime; any edge that falls outside them is *deferred* and
finished by the final cleanup from its full residual list — which is
always feasible by the residual invariant.  Deferral counts are
reported in the result so experiments can see how often the theory
path vs. the fallback engaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import networkx as nx
import numpy as np

from repro.errors import AlgorithmInvariantError, InvalidInstanceError
from repro.coloring.edge_coloring import PartialEdgeColoring
from repro.coloring.lists import ListAssignment, uniform_lists
from repro.coloring.palette import Palette
from repro.coloring.verify import check_list_edge_coloring
from repro.core.ledger import RoundLedger
from repro.core.params import ParameterPolicy, scaled_policy
from repro.core.slack_reduction import SlackLoopStats, select_active_edges
from repro.core.space_reduction import reduce_color_space
from repro.graphs.edges import Edge
from repro.graphs.index import Csr, EdgeIndex
from repro.graphs.properties import assign_unique_ids, max_degree
from repro.model.edge_network import edge_identifier
from repro.primitives.color_reduction import kuhn_wattenhofer_reduction
from repro.primitives.defective import defective_edge_coloring
from repro.primitives.linial import linial_reduce
from repro.results import RunResult


@dataclass(frozen=True)
class SolveResult(RunResult):
    """Outcome of one paper-solver run, with full accounting.

    A :class:`repro.results.RunResult` specialisation kept as a named
    class so existing ``from repro.core.solver import SolveResult``
    imports (and isinstance checks) continue to work.  The solver
    always populates ``coloring``, ``rounds``, ``ledger``,
    ``initial_palette``, ``policy_name``, ``palette_size`` and
    ``stats``; see the base class for field semantics.
    """


class RecursiveSolver:
    """One solver instance bound to one (sub-)problem.

    Auxiliary subspace-index assignments spawn child solvers that share
    the policy and the ledger but own their instance's graph and
    master coloring.
    """

    def __init__(
        self,
        graph: nx.Graph,
        lists: ListAssignment,
        initial_coloring: Mapping[Edge, int],
        policy: ParameterPolicy,
        ledger: RoundLedger,
        *,
        depth: int = 0,
        index: EdgeIndex | None = None,
    ) -> None:
        self.graph = graph
        self.lists = lists
        self.index = EdgeIndex(graph) if index is None else index
        self.master = PartialEdgeColoring(graph, lists, index=self.index)
        self.initial = dict(initial_coloring)
        self.policy = policy
        self.ledger = ledger
        self.depth = depth
        self.slack_stats = SlackLoopStats()
        missing = [e for e in self.index.edges if e not in self.initial]
        if missing:
            raise InvalidInstanceError(
                f"edges without an initial color: {missing[:3]!r}"
            )

    # ------------------------------------------------------------------
    # Instance measurements
    # ------------------------------------------------------------------

    def _uncolored(self, edges: Sequence[Edge]) -> list[Edge]:
        return [e for e in edges if not self.master.is_colored(e)]

    def _induced_degrees(
        self, edges: Sequence[Edge]
    ) -> tuple[Csr, dict[Edge, int]]:
        """The line graph induced by ``edges`` (a subset of the index) and its degrees."""
        induced = self.index.induced(self.index.ids(edges))
        return induced, dict(zip(edges, induced.degrees.tolist()))

    def _effective_list(
        self, edge: Edge, work_lists: Mapping[Edge, frozenset[int]]
    ) -> frozenset[int]:
        """Colors usable right now: narrowed list minus neighbor-used."""
        return work_lists[edge] & self.master.residual_list(edge)

    # ------------------------------------------------------------------
    # Base case: Linial + (optional KW) + greedy class sweep
    # ------------------------------------------------------------------

    def _base_case(
        self,
        edges: Sequence[Edge],
        work_lists: Mapping[Edge, frozenset[int]],
        reason: str,
        induced: tuple[Csr, dict[Edge, int]] | None = None,
    ) -> None:
        """Color ``edges`` by a class sweep; defer infeasible edges.

        ``induced`` is ``self._induced_degrees(edges)`` when the caller
        already holds it (its ``edges`` are then all uncolored).

        Cost: ``O(log* X)`` (Linial from the ambient X-coloring) plus
        ``O(Δ̄ log Δ̄)`` (optional KW compression) plus one round per
        class — the paper's ``O(log* X)`` base case for constant Δ̄.
        """
        current = self._uncolored(edges) if induced is None else edges
        if not current:
            return
        self.ledger.bump(f"base_case/{reason}")
        adjacency, degrees = induced or self._induced_degrees(current)
        dbar = max(degrees.values(), default=0)

        seed = {edge: self.initial[edge] for edge in current}
        linial = linial_reduce(adjacency, seed)
        classes = linial.colors
        class_count = linial.palette_size
        rounds = linial.rounds

        if (
            self.policy.use_kw_in_base
            and dbar >= 1
            and class_count > 2 * (dbar + 2)
        ):
            reduction = kuhn_wattenhofer_reduction(adjacency.adjacency(), classes)
            classes = reduction.colors
            class_count = reduction.palette_size
            rounds += reduction.rounds

        with self.ledger.sequential(f"base case [{reason}]"):
            self.ledger.charge("class-count reduction", rounds)
            by_class: dict[int, list[Edge]] = {}
            for edge in current:
                by_class.setdefault(classes[edge], []).append(edge)
            for class_value in range(class_count):
                for edge in by_class.get(class_value, []):
                    effective = self._effective_list(edge, work_lists)
                    if effective:
                        self.master.assign(edge, min(effective))
                    else:
                        self.ledger.bump("deferred_edges")
            self.ledger.charge("greedy class sweep", class_count)

    # ------------------------------------------------------------------
    # Lemma 4.2: slack-1 -> slack-β via defective colorings
    # ------------------------------------------------------------------

    def _solve_slack1(
        self,
        edges: Sequence[Edge],
        work_lists: Mapping[Edge, frozenset[int]],
        palette: Palette,
        depth: int,
    ) -> None:
        """Solve a slack-1 instance (Lemma 4.2's driving loop)."""
        current = self._uncolored(edges)
        if not current:
            return
        induced = self._induced_degrees(current)
        degrees = induced[1]
        dbar = max(degrees.values(), default=0)
        iteration_cap = 2 * math.ceil(math.log2(dbar + 2)) + 4

        for _iteration in range(iteration_cap):
            if (
                dbar <= self.policy.base_degree_threshold
                or len(palette) <= self.policy.base_palette_threshold
                or depth >= self.policy.max_depth
            ):
                self._base_case(current, work_lists, "slack1 bottom", induced)
                return

            beta = self.policy.beta(dbar, len(palette))
            self.slack_stats.dbar_trajectory.append(dbar)
            self.slack_stats.betas.append(beta)
            self.ledger.bump("lem42/iterations")
            self.ledger.record_max("max_depth_seen", depth)

            seed = {edge: self.initial[edge] for edge in current}
            defective = defective_edge_coloring(
                self.graph, beta, seed, index=self.index, edges=current
            )
            self.ledger.charge(
                f"Lemma 4.2 defective coloring (β={beta})", defective.rounds
            )

            by_class: dict[int, list[Edge]] = {}
            for edge in current:
                by_class.setdefault(defective.colors[edge], []).append(edge)
            # The class conflict graph, built once per iteration: each
            # class's relaxed instance is an induced subgraph of it.
            class_graph = induced[0].within_classes(
                np.array([defective.colors[edge] for edge in current])
            )
            class_degrees = class_graph.degrees.tolist()
            position = {edge: index for index, edge in enumerate(current)}

            inactive_total = 0
            # Empty classes and all-inactive ones still cost one
            # lockstep round each; batched into one leaf to keep the
            # ledger readable.  Only the non-empty classes are visited.
            idle_classes = defective.color_count - len(by_class)
            with self.ledger.sequential(
                f"Lemma 4.2 classes (β={beta}, Δ̄={dbar})"
            ):
                for class_value in sorted(by_class):
                    members = self._uncolored(by_class[class_value])
                    selection = select_active_edges(
                        members,
                        lambda e: len(self._effective_list(e, work_lists)),
                        degrees,
                    )
                    inactive_total += len(selection.inactive)
                    if not selection.active:
                        idle_classes += 1
                        continue
                    self.slack_stats.relaxed_invocations += 1
                    active = list(selection.active)
                    instance = _class_instance(
                        class_graph,
                        class_degrees,
                        [position[edge] for edge in active],
                    )
                    with self.ledger.sequential(f"class {class_value}"):
                        self.ledger.charge("activity check", 1)
                        self._solve_relaxed(
                            active,
                            work_lists,
                            palette,
                            beta,
                            depth + 1,
                            (instance, dict(zip(active, instance.degrees.tolist()))),
                        )
                if idle_classes:
                    self.ledger.charge(
                        f"{idle_classes} idle classes (lockstep rounds)",
                        idle_classes,
                    )
            self.slack_stats.inactive_edges.append(inactive_total)

            remaining = self._uncolored(current)
            if not remaining:
                return
            induced = self._induced_degrees(remaining)
            new_degrees = induced[1]
            new_dbar = max(new_degrees.values(), default=0)
            if new_dbar >= dbar and len(remaining) >= len(current):
                # No progress: the theory regime did not engage; finish
                # deterministically rather than looping.
                self.ledger.bump("lem42/no_progress_fallbacks")
                self._base_case(
                    remaining, work_lists, "slack1 no-progress", induced
                )
                return
            current, degrees, dbar = remaining, new_degrees, new_dbar

        self._base_case(
            self._uncolored(current), work_lists, "slack1 iteration cap"
        )

    # ------------------------------------------------------------------
    # Lemma 4.3 / 4.5: relaxed instances via color space reduction
    # ------------------------------------------------------------------

    def _solve_relaxed(
        self,
        edges: Sequence[Edge],
        work_lists: Mapping[Edge, frozenset[int]],
        palette: Palette,
        slack_beta: int,
        depth: int,
        induced: tuple[Csr, dict[Edge, int]] | None = None,
    ) -> None:
        """Solve a relaxed (slack > 1) instance by splitting the palette.

        ``induced`` is ``self._induced_degrees(edges)`` when the caller
        already holds it (its ``edges`` are then all uncolored).
        """
        current = self._uncolored(edges) if induced is None else edges
        if not current:
            return
        if induced is None:
            induced = self._induced_degrees(current)
        adjacency, degrees = induced
        dbar = max(degrees.values(), default=0)
        if (
            dbar <= self.policy.base_degree_threshold
            or len(palette) <= self.policy.base_palette_threshold
            or depth >= self.policy.max_depth
        ):
            self._base_case(current, work_lists, "relaxed bottom", induced)
            return

        p = self.policy.split(dbar, len(palette))
        if p < 2 or p > len(palette) // 2:
            self._base_case(current, work_lists, "relaxed p infeasible", induced)
            return

        effective = {
            edge: self._effective_list(edge, work_lists) for edge in current
        }
        self.ledger.bump("lem43/reductions")
        self.ledger.record_max("max_depth_seen", depth)

        def solve_index_instance(
            instance_graph: nx.Graph,
            instance_lists: ListAssignment,
            instance_initial: Mapping[Edge, int],
            tag: str,
        ) -> dict[Edge, int]:
            with self.ledger.sequential(f"Lemma 4.3 {tag}"):
                self.ledger.charge("menu computation", 1)
                child = RecursiveSolver(
                    instance_graph,
                    instance_lists,
                    instance_initial,
                    self.policy,
                    self.ledger,
                    depth=depth + 1,
                )
                chosen = child.solve_internal(depth=depth + 1)
                if len(chosen) != instance_graph.number_of_edges():
                    raise AlgorithmInvariantError(
                        f"index instance '{tag}' left edges unassigned"
                    )
                self._merge_child_stats(child)
                return chosen

        outcome = reduce_color_space(
            current,
            effective,
            palette,
            p,
            adjacency.adjacency(),
            degrees,
            self.initial,
            solve_index_instance,
        )
        self.ledger.bump("lem43/deferred", len(outcome.deferred))
        self.ledger.bump("lem43/eq2_violations", outcome.eq2_violations)

        with self.ledger.parallel(f"Lemma 4.3 subspaces (p={p})"):
            for index, subspace in enumerate(outcome.subspaces):
                sub_edges = [
                    edge
                    for edge in current
                    if outcome.assignment.get(edge) == index
                ]
                if not sub_edges:
                    continue
                narrowed = {
                    edge: work_lists[edge] & subspace.as_set
                    for edge in sub_edges
                }
                with self.ledger.sequential(f"subspace {index}"):
                    self._solve_relaxed(
                        sub_edges, narrowed, subspace, slack_beta, depth + 1
                    )

        # Deferred edges (and any sub-instance leftovers) are finished
        # from the *wide* lists of this invocation — still a valid step
        # because narrowing only ever shrank the allowed sets.
        remaining = self._uncolored(current)
        if remaining:
            self._base_case(remaining, work_lists, "relaxed leftovers")

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def solve_internal(self, depth: int | None = None) -> dict[Edge, int]:
        """Solve this solver's whole instance; returns edge -> color."""
        start_depth = self.depth if depth is None else depth
        all_edges = list(self.index.edges)
        work_lists = {edge: self.lists.list_of(edge) for edge in all_edges}
        self._solve_slack1(all_edges, work_lists, self.lists.palette, start_depth)

        # Final cleanup: anything deferred is colored from full residual
        # lists — always feasible by the residual invariant.
        for _attempt in range(len(all_edges) + 1):
            remaining = self.master.uncolored_edges()
            if not remaining:
                break
            before = len(remaining)
            self._base_case(remaining, work_lists, "final cleanup")
            if len(self.master.uncolored_edges()) >= before:
                raise AlgorithmInvariantError(
                    "final cleanup failed to make progress; "
                    "the instance was not (deg+1)-feasible"
                )
        return self.master.as_dict()

    def _merge_child_stats(self, child: "RecursiveSolver") -> None:
        self.slack_stats.relaxed_invocations += child.slack_stats.relaxed_invocations


def _class_instance(class_graph: Csr, class_degrees: list[int], ids: list[int]) -> Csr:
    """The subgraph of a Lemma 4.2 class graph induced by ``ids``.

    Most classes have no conflict inside: such an independent set
    needs no induce.
    """
    if any(class_degrees[i] for i in ids):
        return class_graph.induced(ids)
    items = class_graph.items
    return Csr(
        [items[i] for i in ids],
        np.zeros(len(ids) + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def compute_initial_edge_coloring(
    graph: nx.Graph,
    *,
    seed: int | None = None,
    ledger: RoundLedger | None = None,
    index: EdgeIndex | None = None,
) -> tuple[dict[Edge, int], int, int]:
    """Compute the initial ``O(Δ̄²)``-edge coloring (Section 4.3, step 1).

    Runs the Linial reduction on the line graph (``index``, compiled
    from ``graph`` unless the caller already holds it), seeded by edge
    IDs derived from node IDs.  Returns ``(coloring, palette_size,
    rounds)`` and charges the rounds to ``ledger`` if given.  Round
    count is ``O(log* n)``.
    """
    if index is None:
        index = EdgeIndex(graph)
    ids = assign_unique_ids(graph, seed=seed)
    max_id = max(ids.values(), default=0)
    edge_ids = {
        edge: edge_identifier(edge, ids, max_id) for edge in index.edges
    }
    result = linial_reduce(index, edge_ids)
    if ledger is not None:
        ledger.charge("initial Linial edge coloring (O(log* n))", result.rounds)
    return result.colors, result.palette_size, result.rounds


def solve_list_edge_coloring(
    graph: nx.Graph,
    lists: ListAssignment,
    *,
    policy: ParameterPolicy | None = None,
    seed: int | None = None,
    initial_coloring: Mapping[Edge, int] | None = None,
    initial_palette: int | None = None,
) -> SolveResult:
    """Solve a ``(deg(e)+1)``-list edge coloring instance (Theorem 4.1).

    Parameters
    ----------
    graph:
        A simple graph.
    lists:
        Lists with ``|L_e| >= deg(e) + 1`` for every edge (validated).
    policy:
        Parameter policy; defaults to :func:`scaled_policy`.
    seed:
        Seed for the adversarial ID assignment (``None`` = sorted IDs).
    initial_coloring / initial_palette:
        Optionally supply a precomputed proper edge coloring to skip
        the Linial stage (used by benchmarks that sweep policies on a
        fixed instance).

    Returns
    -------
    SolveResult
        With a coloring already validated against the instance.
    """
    lists.validate_deg_plus_one(graph)
    if policy is None:
        policy = scaled_policy()
    ledger = RoundLedger()
    index = EdgeIndex(graph)

    if initial_coloring is None:
        initial_coloring, initial_palette, _rounds = compute_initial_edge_coloring(
            graph, seed=seed, ledger=ledger, index=index
        )
    elif initial_palette is None:
        initial_palette = (
            max(initial_coloring.values()) + 1 if initial_coloring else 0
        )

    solver = RecursiveSolver(
        graph, lists, initial_coloring, policy, ledger, depth=0, index=index
    )
    coloring = solver.solve_internal()
    check_list_edge_coloring(graph, lists, coloring)

    stats: dict[str, object] = dict(ledger.counters())
    stats["dbar_trajectory"] = list(solver.slack_stats.dbar_trajectory)
    stats["betas"] = list(solver.slack_stats.betas)
    stats["relaxed_invocations"] = solver.slack_stats.relaxed_invocations
    return SolveResult(
        name="bko20",
        coloring=coloring,
        rounds=ledger.total_rounds(),
        ledger=ledger,
        initial_palette=initial_palette or 0,
        palette_size=len(lists.palette),
        policy_name=policy.name,
        stats=stats,
    )


def solve_edge_coloring(
    graph: nx.Graph,
    *,
    policy: ParameterPolicy | None = None,
    seed: int | None = None,
) -> SolveResult:
    """Solve the classic ``(2Δ - 1)``-edge coloring problem.

    The corollary of Theorem 4.1: run the list solver with every edge
    holding the full ``{1, ..., 2Δ-1}`` palette.
    """
    delta = max_degree(graph)
    palette = Palette.of_size(max(1, 2 * delta - 1))
    lists = uniform_lists(graph, palette)
    return solve_list_edge_coloring(graph, lists, policy=policy, seed=seed)
