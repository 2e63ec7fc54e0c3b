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
   to ``Δ̄+1`` classes, then a greedy class sweep.  Most Lemma 4.2
   classes have no conflict among their active edges; such a class
   skips Linial and is swept inline by
   :meth:`RecursiveSolver._solve_slack1`, with the same ledger entries
   and counters as the base case would write.

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
from repro.core.ledger import LedgerEntry, RoundLedger
from repro.core.params import ParameterPolicy, scaled_policy
from repro.core.slack_reduction import SlackLoopStats, select_active_edges
from repro.core.space_reduction import reduce_color_space
from repro.graphs.edges import Edge
from repro.graphs.index import Csr, EdgeIndex
from repro.graphs.properties import assign_unique_ids, max_degree
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


#: Masks of colors per edge id: an instance's (possibly narrowed) lists.
WorkMasks = Mapping[int, int] | Sequence[int]


def _swept_class_entry(class_value: int) -> LedgerEntry:
    """The ledger subtree of a Lemma 4.2 class colored inline.

    It is what :meth:`RecursiveSolver._solve_relaxed` writes for an
    instance without an edge: Δ̄ 0 is below every policy's
    ``base_degree_threshold``, so the base case runs, where Linial
    needs no round and one class, and the sweep takes one round.
    """
    return LedgerEntry(f"class {class_value}", "seq", 0, [
        LedgerEntry("activity check", "leaf", 1),
        LedgerEntry("base case [relaxed bottom]", "seq", 0, [
            LedgerEntry("class-count reduction", "leaf", 0),
            LedgerEntry("greedy class sweep", "leaf", 1),
        ]),
    ])


class RecursiveSolver:
    """One solver instance bound to one (sub-)problem.

    Auxiliary subspace-index assignments spawn child solvers that share
    the policy and the ledger but own their instance's graph and
    master coloring.

    Internally an instance is a list of edge ids of :attr:`index`, and
    a list is a color mask of :attr:`master` (see
    :class:`~repro.coloring.edge_coloring.PartialEdgeColoring`): an
    edge's effective list is ``work & ~blocked``, where ``blocked`` is
    the union of the used-color masks of its two endpoints, and it
    takes the lowest color of that mask.  Lemma 4.2 works on edge ids
    end to end: it reads the defective coloring's labels aligned with
    its instance's ids (never the edge-keyed ``colors``), groups the
    ids by label, and colors conflict-free classes inline.  Masks
    become frozensets only where an instance enters Lemma 4.3's
    :func:`reduce_color_space`.
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
        #: Per edge id, its initial color: the base case's Linial seed.
        self.seeds = [self.initial[edge] for edge in self.index.edges]

    # ------------------------------------------------------------------
    # Instance measurements
    # ------------------------------------------------------------------

    def _uncolored(self, ids: Sequence[int]) -> list[int]:
        colored = self.master.colored
        return [i for i in ids if not colored[i]]

    def _induced_degrees(self, ids: Sequence[int]) -> tuple[Csr, list[int]]:
        """The line graph induced by the edge ids ``ids`` and its degrees,
        aligned with ``ids``.

        When ``ids`` is every id in id order (a fresh solve's first
        Lemma 4.2 iteration), that graph is the index itself.
        """
        index = self.index
        if len(ids) == len(index) and list(ids) == list(range(len(ids))):
            induced: Csr = index
        else:
            induced = index.induced(ids)
        return induced, induced.degrees.tolist()

    def _effective_mask(self, i: int, work: WorkMasks) -> int:
        """Colors usable right now by edge ``i``: its narrowed list
        minus the colors its colored neighbors use."""
        return work[i] & ~self.master.blocked[i]

    # ------------------------------------------------------------------
    # Base case: Linial + (optional KW) + greedy class sweep
    # ------------------------------------------------------------------

    def _base_case(
        self,
        ids: Sequence[int],
        work: WorkMasks,
        reason: str,
        induced: tuple[Csr, list[int]] | None = None,
    ) -> None:
        """Color the edges ``ids`` by a class sweep; defer infeasible edges.

        ``induced`` is ``self._induced_degrees(ids)`` when the caller
        already holds it (its ``ids`` are then all uncolored).

        Cost: ``O(log* X)`` (Linial from the ambient X-coloring) plus
        ``O(Δ̄ log Δ̄)`` (optional KW compression) plus one round per
        class — the paper's ``O(log* X)`` base case for constant Δ̄.
        """
        current = self._uncolored(ids) if induced is None else ids
        if not current:
            return
        self.ledger.bump(f"base_case/{reason}")
        adjacency, degrees = induced or self._induced_degrees(current)
        dbar = max(degrees, default=0)

        seeds = self.seeds
        linial = linial_reduce(adjacency, [seeds[i] for i in current])
        classes = linial.colors
        class_count = linial.palette_size
        rounds = linial.rounds

        if (
            self.policy.use_kw_in_base
            and dbar >= 1
            and class_count > 2 * (dbar + 2)
        ):
            reduction = kuhn_wattenhofer_reduction(adjacency, classes)
            classes = reduction.colors
            class_count = reduction.palette_size
            rounds += reduction.rounds

        with self.ledger.sequential(f"base case [{reason}]"):
            self.ledger.charge("class-count reduction", rounds)
            master = self.master
            used, tails, heads = master.used, master.tails, master.heads
            assign, lowest = master.assign_id, master.lowest_color
            for position in sorted(range(len(current)), key=classes.__getitem__):
                i = current[position]
                effective = work[i] & ~(used[tails[i]] | used[heads[i]])
                if effective:
                    assign(i, lowest(effective))
                else:
                    self.ledger.bump("deferred_edges")
            self.ledger.charge("greedy class sweep", class_count)

    # ------------------------------------------------------------------
    # Lemma 4.2: slack-1 -> slack-β via defective colorings
    # ------------------------------------------------------------------

    def _solve_slack1(
        self,
        ids: Sequence[int],
        work: WorkMasks,
        palette: Palette,
        depth: int,
    ) -> None:
        """Solve a slack-1 instance (Lemma 4.2's driving loop).

        Each iteration takes the defective coloring's labels, aligned
        with ``current``, and visits the classes in ascending label
        order.  A class's effective masks are taken once, when its turn
        comes, and its activity check reads their sizes.  A class whose
        relaxed instance has no edge (no active edge with a same-class
        neighbour, or an induced instance with no slot) is colored
        inline, as :meth:`_solve_relaxed` would in its base case: every
        active edge takes the smallest color of its effective mask,
        which is non-empty because the edge is active and which no
        other assignment of the class can narrow, and the class's fixed
        ledger subtree (:func:`_swept_class_entry`) is attached in one
        step.  The counters of those classes are added
        once per iteration, flushed before any relaxed solve so that
        counters keep their order of first use.
        """
        current = self._uncolored(ids)
        if not current:
            return
        induced = self._induced_degrees(current)
        degrees = induced[1]
        dbar = max(degrees, default=0)
        iteration_cap = 2 * math.ceil(math.log2(dbar + 2)) + 4
        edges = self.index.edges
        master, ledger = self.master, self.ledger
        used, tails, heads = master.used, master.tails, master.heads
        assign, lowest = master.assign_id, master.lowest_color

        for _iteration in range(iteration_cap):
            if (
                dbar <= self.policy.base_degree_threshold
                or len(palette) <= self.policy.base_palette_threshold
                or depth >= self.policy.max_depth
            ):
                self._base_case(current, work, "slack1 bottom", induced)
                return

            beta = self.policy.beta(dbar, len(palette))
            self.slack_stats.dbar_trajectory.append(dbar)
            self.slack_stats.betas.append(beta)
            ledger.bump("lem42/iterations")
            ledger.record_max("max_depth_seen", depth)

            defective = defective_edge_coloring(
                self.graph,
                beta,
                self.initial,
                index=self.index,
                edges=[edges[i] for i in current],
            )
            ledger.charge(
                f"Lemma 4.2 defective coloring (β={beta})", defective.rounds
            )

            # Classes as runs of positions in ``current`` (also the ids
            # of the induced graph), sorted by label.
            labels = defective.labels
            order = np.argsort(labels, kind="stable")
            ranked = labels[order]
            cuts = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
            class_values = ranked[[0, *cuts]].tolist()
            bounds = [0, *cuts, len(current)]
            positions = order.tolist()
            # The class conflict graph, built once per iteration: each
            # class's relaxed instance is an induced subgraph of it.
            class_graph = induced[0].within_classes(labels)
            class_degrees = class_graph.degrees.tolist()

            # Per position, the effective mask and its size, written
            # when the position's class is visited.  Every position is
            # still uncolored then: a class colors only its own edges.
            effective = [0] * len(current)
            sizes = [0] * len(current)
            inactive_total = active_classes = swept = 0
            # Empty classes and all-inactive ones still cost one
            # lockstep round each; batched into one leaf to keep the
            # ledger readable.  Only the non-empty classes are visited.
            idle_classes = defective.color_count - len(class_values)
            with ledger.sequential(f"Lemma 4.2 classes (β={beta}, Δ̄={dbar})"):
                for class_value, begin, end in zip(class_values, bounds, bounds[1:]):
                    members = positions[begin:end]
                    for p in members:
                        i = current[p]
                        mask = work[i] & ~(used[tails[i]] | used[heads[i]])
                        effective[p] = mask
                        sizes[p] = mask.bit_count()
                    selection = select_active_edges(
                        members, sizes.__getitem__, degrees
                    )
                    inactive_total += len(selection.inactive)
                    active = selection.active
                    if not active:
                        idle_classes += 1
                        continue
                    active_classes += 1
                    # Most classes have no conflict inside: such an
                    # independent set needs no induce.
                    if any(map(class_degrees.__getitem__, active)):
                        instance = class_graph.induced(active)
                        if instance.neighbors.size:
                            if swept:
                                ledger.bump("base_case/relaxed bottom", swept)
                                swept = 0
                            with ledger.sequential(f"class {class_value}"):
                                ledger.charge("activity check", 1)
                                self._solve_relaxed(
                                    [current[p] for p in active],
                                    work,
                                    palette,
                                    beta,
                                    depth + 1,
                                    (instance, instance.degrees.tolist()),
                                )
                            continue
                    for p in active:
                        assign(current[p], lowest(effective[p]))
                    ledger.attach(_swept_class_entry(class_value))
                    swept += 1
                if swept:
                    ledger.bump("base_case/relaxed bottom", swept)
                if idle_classes:
                    ledger.charge(
                        f"{idle_classes} idle classes (lockstep rounds)",
                        idle_classes,
                    )
            self.slack_stats.relaxed_invocations += active_classes
            self.slack_stats.inactive_edges.append(inactive_total)

            remaining = self._uncolored(current)
            if not remaining:
                return
            induced = self._induced_degrees(remaining)
            new_degrees = induced[1]
            new_dbar = max(new_degrees, default=0)
            if new_dbar >= dbar and len(remaining) >= len(current):
                # No progress: the theory regime did not engage; finish
                # deterministically rather than looping.
                ledger.bump("lem42/no_progress_fallbacks")
                self._base_case(remaining, work, "slack1 no-progress", induced)
                return
            current, degrees, dbar = remaining, new_degrees, new_dbar

        self._base_case(self._uncolored(current), work, "slack1 iteration cap")

    # ------------------------------------------------------------------
    # Lemma 4.3 / 4.5: relaxed instances via color space reduction
    # ------------------------------------------------------------------

    def _solve_relaxed(
        self,
        ids: Sequence[int],
        work: WorkMasks,
        palette: Palette,
        slack_beta: int,
        depth: int,
        induced: tuple[Csr, list[int]] | None = None,
    ) -> None:
        """Solve a relaxed (slack > 1) instance by splitting the palette.

        ``induced`` is ``self._induced_degrees(ids)`` when the caller
        already holds it (its ``ids`` are then all uncolored).
        """
        current = self._uncolored(ids) if induced is None else ids
        if not current:
            return
        if induced is None:
            induced = self._induced_degrees(current)
        adjacency, degrees = induced
        dbar = max(degrees, default=0)
        if (
            dbar <= self.policy.base_degree_threshold
            or len(palette) <= self.policy.base_palette_threshold
            or depth >= self.policy.max_depth
        ):
            self._base_case(current, work, "relaxed bottom", induced)
            return

        p = self.policy.split(dbar, len(palette))
        if p < 2 or p > len(palette) // 2:
            self._base_case(current, work, "relaxed p infeasible", induced)
            return

        master = self.master
        edges = [self.index.edges[i] for i in current]
        effective = {
            edge: frozenset(master.colors_of(self._effective_mask(i, work)))
            for edge, i in zip(edges, current)
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
            edges,
            effective,
            palette,
            p,
            adjacency.adjacency(),
            dict(zip(edges, degrees)),
            self.initial,
            solve_index_instance,
        )
        self.ledger.bump("lem43/deferred", len(outcome.deferred))
        self.ledger.bump("lem43/eq2_violations", outcome.eq2_violations)

        with self.ledger.parallel(f"Lemma 4.3 subspaces (p={p})"):
            for index, subspace in enumerate(outcome.subspaces):
                sub_ids = [
                    i
                    for edge, i in zip(edges, current)
                    if outcome.assignment.get(edge) == index
                ]
                if not sub_ids:
                    continue
                subspace_mask = master.mask_of(subspace)
                narrowed = {i: work[i] & subspace_mask for i in sub_ids}
                with self.ledger.sequential(f"subspace {index}"):
                    self._solve_relaxed(
                        sub_ids, narrowed, subspace, slack_beta, depth + 1
                    )

        # Deferred edges (and any sub-instance leftovers) are finished
        # from the *wide* lists of this invocation — still a valid step
        # because narrowing only ever shrank the allowed sets.
        remaining = self._uncolored(current)
        if remaining:
            self._base_case(remaining, work, "relaxed leftovers")

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def solve_internal(self, depth: int | None = None) -> dict[Edge, int]:
        """Solve this solver's whole instance; returns edge -> color."""
        start_depth = self.depth if depth is None else depth
        all_ids = range(len(self.index))
        work = self.master.list_masks
        self._solve_slack1(all_ids, work, self.lists.palette, start_depth)

        # Final cleanup: anything deferred is colored from full residual
        # lists — always feasible by the residual invariant.
        repr_order = self.index.repr_order
        for _attempt in range(len(all_ids) + 1):
            remaining = self._uncolored(repr_order)
            if not remaining:
                break
            self._base_case(remaining, work, "final cleanup")
            if len(self._uncolored(remaining)) >= len(remaining):
                raise AlgorithmInvariantError(
                    "final cleanup failed to make progress; "
                    "the instance was not (deg+1)-feasible"
                )
        return self.master.as_dict()

    def _merge_child_stats(self, child: "RecursiveSolver") -> None:
        self.slack_stats.relaxed_invocations += child.slack_stats.relaxed_invocations


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
    edge_ids = index.pair_ids(assign_unique_ids(graph, seed=seed))
    result = linial_reduce(index, edge_ids)
    if ledger is not None:
        ledger.charge("initial Linial edge coloring (O(log* n))", result.rounds)
    return dict(zip(index.edges, result.colors)), result.palette_size, result.rounds


def solve_list_edge_coloring(
    graph: nx.Graph,
    lists: ListAssignment,
    *,
    policy: ParameterPolicy | None = None,
    seed: int | None = None,
    initial_coloring: Mapping[Edge, int] | None = None,
    initial_palette: int | None = None,
    index: EdgeIndex | None = None,
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
    index:
        The compiled line graph of ``graph``, if the caller holds it.

    Returns
    -------
    SolveResult
        Every assignment was checked against properness and the lists
        as it was made (:class:`PartialEdgeColoring`).  A coloring of
        custom lists is validated against the instance once more here.
        One of uniform lists (every list the whole palette) is not:
        there list membership is the palette bound, which
        :func:`repro.api.run` checks with properness on every result.
    """
    if index is None:
        index = EdgeIndex(graph)
    lists.validate_deg_plus_one(graph, index=index)
    if policy is None:
        policy = scaled_policy()
    ledger = RoundLedger()

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
    if not lists.is_uniform():
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
    index = EdgeIndex(graph)
    palette = Palette.of_size(max(1, 2 * max_degree(graph) - 1))
    lists = uniform_lists(graph, palette, index=index)
    return solve_list_edge_coloring(
        graph, lists, policy=policy, seed=seed, index=index
    )
