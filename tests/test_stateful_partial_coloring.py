"""Stateful property testing of PartialEdgeColoring.

Hypothesis drives random interleavings of assigns, refused assigns,
residual queries and residual-instance extractions against an
independent set-based model; the residual invariant and the
blocked-color bookkeeping must hold after every step, whatever the
order of operations.  The coloring keeps its state as bitmasks over
the palette's sorted colors, one used-color mask per node, so the
palette is sometimes unordered and non-contiguous, and the masks are
checked against the model's sets.  ``blocked[i]`` is the union of the
two endpoint masks of edge ``i``: for an uncolored edge its colored
neighbors' colors, for a colored edge those and its own color.
"""

import random

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.coloring.edge_coloring import PartialEdgeColoring
from repro.coloring.lists import deg_plus_one_lists
from repro.coloring.palette import Palette
from repro.errors import ColoringValidationError
from repro.graphs.generators import random_regular
from repro.graphs.line_graph import line_graph_adjacency


class PartialColoringMachine(RuleBasedStateMachine):
    """Random walks over the mutable coloring API."""

    @initialize(
        graph_seed=st.integers(min_value=0, max_value=30),
        list_seed=st.integers(min_value=0, max_value=1000),
        palette_seed=st.none() | st.integers(min_value=0, max_value=1000),
    )
    def setup(self, graph_seed, list_seed, palette_seed):
        self.graph = random_regular(4, 10, seed=graph_seed)
        palette = None
        if palette_seed is not None:
            # 2Δ-1 spread-out colors in a shuffled order.
            colors = [3 * c + 11 for c in range(7)]
            random.Random(palette_seed).shuffle(colors)
            palette = Palette(tuple(colors))
        self.lists = deg_plus_one_lists(self.graph, palette=palette, seed=list_seed)
        self.coloring = PartialEdgeColoring(self.graph, self.lists)
        self.adjacency = line_graph_adjacency(self.graph)
        self.model: dict = {}  # independent record of assignments

    def _neighbor_colors(self, edge) -> set:
        return {self.model[n] for n in self.adjacency[edge] if n in self.model}

    # ------------------------------------------------------------------

    @precondition(lambda self: any(
        e not in self.model and self.coloring.residual_list(e)
        for e in self.adjacency
    ))
    @rule(choice=st.integers(min_value=0, max_value=10**6))
    def assign_some_edge(self, choice):
        candidates = [
            e
            for e in sorted(self.adjacency, key=repr)
            if e not in self.model and self.coloring.residual_list(e)
        ]
        edge = candidates[choice % len(candidates)]
        colors = sorted(self.coloring.residual_list(edge))
        color = colors[choice % len(colors)]
        self.coloring.assign(edge, color)
        self.model[edge] = color

    @rule(choice=st.integers(min_value=0, max_value=10**6))
    def refused_assign_changes_nothing(self, choice):
        """An off-list color, a neighbor's color or a second color for
        a colored edge is refused, and the state stays as it was."""
        edges = sorted(self.adjacency, key=repr)
        edge = edges[choice % len(edges)]
        palette = sorted(self.lists.palette)
        if edge in self.model:
            bad = [c for c in palette if c != self.model[edge]]
        else:
            allowed = self.lists.list_of(edge) - self._neighbor_colors(edge)
            bad = [c for c in palette if c not in allowed] + [max(palette) + 1]
        color = bad[choice % len(bad)]
        blocked = self.coloring.blocked
        before = [blocked[i] for i in range(len(self.adjacency))]
        with pytest.raises(ColoringValidationError):
            self.coloring.assign(edge, color)
        for i, mask in enumerate(before):
            assert blocked[i] == mask
        assert self.coloring.color_of(edge) == self.model.get(edge)

    @rule()
    def blocked_of_a_colored_edge_holds_its_own_color(self):
        """The node masks of a colored edge's endpoints include its
        color, so its ``blocked`` mask is its neighbors' colors plus
        its own."""
        coloring, position = self.coloring, self.coloring.index.position
        for edge, color in self.model.items():
            expected = self._neighbor_colors(edge) | {color}
            assert coloring.blocked[position[edge]] == coloring.mask_of(expected)

    @rule()
    def residual_instance_is_always_feasible(self):
        sub, lists = self.coloring.residual_instance()
        lists.validate_deg_plus_one(sub)  # the residual invariant

    # ------------------------------------------------------------------

    @invariant()
    def model_agrees(self):
        for edge in self.adjacency:
            assert self.coloring.color_of(edge) == self.model.get(edge)

    @invariant()
    def no_monochromatic_neighbors(self):
        for edge, color in self.model.items():
            for neighbor in self.adjacency[edge]:
                if neighbor in self.model:
                    assert self.model[neighbor] != color

    @invariant()
    def residual_lists_exclude_neighbor_colors(self):
        for edge in self.adjacency:
            if edge in self.model:
                continue
            residual = self.coloring.residual_list(edge)
            neighbor_colors = self._neighbor_colors(edge)
            assert not (set(residual) & neighbor_colors)
            assert residual == sorted(self.lists.list_of(edge) - neighbor_colors)

    @invariant()
    def masks_match_the_model(self):
        """Bit r is the r-th smallest palette color; each edge's list
        mask is its list and an uncolored edge's blocked mask is its
        colored neighbors' colors."""
        coloring, position = self.coloring, self.coloring.index.position
        for rank, color in enumerate(sorted(self.lists.palette)):
            assert coloring.mask_of({color}) == 1 << rank
        for edge in self.adjacency:
            i = position[edge]
            list_colors = self.lists.list_of(edge)
            assert coloring.list_masks[i] == coloring.mask_of(list_colors)
            assert coloring.colors_of(coloring.list_masks[i]) == sorted(list_colors)
            assert coloring.colored[i] == (edge in self.model)
            if edge not in self.model:
                neighbor_colors = self._neighbor_colors(edge)
                assert coloring.blocked[i] == coloring.mask_of(neighbor_colors)
                residual = list_colors - neighbor_colors
                if residual:
                    mask = coloring.list_masks[i] & ~coloring.blocked[i]
                    assert coloring.lowest_color(mask) == min(residual)

    @invariant()
    def residual_degree_counts_uncolored(self):
        for edge in self.adjacency:
            expected = sum(
                1 for n in self.adjacency[edge] if n not in self.model
            )
            assert self.coloring.residual_degree(edge) == expected


PartialColoringMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
TestPartialColoringStateful = PartialColoringMachine.TestCase
