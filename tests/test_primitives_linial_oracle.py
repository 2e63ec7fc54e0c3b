"""The flat-index Linial round agrees with the 2-D oracle.

:func:`repro.primitives.linial._one_round` gathers polynomial values
with ``np.take`` and marks collisions by flat index; ``linial_oracle``
keeps the 2-D fancy-indexing round it replaced.  On random graphs and
random proper colorings (injective ids, colorings with repeated colors,
and ids beyond ``int64``), every round and the whole reduction must
give the same colors, palette size and round count, and the id-aligned
form of :func:`linial_reduce` must agree with its mapping form.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import linial_oracle as oracle
from repro.graphs.index import Csr
from repro.primitives.linial import _one_round, linial_reduce, linial_step_parameters


@st.composite
def colored_graphs(draw) -> tuple[Csr, list[int]]:
    """A random conflict graph with at least one conflict and a proper
    coloring aligned with its ids."""
    n = draw(st.integers(min_value=2, max_value=40))
    p = draw(st.floats(min_value=0.05, max_value=0.9))
    graph = nx.gnp_random_graph(n, p, seed=draw(st.integers(0, 2**16)))
    graph.add_edge(0, 1)
    rng = random.Random(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["ids", "repeated", "huge"]))
    if kind == "repeated":
        # Greedy with random choices: proper, with many repeats.
        span = max(d for _v, d in graph.degree()) + 1 + rng.randrange(4)
        colors: dict[int, int] = {}
        for node in rng.sample(sorted(graph), n):
            used = {colors.get(other) for other in graph[node]}
            colors[node] = rng.choice([c for c in range(span) if c not in used])
    else:
        base = 2**70 if kind == "huge" else 0
        ids = rng.sample(range(10 ** rng.randint(2, 12)), n)
        colors = {node: base + i for node, i in zip(graph, ids)}
    adjacency = {node: sorted(graph[node]) for node in sorted(graph)}
    csr = Csr.from_adjacency(adjacency)
    return csr, [colors[item] for item in csr.items]


@settings(max_examples=150, deadline=None)
@given(colored_graphs())
def test_every_round_matches_the_2d_round(case):
    csr, start = case
    palette_size = max(start) + 1
    colors = np.array(start, dtype=np.int64 if palette_size < 2**62 else object)
    degree = int(csr.degrees.max())
    while True:
        params = linial_step_parameters(palette_size, degree)
        if params.new_palette_size >= palette_size:
            break
        expected = oracle.one_round(csr, colors, params)
        got = _one_round(csr, colors, params, csr.slot_owners())
        assert got.tolist() == expected.tolist()
        colors, palette_size = got, params.new_palette_size


@settings(max_examples=150, deadline=None)
@given(colored_graphs())
def test_reduction_matches_the_oracle_in_both_forms(case):
    csr, start = case
    expected_colors, expected_palette, expected_rounds = oracle.reduce(csr, start)
    by_id = linial_reduce(csr, start)
    assert by_id.colors == expected_colors
    assert (by_id.palette_size, by_id.rounds) == (expected_palette, expected_rounds)
    by_item = linial_reduce(csr.adjacency(), dict(zip(csr.items, start)))
    assert by_item.colors == dict(zip(csr.items, expected_colors))
    assert by_item.step_parameters == by_id.step_parameters
