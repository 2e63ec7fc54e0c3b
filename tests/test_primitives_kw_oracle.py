"""The id-based Kuhn–Wattenhofer reduction agrees with the dict oracle.

:func:`repro.primitives.color_reduction.kuhn_wattenhofer_reduction`
runs on a compiled conflict graph and buckets each phase's movers once;
``kw_oracle`` keeps the dict version it replaced.  On random graphs and
random proper colorings, both must give the same colors (and, for the
mapping form, the same key order), palette size and rounds, and the
id-aligned form must agree with the mapping form.  Improper inputs must
raise in both.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kw_oracle as oracle
from repro.errors import InvalidInstanceError
from repro.graphs.index import Csr
from repro.primitives.color_reduction import kuhn_wattenhofer_reduction


@st.composite
def colored_graphs(draw) -> tuple[dict, dict]:
    """A random graph's adjacency and a proper coloring of it."""
    n = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.floats(min_value=0.0, max_value=0.9))
    graph = nx.gnp_random_graph(n, p, seed=draw(st.integers(0, 2**16)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    # Greedy with random choices over a palette of up to 40 times the
    # degree: proper, with repeats, and several KW phases.
    span = (max(d for _v, d in graph.degree()) + 1) * rng.randint(1, 40)
    colors: dict[int, int] = {}
    for node in rng.sample(sorted(graph), n):
        used = {colors.get(other) for other in graph[node]}
        colors[node] = rng.choice([c for c in range(span) if c not in used])
    order = rng.sample(sorted(graph), n)  # mapping order is kept by both
    adjacency = {node: sorted(graph[node], key=repr) for node in order}
    return adjacency, colors


@settings(max_examples=200, deadline=None)
@given(colored_graphs())
def test_matches_the_dict_oracle(case):
    adjacency, colors = case
    expected = oracle.kuhn_wattenhofer_reduction(adjacency, colors)
    got = kuhn_wattenhofer_reduction(adjacency, colors)
    assert list(got.colors.items()) == list(expected.colors.items())
    assert (got.palette_size, got.rounds) == (expected.palette_size, expected.rounds)
    csr = Csr.from_adjacency(adjacency)
    by_id = kuhn_wattenhofer_reduction(csr, [colors[item] for item in csr.items])
    assert by_id.colors == [expected.colors[item] for item in csr.items]
    assert (by_id.palette_size, by_id.rounds) == (expected.palette_size, expected.rounds)


@settings(max_examples=50, deadline=None)
@given(colored_graphs(), st.integers(0, 2**16))
def test_improper_input_raises_in_both(case, seed):
    adjacency, colors = case
    conflicts = [(u, v) for u in adjacency for v in adjacency[u]]
    if not conflicts:
        return
    u, v = random.Random(seed).choice(conflicts)
    bad = dict(colors)
    bad[v] = bad[u]
    with pytest.raises(InvalidInstanceError):
        oracle.kuhn_wattenhofer_reduction(adjacency, bad)
    with pytest.raises(InvalidInstanceError, match="improper"):
        kuhn_wattenhofer_reduction(adjacency, bad)
