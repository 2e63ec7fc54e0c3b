"""The defective coloring's id-aligned labels are its colors.

Lemma 4.2 reads :attr:`DefectiveColoringResult.labels` (aligned with
the instance's edge ids) and never the edge-keyed ``colors``, which is
built on first read.  On the random instances of
``test_primitives_defective_oracle`` (whole graphs and ``edges=``
sub-instances), the labels must equal both ``colors`` and the
dict-based oracle's colors, in instance order, and the flat chain walks
must list the chains :func:`chains_from_adjacency` lists, in the same
order, orientation and cyclic flags.  During real solves, the labels
the solver reads must equal the oracle's colors for the edges it asked
about.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

import defective_oracle as oracle
import repro.core.solver as solver
from repro.api import InstanceSpec, RunSpec, run
from repro.graphs.index import EdgeIndex
from repro.primitives import defective
from repro.utils.chains import chain_walks, chains_from_adjacency
from test_primitives_defective_oracle import instances


@settings(deadline=None, max_examples=150)
@given(instances())
def test_labels_equal_colors_and_the_oracle(instance):
    graph, subset, beta, initial = instance
    index = EdgeIndex(graph)
    result = defective.defective_edge_coloring(
        graph, beta, initial, index=index, edges=subset
    )
    ids = list(range(len(index))) if subset is None else index.ids(subset)
    assert list(result.ids) == ids
    labelled = [(index.edges[i], label) for i, label in zip(ids, result.labels.tolist())]
    expected = oracle.defective_edge_coloring(
        graph, beta, initial, index=index, edges=subset
    ).colors
    assert labelled == list(result.colors.items()) == list(expected.items())


@settings(deadline=None, max_examples=150)
@given(instances())
def test_chain_walks_list_the_chains_of_chains_from_adjacency(instance):
    graph, subset, beta, _initial = instance
    index = EdgeIndex(graph)
    ids = range(len(index)) if subset is None else index.ids(subset)
    if not ids:
        return
    group_size = 4 * beta
    groups, numbers = oracle.assign_groups_and_numbers(index, ids, group_size)
    temp_colors = oracle.temporary_colors([index.edges[i] for i in ids], numbers)
    expected = chains_from_adjacency(oracle.conflict_adjacency(groups, temp_colors))

    member = np.zeros(len(index), dtype=bool)
    member[ids] = True
    edge_ids, node_ids, group, numbers = defective._number_edges(
        index, member, group_size
    )
    pairs = defective._pair_indices(edge_ids, numbers, len(index), group_size)
    first, second = defective._conflict_pairs(
        index, edge_ids, node_ids, group, pairs
    )
    walk, lengths, cyclic = chain_walks(
        index.edges, np.flatnonzero(member), first, second, index.repr_rank
    )
    assert lengths.sum() == len(walk) == len(ids)
    ends = np.cumsum(lengths).tolist()
    walked = [
        (tuple(index.edges[i] for i in walk[end - length : end].tolist()), closed)
        for end, length, closed in zip(ends, lengths.tolist(), cyclic.tolist())
    ]
    assert walked == [(chain.items, chain.cyclic) for chain in expected]


@pytest.mark.parametrize(
    "family, size, policy",
    [
        ("random_regular", 10, "scaled"),
        ("complete_bipartite", 9, "kuhn20"),
        ("complete_bipartite", 25, "machinery"),
    ],
)
def test_the_solver_reads_the_oracles_colors(monkeypatch, family, size, policy):
    seen = []
    compute = solver.defective_edge_coloring

    def checked(graph, beta, initial, *, index=None, edges=None):
        result = compute(graph, beta, initial, index=index, edges=edges)
        expected = oracle.defective_edge_coloring(
            graph, beta, initial, index=index, edges=edges
        ).colors
        assert result.labels.tolist() == [expected[edge] for edge in edges]
        seen.append(len(edges))
        return result

    monkeypatch.setattr(solver, "defective_edge_coloring", checked)
    spec = RunSpec(InstanceSpec(family=family, size=size, seed=1), policy=policy)
    run(spec, cache=False)
    assert seen  # Lemma 4.2 ran at least one iteration
