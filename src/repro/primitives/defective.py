"""The ``deg(e)/(2β)``-defective ``O(β²)``-edge coloring of Section 4.1.

The construction, exactly as in the paper:

1.  Every node ``v`` partitions its incident edges into
    ``ceil(deg(v) / 4β)`` groups of size at most ``4β`` and numbers the
    edges within each group with distinct values ``1 .. 4β``.
2.  Each edge ``e = {u, v}`` learns the two numbers ``i, j`` it was
    assigned by its endpoints (one round of communication) and takes
    the *temporary color* ``(min(i,j), max(i,j))``.
3.  Within one group, at most two edges share a temporary color, so
    the conflict graph "same temporary color + share a group" has
    maximum degree 2 — a disjoint union of paths and cycles.  These
    chains are 3-colored in ``O(log* X)`` rounds (Cole-Vishkin), seeded
    by the given initial ``X``-edge coloring.
4.  The final color of an edge is the triple ``(i, j, chain color)`` —
    at most ``3 * 4β * (4β + 1) / 2 = O(β²)`` colors.

Defect bound (proved in the paper, *checked* by our validator): two
edges sharing a final color and a node must lie in different groups of
that node, so the defect of ``e = {u, v}`` is at most
``(ceil(deg(u)/4β) - 1) + (ceil(deg(v)/4β) - 1) <= deg(e) / (2β)``.

Implementation: steps 1-3 run on the :class:`~repro.graphs.index.EdgeIndex`
arrays over edge ids.  The numbering filters the index's incidence
lists to the instance's edges (a node numbers them in edge order), a
pair index per edge comes from its two numbers, and the conflicts are
the runs of a sort by (node, group, pair).  The chains are walked over
edge ids in the index's ``repr`` rank order into one flat walk
(:func:`repro.utils.chains.chain_walks`), so they come out exactly as
:func:`repro.utils.chains.chains_from_adjacency` would list them, and
Cole-Vishkin colors that walk from the initial colors gathered by edge
id (:func:`repro.primitives.chain_coloring.three_color_walks`); no
per-chain or per-edge object is built.

The output is id-aligned: :attr:`DefectiveColoringResult.labels` holds
the color of each instance edge id, in instance order, which is all
Lemma 4.2 reads.  The edge-keyed ``colors`` and the per-node
``groups`` are built only when a caller reads them (the validators,
the tests and the figure benches).  The per-edge dict version this
replaced lives on as ``tests/defective_oracle.py``;
``tests/test_primitives_defective_oracle.py`` checks that both agree in
colors, rounds, groups and errors, and
``tests/test_primitives_defective_labels.py`` that the labels are
those colors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.errors import AlgorithmInvariantError, InvalidInstanceError, ParameterError
from repro.graphs.edges import Edge
from repro.graphs.index import EdgeIndex
from repro.primitives.chain_coloring import seed_array, three_color_walks
from repro.utils.chains import chain_walks


@dataclass(frozen=True, eq=False)
class DefectiveColoringResult:
    """Outcome of the defective edge coloring.

    Attributes
    ----------
    ids:
        The instance's edge ids of ``index``, in instance order (the
        order of the ``edges`` argument; all ids ascending by default).
    labels:
        ``labels[k]`` is the defective color of edge ``ids[k]`` (dense
        non-negative integers, an int64 array).
    color_count:
        Number of *possible* colors for this β (the ``O(β²)`` bound;
        the number of colors actually used may be smaller).
    rounds:
        LOCAL rounds: 1 for the number exchange, plus the parallel
        chain coloring, plus 1 to publish the final color.
    beta:
        The β the coloring was built for (defect promise
        ``deg(e) / (2β)``).
    index:
        The compiled line graph the ids refer to.
    colors:
        Edge -> defective color, in instance order; built from
        ``labels`` when first read.
    groups:
        Node -> edge -> group index for every node with an edge of the
        instance, for validation and the figure-reproduction benches;
        built from the numbering when first read.
    """

    ids: Sequence[int]
    labels: np.ndarray
    color_count: int
    rounds: int
    beta: int
    index: EdgeIndex = field(repr=False)
    #: ``(edge_ids, node_ids, group)`` of :func:`_number_edges`.
    numbering: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )

    @cached_property
    def colors(self) -> dict[Edge, int]:
        edges = self.index.edges
        return {edges[i]: label for i, label in zip(self.ids, self.labels.tolist())}

    @cached_property
    def groups(self) -> dict[Hashable, dict[Edge, int]]:
        if self.numbering is None:
            return {}
        return _groups_by_node(self.index, *self.numbering)


def _number_edges(
    index: EdgeIndex, member: np.ndarray, group_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each node partitions its member edges into groups and numbers them.

    A node numbers only its member edges (``member[i]`` for edge id
    ``i``), in edge order, in groups of ``group_size``.  Returns one
    array entry per (node, member edge) incidence, ordered by node and
    then edge: ``(edge_ids, node_ids, group, number)``, where
    ``number`` is the 1-based number of the edge inside its group.
    """
    incidence = index.incidence
    node_degree = index.incidence_start[1:] - index.incidence_start[:-1]
    kept = member[incidence]
    edge_ids = incidence[kept]
    node_ids = np.repeat(np.arange(len(node_degree)), node_degree)[kept]
    counts = np.bincount(node_ids, minlength=len(node_degree))
    position = np.arange(len(edge_ids)) - (np.cumsum(counts) - counts)[node_ids]
    return edge_ids, node_ids, position // group_size, position % group_size + 1


def _pair_indices(
    edge_ids: np.ndarray, numbers: np.ndarray, size: int, group_size: int
) -> np.ndarray:
    """Per edge id, the dense index of its temporary pair (-1 off the instance).

    ``edge_ids`` / ``numbers`` are the incidences of
    :func:`_number_edges`: every member edge appears twice, once per
    endpoint, and its pair is ``(min(i, j), max(i, j))`` of its two
    numbers.
    """
    order = np.argsort(edge_ids, kind="stable")
    ends = numbers[order].reshape(-1, 2)
    low, high = ends.min(axis=1), ends.max(axis=1)
    invalid = np.flatnonzero((low < 1) | (high > group_size))
    if invalid.size:
        k = int(invalid[0])
        _pair_index(int(low[k]), int(high[k]), group_size)
    pairs = np.full(size, -1, dtype=np.int64)
    pairs[edge_ids[order][::2]] = (
        (low - 1) * group_size - (low - 1) * (low - 2) // 2 + (high - low)
    )
    return pairs


def _conflict_pairs(
    index: EdgeIndex,
    edge_ids: np.ndarray,
    node_ids: np.ndarray,
    group: np.ndarray,
    pairs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The conflicts ``{first[k], second[k]}``: same temporary color,
    and a group in common.

    The incidences of :func:`_number_edges` with one (node, group,
    pair) form a bucket.  By the numbering argument a bucket holds at
    most two edges, so the conflict graph has maximum degree 2; we
    *verify* both instead of assuming them.
    """
    # Sorted by (node, group, pair), each bucket is one run; the sort
    # is stable, so a run lists its edges in edge order.
    order = np.lexsort((pairs[edge_ids], group, node_ids))
    keys = np.stack([node_ids, group, pairs[edge_ids]])[:, order]
    same = (keys[:, 1:] == keys[:, :-1]).all(axis=0)
    crowded = np.flatnonzero(same[1:] & same[:-1])
    if crowded.size:
        run = order[(keys == keys[:, crowded[:1]]).all(axis=0)]
        edges = index.edges
        raise AlgorithmInvariantError(
            "more than two edges share a group and a temporary color at "
            f"node {index.nodes[int(node_ids[run[0]])]!r}: "
            f"{[edges[i] for i in edge_ids[run].tolist()]!r}"
        )
    left = np.flatnonzero(same)
    first, second = edge_ids[order[left]], edge_ids[order[left + 1]]
    degree = np.bincount(np.concatenate([first, second]), minlength=len(pairs))
    if first.size and degree.max() > 2:
        edge = int(np.argmax(degree))
        raise AlgorithmInvariantError(
            f"conflict degree of {index.edges[edge]!r} is {int(degree[edge])} > 2"
        )
    return first, second


def _groups_by_node(
    index: EdgeIndex, edge_ids: np.ndarray, node_ids: np.ndarray, group: np.ndarray
) -> dict[Hashable, dict[Edge, int]]:
    """Node -> member edge -> group index, from :func:`_number_edges`."""
    edges, nodes = index.edges, index.nodes
    counts = np.bincount(node_ids, minlength=len(nodes)).tolist()
    members = [edges[i] for i in edge_ids.tolist()]
    group_of = group.tolist()
    groups: dict[Hashable, dict[Edge, int]] = {}
    start = 0
    for node, count in zip(nodes, counts):
        if count:
            end = start + count
            groups[node] = dict(zip(members[start:end], group_of[start:end]))
            start = end
    return groups


def defective_edge_coloring(
    graph: nx.Graph,
    beta: int,
    initial_coloring: Mapping[Edge, int],
    *,
    index: EdgeIndex | None = None,
    edges: Sequence[Edge] | None = None,
) -> DefectiveColoringResult:
    """Compute the Section 4.1 defective edge coloring.

    Parameters
    ----------
    graph:
        Host graph.
    beta:
        The defect parameter β >= 1; the result promises defect at most
        ``deg(e) / (2β)`` per edge using ``O(β²)`` colors.
    initial_coloring:
        A proper ``X``-edge coloring used to seed the chain 3-coloring
        (the paper's given initial coloring).  Must cover all edges.
    index:
        The compiled line graph of ``graph``, if the caller holds it.
    edges:
        Color only the subgraph these edges form (a sub-instance such
        as Lemma 4.2's uncolored edges); all of ``graph`` by default.

    Returns
    -------
    DefectiveColoringResult
    """
    if beta < 1:
        raise ParameterError(f"beta must be >= 1, got {beta}")
    if index is None:
        index = EdgeIndex(graph)
    ids = range(len(index)) if edges is None else index.ids(edges)
    edges = list(map(index.edges.__getitem__, ids))
    if not all(map(initial_coloring.__contains__, edges)):
        missing = [e for e in edges if e not in initial_coloring]
        raise InvalidInstanceError(
            f"edges without an initial color: {missing[:3]!r}"
        )
    if not edges:
        return DefectiveColoringResult(
            ids=ids, labels=np.zeros(0, dtype=np.int64), color_count=0,
            rounds=0, beta=beta, index=index,
        )
    seeds = list(map(int, map(initial_coloring.__getitem__, edges)))

    group_size = 4 * beta
    member = np.zeros(len(index), dtype=bool)
    member[ids] = True
    edge_ids, node_ids, group, numbers = _number_edges(index, member, group_size)

    # Round 1: endpoints exchange their numbers; each edge forms its
    # temporary color (i, j) with i <= j.
    pairs = _pair_indices(edge_ids, numbers, len(index), group_size)

    # Chains of conflicting edges, 3-colored in parallel (O(log* X)),
    # as one flat walk of edge ids seeded by the initial colors.
    first, second = _conflict_pairs(index, edge_ids, node_ids, group, pairs)
    walk, lengths, cyclic = chain_walks(
        index.edges, np.flatnonzero(member), first, second, index.repr_rank
    )
    instance = np.asarray(ids, dtype=np.int64)
    seed_of = seed_array(seeds)
    seed_of_id = np.zeros(len(index), dtype=seed_of.dtype)
    seed_of_id[instance] = seed_of
    chain_colors, chain_rounds = three_color_walks(
        seed_of_id[walk], lengths, cyclic, lambda k: index.edges[int(walk[k])]
    )

    # Final color: dense encoding of the triple (i, j, chain color).
    chain_color_of = np.empty(len(index), dtype=np.int64)
    chain_color_of[walk] = chain_colors
    labels = pairs[instance] * 3 + chain_color_of[instance]

    # Rounds: 1 (exchange numbers) + chains (parallel) + 1 (publish).
    return DefectiveColoringResult(
        ids=ids,
        labels=labels,
        color_count=_pair_count(group_size) * 3,
        rounds=1 + chain_rounds + 1,
        beta=beta,
        index=index,
        numbering=(edge_ids, node_ids, group),
    )


def _pair_index(i: int, j: int, group_size: int) -> int:
    """Dense index of the pair ``(i, j)`` with ``1 <= i <= j <= group_size``."""
    if not 1 <= i <= j <= group_size:
        raise AlgorithmInvariantError(
            f"invalid number pair ({i}, {j}) for group size {group_size}"
        )
    # Pairs are ordered (1,1), (1,2), ..., (1,g), (2,2), ..., (g,g).
    preceding = (i - 1) * group_size - (i - 1) * (i - 2) // 2
    return preceding + (j - i)


def _pair_count(group_size: int) -> int:
    """Number of pairs ``(i, j)`` with ``1 <= i <= j <= group_size``."""
    return group_size * (group_size + 1) // 2


def defect_bound(edge_degree: int, beta: int) -> float:
    """The paper's defect promise for an edge of degree ``deg(e)``.

    ``deg(e) / (2β)`` — exposed so validators and tests state the bound
    exactly once.
    """
    if beta < 1:
        raise ParameterError(f"beta must be >= 1, got {beta}")
    return edge_degree / (2 * beta)
