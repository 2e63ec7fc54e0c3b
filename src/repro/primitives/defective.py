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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import networkx as nx

from repro.errors import AlgorithmInvariantError, InvalidInstanceError, ParameterError
from repro.graphs.edges import Edge
from repro.graphs.index import EdgeIndex
from repro.primitives.chain_coloring import three_color_chains
from repro.utils.chains import Chain, chains_from_adjacency


@dataclass(frozen=True)
class DefectiveColoringResult:
    """Outcome of the defective edge coloring.

    Attributes
    ----------
    colors:
        Edge -> defective color (dense non-negative integers).
    color_count:
        Number of *possible* colors for this β (the ``O(β²)`` bound;
        the number of colors actually used may be smaller).
    rounds:
        LOCAL rounds: 1 for the number exchange, plus the parallel
        chain coloring, plus 1 to publish the final color.
    beta:
        The β the coloring was built for (defect promise
        ``deg(e) / (2β)``).
    groups:
        Node -> edge -> group index for every node with an edge of the
        instance, exposed for validation and the figure-reproduction
        benches.
    """

    colors: dict[Edge, int]
    color_count: int
    rounds: int
    beta: int
    groups: dict[Hashable, dict[Edge, int]]


def _assign_groups_and_numbers(
    index: EdgeIndex, ids: Sequence[int], group_size: int
) -> tuple[dict[Hashable, dict[Edge, int]], dict[tuple[Hashable, Edge], int]]:
    """Each node partitions its instance edges into groups and numbers them.

    A node numbers its edges in edge order.  Returns ``(groups,
    numbers)`` where ``groups[v][e]`` is the group index of ``e`` at
    ``v`` (for every node with an instance edge) and ``numbers[(v, e)]``
    the 1-based number of ``e`` inside that group.
    """
    member = [False] * len(index)
    for i in ids:
        member[i] = True
    edges = index.edges
    incidence = index.incidence.tolist()
    starts = index.incidence_start.tolist()
    groups: dict[Hashable, dict[Edge, int]] = {}
    numbers: dict[tuple[Hashable, Edge], int] = {}
    for node, start, end in zip(index.nodes, starts, starts[1:]):
        node_edges = [edges[i] for i in incidence[start:end] if member[i]]
        if not node_edges:
            continue
        node_groups: dict[Edge, int] = {}
        for position, edge in enumerate(node_edges):
            node_groups[edge] = position // group_size
            numbers[(node, edge)] = position % group_size + 1
        groups[node] = node_groups
    return groups, numbers


def _conflict_adjacency(
    groups: Mapping[Hashable, Mapping[Edge, int]],
    temp_colors: Mapping[Edge, tuple[int, int]],
) -> dict[Edge, set[Edge]]:
    """Adjacency of "same temporary color and share a group".

    By the numbering argument this graph has maximum degree 2; we
    *verify* that instead of assuming it.
    """
    adjacency: dict[Edge, set[Edge]] = {edge: set() for edge in temp_colors}
    for node, node_groups in groups.items():
        # Bucket this node's edges by (group, temp color); any bucket of
        # size 2 contributes a conflict pair.
        buckets: dict[tuple[int, tuple[int, int]], list[Edge]] = {}
        for edge, group in node_groups.items():
            buckets.setdefault((group, temp_colors[edge]), []).append(edge)
        for bucket_edges in buckets.values():
            if len(bucket_edges) > 2:
                raise AlgorithmInvariantError(
                    "more than two edges share a group and a temporary "
                    f"color at node {node!r}: {bucket_edges!r}"
                )
            if len(bucket_edges) == 2:
                first, second = bucket_edges
                adjacency[first].add(second)
                adjacency[second].add(first)
    for edge, neighbors in adjacency.items():
        if len(neighbors) > 2:
            raise AlgorithmInvariantError(
                f"conflict degree of {edge!r} is {len(neighbors)} > 2"
            )
    return adjacency


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
    edges = [index.edges[i] for i in ids]
    missing = [e for e in edges if e not in initial_coloring]
    if missing:
        raise InvalidInstanceError(
            f"edges without an initial color: {missing[:3]!r}"
        )
    if not edges:
        return DefectiveColoringResult(
            colors={}, color_count=0, rounds=0, beta=beta, groups={}
        )

    group_size = 4 * beta
    groups, numbers = _assign_groups_and_numbers(index, ids, group_size)

    # Round 1: endpoints exchange their numbers; each edge forms its
    # temporary color (i, j) with i <= j.
    temp_colors: dict[Edge, tuple[int, int]] = {}
    for edge in edges:
        u, v = edge
        i, j = numbers[(u, edge)], numbers[(v, edge)]
        temp_colors[edge] = (min(i, j), max(i, j))

    # Chains of conflicting edges, 3-colored in parallel (O(log* X)).
    adjacency = _conflict_adjacency(groups, temp_colors)
    chains: list[Chain] = chains_from_adjacency(adjacency)
    chain_colors, chain_rounds = three_color_chains(chains, initial_coloring)

    # Final color: dense encoding of the triple (i, j, chain color).
    colors: dict[Edge, int] = {}
    for edge in edges:
        i, j = temp_colors[edge]
        pair_index = _pair_index(i, j, group_size)
        colors[edge] = pair_index * 3 + chain_colors[edge]
    color_count = _pair_count(group_size) * 3

    # Rounds: 1 (exchange numbers) + chains (parallel) + 1 (publish).
    rounds = 1 + chain_rounds + 1
    return DefectiveColoringResult(
        colors=colors,
        color_count=color_count,
        rounds=rounds,
        beta=beta,
        groups=groups,
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
