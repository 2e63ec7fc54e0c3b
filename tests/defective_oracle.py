"""Dict-based defective coloring: the oracle for :mod:`repro.primitives.defective`.

The library numbers the edges, forms the temporary pairs, finds the
conflict pairs and walks the chains on the :class:`EdgeIndex` arrays,
over edge ids.  This is the implementation it replaced: per-edge dicts
keyed by edge tuples, and chains from :func:`chains_from_adjacency`.
``test_primitives_defective_oracle.py`` checks that both agree in
colors, color count, rounds, groups and errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import networkx as nx

from repro.errors import AlgorithmInvariantError, InvalidInstanceError, ParameterError
from repro.graphs.edges import Edge
from repro.graphs.index import EdgeIndex
from repro.primitives.chain_coloring import three_color_chains
from repro.primitives.defective import _pair_count, _pair_index
from repro.utils.chains import chains_from_adjacency


@dataclass(frozen=True)
class OracleResult:
    """The fields of a :class:`DefectiveColoringResult`, as plain dicts."""

    colors: dict[Edge, int]
    color_count: int
    rounds: int
    beta: int
    groups: dict[Hashable, dict[Edge, int]]


def assign_groups_and_numbers(
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


def conflict_adjacency(
    groups: Mapping[Hashable, Mapping[Edge, int]],
    temp_colors: Mapping[Edge, tuple[int, int]],
) -> dict[Edge, set[Edge]]:
    """Adjacency of "same temporary color and share a group"."""
    adjacency: dict[Edge, set[Edge]] = {edge: set() for edge in temp_colors}
    for node, node_groups in groups.items():
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


def temporary_colors(
    edges: Sequence[Edge], numbers: Mapping[tuple[Hashable, Edge], int]
) -> dict[Edge, tuple[int, int]]:
    """Each edge's pair ``(min(i, j), max(i, j))`` of its endpoints' numbers."""
    temp_colors: dict[Edge, tuple[int, int]] = {}
    for edge in edges:
        u, v = edge
        i, j = numbers[(u, edge)], numbers[(v, edge)]
        temp_colors[edge] = (min(i, j), max(i, j))
    return temp_colors


def defective_edge_coloring(
    graph: nx.Graph,
    beta: int,
    initial_coloring: Mapping[Edge, int],
    *,
    index: EdgeIndex | None = None,
    edges: Sequence[Edge] | None = None,
) -> OracleResult:
    """The Section 4.1 defective edge coloring, one edge at a time."""
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
        return OracleResult(
            colors={}, color_count=0, rounds=0, beta=beta, groups={}
        )

    group_size = 4 * beta
    groups, numbers = assign_groups_and_numbers(index, ids, group_size)
    temp_colors = temporary_colors(edges, numbers)
    adjacency = conflict_adjacency(groups, temp_colors)
    chains = chains_from_adjacency(adjacency)
    chain_colors, chain_rounds = three_color_chains(chains, initial_coloring)

    colors: dict[Edge, int] = {}
    for edge in edges:
        i, j = temp_colors[edge]
        colors[edge] = _pair_index(i, j, group_size) * 3 + chain_colors[edge]
    return OracleResult(
        colors=colors,
        color_count=_pair_count(group_size) * 3,
        rounds=1 + chain_rounds + 1,
        beta=beta,
        groups=groups,
    )
