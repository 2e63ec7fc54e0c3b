"""Canonical edge representation.

Everywhere in this library an undirected edge between nodes ``u`` and
``v`` is represented by the tuple ``(min(u, v), max(u, v))``.  Using a
single canonical form keeps dictionaries keyed by edges consistent
across modules (colorings, lists, defect maps, ledgers) and avoids the
classic ``(u, v)`` vs ``(v, u)`` bug family entirely.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable, Iterator

import networkx as nx

from repro.errors import InvalidInstanceError

#: Type alias used across the library: a canonical (sorted) node pair.
Edge = tuple[Hashable, Hashable]


def edge_key(u: Hashable, v: Hashable) -> Edge:
    """Return the canonical representation of the edge ``{u, v}``.

    >>> edge_key(5, 2)
    (2, 5)
    """
    if u == v:
        raise InvalidInstanceError(f"self-loop edge ({u!r}, {v!r}) is not allowed")
    return (u, v) if _sort_key(u) <= _sort_key(v) else (v, u)


def _sort_key(node: Hashable) -> tuple[str, str]:
    """Total order over heterogeneous node labels (type name, then repr)."""
    return (type(node).__name__, repr(node))


def _keyed_edges(graph: nx.Graph) -> Iterator[tuple[tuple, Edge]]:
    """Yield ``(order key, canonical edge)`` for every edge of ``graph``."""
    keys = {node: _sort_key(node) for node in graph.nodes()}
    for u, v in graph.edges():
        if u == v:
            raise InvalidInstanceError(
                f"self-loop edge ({u!r}, {v!r}) is not allowed"
            )
        ku, kv = keys[u], keys[v]
        yield ((ku, kv), (u, v)) if ku <= kv else ((kv, ku), (v, u))


def edge_set(graph: nx.Graph) -> list[Edge]:
    """Return all edges of ``graph`` in canonical form, sorted.

    Sorting gives deterministic iteration order to every algorithm that
    enumerates edges, which keeps simulated executions reproducible.
    """
    keyed = sorted(_keyed_edges(graph), key=itemgetter(0))
    return [edge for _, edge in keyed]


def canonical_edges(graph: nx.Graph) -> set[Edge]:
    """The canonical edges of ``graph`` as a set: :func:`edge_set` unsorted."""
    return {edge for _, edge in _keyed_edges(graph)}


def incident_edges(graph: nx.Graph, node: Hashable) -> list[Edge]:
    """Return the canonical edges incident to ``node``, sorted."""
    return sorted(
        (edge_key(node, neighbor) for neighbor in graph.neighbors(node)),
        key=lambda e: (_sort_key(e[0]), _sort_key(e[1])),
    )


def other_endpoint(edge: Edge, node: Hashable) -> Hashable:
    """Return the endpoint of ``edge`` that is not ``node``.

    >>> other_endpoint((2, 5), 2)
    5
    """
    u, v = edge
    if node == u:
        return v
    if node == v:
        return u
    raise InvalidInstanceError(f"node {node!r} is not an endpoint of edge {edge!r}")


def edges_subgraph(graph: nx.Graph, edges: Iterable[Edge]) -> nx.Graph:
    """Return the subgraph of ``graph`` containing exactly ``edges``.

    Nodes that become isolated are dropped; algorithms that recurse on
    subsets of edges (Lemma 4.2's residual instances, Lemma 4.3's
    per-subspace instances) use this to build their sub-instances.
    """
    sub = nx.Graph()
    for u, v in edges:
        if not graph.has_edge(u, v):
            raise InvalidInstanceError(
                f"edge ({u!r}, {v!r}) is not present in the host graph"
            )
        sub.add_edge(u, v)
    return sub


def edge_to_token(edge: Edge) -> str:
    """Serialise a canonical edge as ``"u--v"``.

    The textual edge form shared by JSON exports
    (:mod:`repro.analysis.serialization`) and run-result fingerprints
    (:mod:`repro.results`).
    """
    u, v = edge
    return f"{u}--{v}"


def token_to_edge(token: str) -> Edge:
    """Parse an edge token back into a canonical tuple.

    Integer labels are restored as integers; everything else stays a
    string.
    """
    parts = token.split("--")
    if len(parts) != 2:
        raise InvalidInstanceError(f"malformed edge token {token!r}")

    def parse(label: str):
        try:
            return int(label)
        except ValueError:
            return label

    return (parse(parts[0]), parse(parts[1]))
