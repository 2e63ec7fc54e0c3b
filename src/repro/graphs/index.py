"""The compiled line graph: one integer index per graph.

Every lemma of the paper works on the line graph ``L(G)``.  Rather than
rebuilding it from networkx at each step, a solve compiles it once into
an :class:`EdgeIndex`:

* the canonical edges, in the library's one edge order
  ``(_sort_key(u), _sort_key(v))``, become the dense ids ``0 .. m-1``;
* the line graph is stored in compressed sparse row form: the
  neighbors of edge ``i`` are ``neighbors[row_start[i]:row_start[i+1]]``,
  ordered by ``repr`` of the neighboring edge (the order every
  simulated algorithm iterates in);
* ``degrees[i]`` is ``deg(e) = deg(u) + deg(v) - 2``.

Sub-instances (Lemma 4.2's residual classes, a base case's uncolored
edges) are :meth:`Csr.induced` subsets of the index, not new graphs;
a Lemma 4.2 iteration splits its instance by defective class once, with
:meth:`Csr.within_classes`.

The index is a value built from a graph, never a cache keyed on one:
networkx graphs are mutable, so whoever holds a graph and wants its
index builds it, and validators always build their own.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.errors import InvalidInstanceError
from repro.graphs.edges import Edge, _sort_key


def _row_starts(lengths: np.ndarray) -> np.ndarray:
    row_start = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_start[1:])
    return row_start


def split_rows(row_start: np.ndarray, neighbors: np.ndarray) -> list[list[int]]:
    """CSR rows as Python lists, for per-item loops."""
    flat = neighbors.tolist()
    starts = row_start.tolist()
    return [flat[start:end] for start, end in zip(starts, starts[1:])]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` for every ``(s, l)`` pair."""
    total = int(lengths.sum())
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(starts, lengths) + (np.arange(total) - offsets)


class Csr:
    """A conflict graph over ``items`` in compressed sparse row form.

    Item ``i``'s neighbors are the dense ids
    ``neighbors[row_start[i]:row_start[i + 1]]``, in a fixed order.
    """

    __slots__ = ("items", "row_start", "neighbors", "degrees", "_rows")

    def __init__(
        self, items: list[Hashable], row_start: np.ndarray, neighbors: np.ndarray
    ) -> None:
        self.items = items
        self.row_start = row_start
        self.neighbors = neighbors
        #: Row lengths: each item's degree in this graph.
        self.degrees = row_start[1:] - row_start[:-1]
        self._rows: list[list[int]] | None = None

    @classmethod
    def from_adjacency(
        cls, adjacency: Mapping[Hashable, Iterable[Hashable]]
    ) -> "Csr":
        """Compile a symmetric ``item -> neighbors`` mapping, keeping its orders."""
        items = list(adjacency)
        position = {item: index for index, item in enumerate(items)}
        rows = [[position[other] for other in adjacency[item]] for item in items]
        flat = [other for row in rows for other in row]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        csr = cls(items, _row_starts(lengths), np.array(flat, dtype=np.int64))
        csr._rows = rows
        return csr

    def __len__(self) -> int:
        return len(self.items)

    def slot_owners(self) -> np.ndarray:
        """For each CSR slot, the id of the item whose row it is in."""
        return np.repeat(np.arange(len(self.items)), self.degrees)

    def rows(self) -> list[list[int]]:
        """The rows as Python lists, for per-item loops."""
        if self._rows is None:
            self._rows = split_rows(self.row_start, self.neighbors)
        return self._rows

    def adjacency(self) -> dict[Hashable, list[Hashable]]:
        """The ``item -> neighbor items`` mapping this graph compiles."""
        items = self.items
        return {
            item: [items[other] for other in row]
            for item, row in zip(items, self.rows())
        }

    def within_classes(self, labels: np.ndarray) -> "Csr":
        """The subgraph over the same items keeping only the conflicts
        between items of one class, ``labels[i]`` being item ``i``'s.

        Rows keep their neighbor order.
        """
        owners = self.slot_owners()
        same = labels[owners] == labels[self.neighbors]
        return Csr(
            self.items,
            _row_starts(np.bincount(owners[same], minlength=len(self.items))),
            self.neighbors[same],
        )

    def induced(self, ids: Sequence[int]) -> "Csr":
        """The subgraph induced by the items ``ids``, in that order.

        Rows keep their neighbor order; neighbor ids are renumbered to
        positions in ``ids``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        local = np.full(len(self.items), -1, dtype=np.int64)
        local[ids] = np.arange(len(ids))
        lengths = self.degrees[ids]
        mapped = local[self.neighbors[_ranges(self.row_start[ids], lengths)]]
        kept = mapped >= 0
        owner = np.repeat(np.arange(len(ids)), lengths)[kept]
        items = self.items
        return Csr(
            [items[i] for i in ids.tolist()],
            _row_starts(np.bincount(owner, minlength=len(ids))),
            mapped[kept],
        )


class EdgeIndex(Csr):
    """The line graph of ``graph`` over dense canonical edge ids.

    Attributes
    ----------
    items / edges:
        Canonical edges in the library's edge order (the order of
        :func:`repro.graphs.edges.edge_set`); edge ``i`` has id ``i``.
    position:
        ``edge -> id``.
    nodes:
        The graph's nodes in ``_sort_key`` order.
    row_start / neighbors:
        The line graph in CSR form, each row ordered by ``repr(edge)``.
    incidence_start / incidence:
        The edges at node ``nodes[x]`` are
        ``incidence[incidence_start[x]:incidence_start[x + 1]]``, in
        edge order.
    tails / heads:
        Per edge id, the positions in ``nodes`` of its two endpoints,
        ``tails[i] < heads[i]``.
    repr_order:
        All edge ids sorted by ``repr(edge)``.
    repr_rank:
        Per edge id, its position in ``repr_order``: comparing ranks
        compares ``repr`` strings.
    """

    __slots__ = (
        "position", "nodes", "incidence_start", "incidence", "tails", "heads",
        "repr_order", "repr_rank",
    )

    def __init__(self, graph: nx.Graph) -> None:
        nodes = sorted(graph.nodes(), key=_sort_key)
        rank = {node: index for index, node in enumerate(nodes)}
        n = len(nodes)
        # One pass over the adjacency: each edge packed once, from its
        # lower-ranked end, as ``tail * n + head``; sorting the packed
        # ranks puts the edges in edge order.
        ends = np.sort(np.array(
            [
                ru * n + rv
                for u, neighbors in graph.adjacency()
                for ru in (rank[u],)
                for rv in map(rank.__getitem__, neighbors)
                if ru <= rv
            ],
            dtype=np.int64,
        ))
        tails, heads = np.divmod(ends, max(n, 1))
        if (tails == heads).any():
            u = next(u for u, neighbors in graph.adjacency() if u in neighbors)
            raise InvalidInstanceError(
                f"self-loop edge ({u!r}, {u!r}) is not allowed"
            )
        m = len(ends)
        tail_list, head_list = tails.tolist(), heads.tolist()
        edges = [(nodes[a], nodes[b]) for a, b in zip(tail_list, head_list)]

        # Edge ids grouped by endpoint, each group in edge order: sort
        # the (node, edge) pairs, packed into one integer each.
        edge_ids = np.arange(m, dtype=np.int64)
        half_node = np.concatenate([tails, heads])
        packed = np.sort(half_node * m + np.concatenate([edge_ids, edge_ids]))
        incidence = packed % m
        node_degree = np.bincount(half_node, minlength=len(nodes))
        incidence_start = _row_starts(node_degree)

        # Every ordered pair of distinct edges sharing an endpoint; in a
        # simple graph two edges share at most one, so no pair repeats.
        reps = node_degree[packed // m]
        rows = np.repeat(incidence, reps)
        cols = incidence[_ranges(np.repeat(incidence_start[:-1], node_degree), reps)]
        distinct = rows != cols
        rows, cols = rows[distinct], cols[distinct]

        # Sort the pairs by row, then by the neighbor's repr rank; an
        # edge's repr is ``repr((u, v))``, built from its nodes' reprs.
        node_reprs = [repr(node) for node in nodes]
        reprs = [
            f"({node_reprs[a]}, {node_reprs[b]})"
            for a, b in zip(tail_list, head_list)
        ]
        repr_order = sorted(range(m), key=reprs.__getitem__)
        repr_rank = np.empty(m, dtype=np.int64)
        repr_rank[repr_order] = edge_ids
        ranked = np.sort(rows * m + repr_rank[cols]) % m

        super().__init__(
            edges,
            _row_starts(np.bincount(rows, minlength=m)),
            np.array(repr_order, dtype=np.int64)[ranked],
        )
        self.position = dict(zip(edges, range(m)))
        self.nodes = nodes
        self.incidence_start = incidence_start
        self.incidence = incidence
        self.tails = tails
        self.heads = heads
        self.repr_order = repr_order
        self.repr_rank = repr_rank

    @property
    def edges(self) -> list[Edge]:
        """The canonical edges, by id (the same list as ``items``)."""
        return self.items

    def pair_ids(self, node_ids: Mapping[Hashable, int]) -> list[int]:
        """Per edge id, a unique positive id paired from its ends' ids.

        Uses the injective pairing ``low * (max_id + 1) + high`` of the
        two end ids, ``max_id`` being the largest value in ``node_ids``,
        so distinct edges always receive distinct ids and the id space
        stays polynomial.  The solver's Linial seeds and a line-graph
        network's agent ids both come from here.
        """
        base = max(node_ids.values(), default=0) + 1
        ends = [node_ids[node] for node in self.nodes]
        return [
            a * base + b if a < b else b * base + a
            for a, b in zip(
                map(ends.__getitem__, self.tails.tolist()),
                map(ends.__getitem__, self.heads.tolist()),
            )
        ]

    def same_value_slots(self, assignment: Mapping[Edge, Hashable]) -> np.ndarray:
        """Per CSR slot: do the row's edge and this neighbor carry one value?

        Edges missing from ``assignment`` match nothing; keys that are
        not edges of the graph are ignored.
        """
        codes: dict[Hashable, int] = {}
        labels = np.array(
            [
                codes.setdefault(assignment[edge], len(codes))
                if edge in assignment
                else -1
                for edge in self.items
            ],
            dtype=np.int64,
        )
        own = labels[self.slot_owners()]
        return (own >= 0) & (own == labels[self.neighbors])

    def ids(self, edges: Iterable[Edge]) -> list[int]:
        """The ids of ``edges``; unknown edges raise."""
        position = self.position
        try:
            return [position[edge] for edge in edges]
        except KeyError as missing:
            raise InvalidInstanceError(
                f"edge {missing.args[0]!r} not present in graph"
            ) from None
