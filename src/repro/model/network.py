"""The simulated communication network.

A :class:`Network` fixes the graph, the unique node IDs and the port
numbering — the "hardware" a LOCAL algorithm runs on.  Port numbering
maps each node's incident edges to ports ``0 .. deg-1`` in sorted
neighbor order (any fixed order is a valid LOCAL port assignment; a
deterministic one keeps simulations reproducible).

Compilation
-----------
Construction runs a one-time *compilation pass* so the scheduler's hot
path is pure list indexing:

* nodes are sorted **once** by ``repr`` (the library's canonical total
  order) and given dense integer indices ``0 .. n-1``;
* neighbor/port order is derived from the same single sort (sorting
  neighbors by their dense rank yields exactly the old per-node
  ``sorted(..., key=repr)`` order, so the deterministic port-numbering
  contract is unchanged);
* ``n``, ``Δ``, per-node degrees and IDs are cached in flat tables;
* the delivery structure is compiled into **columnar flat buffers** in
  CSR layout: ``row_start`` (per-sender offsets, length ``n + 1``) plus
  three parallel columns of length ``2m`` indexed by
  ``row_start[i] + port`` — receiver index, receiver port, and the
  *destination slot* ``row_start[j] + receiver_port`` a message lands
  in.  Delivering a message is then pure flat-list indexing, and the
  scheduler's per-round inbox arena is addressed by the very same
  slots (see :mod:`repro.model.scheduler`);
* the nested *delivery table* view (``(sender_index, port) ->
  (receiver_index, receiver_port)``) is derived from the columns on
  demand for callers that prefer the row-per-node shape.

None of this changes observable behavior: ordering, IDs and ports are
bit-identical to the uncompiled implementation (the scheduler
equivalence tests enforce this); the compilation only moves work from
the per-round/per-node hot paths to construction time.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import networkx as nx

from repro.errors import InvalidInstanceError, ModelViolationError
from repro.graphs.properties import assign_unique_ids, sorted_nodes, validate_simple_graph


class Network:
    """A static synchronous network over a simple graph.

    Parameters
    ----------
    graph:
        The communication graph.
    ids:
        Optional node -> unique ID mapping.  Defaults to a fresh
        assignment via :func:`repro.graphs.properties.assign_unique_ids`.
    """

    def __init__(
        self,
        graph: nx.Graph,
        ids: Mapping[Hashable, int] | None = None,
    ) -> None:
        validate_simple_graph(graph)
        self._graph = graph
        # --- compilation pass (single sort; everything else derives) ---
        self._sorted_nodes: list[Hashable] = sorted_nodes(graph)
        self._n = len(self._sorted_nodes)
        if ids is None:
            ids = assign_unique_ids(graph, ordered_nodes=self._sorted_nodes)
        self._validate_ids(graph, ids)
        self._ids = dict(ids)

        index_of: dict[Hashable, int] = {
            node: index for index, node in enumerate(self._sorted_nodes)
        }
        self._index_of = index_of
        rank = index_of.__getitem__

        # Port tables: node -> list of neighbors in port order, and the
        # inverse lookup (node, neighbor) -> port.  Sorting neighbors by
        # dense rank reproduces the repr order without re-repring.
        self._ports: dict[Hashable, list[Hashable]] = {}
        self._port_of: dict[tuple[Hashable, Hashable], int] = {}
        self._degrees: list[int] = [0] * self._n
        for index, node in enumerate(self._sorted_nodes):
            neighbors = sorted(graph.neighbors(node), key=rank)
            self._ports[node] = neighbors
            self._degrees[index] = len(neighbors)
            for port, neighbor in enumerate(neighbors):
                self._port_of[(node, neighbor)] = port

        # Columnar delivery layout (CSR).  Slot row_start[i] + port
        # holds the delivery facts for a message sent by node index i
        # through that port: receiver index, receiver port, and the
        # flat destination slot (row_start[receiver] + receiver_port)
        # the payload lands in on the receiving side.
        row_start: list[int] = [0] * (self._n + 1)
        for index in range(self._n):
            row_start[index + 1] = row_start[index] + self._degrees[index]
        self._row_start = row_start
        col_receiver: list[int] = []
        col_receiver_port: list[int] = []
        for node in self._sorted_nodes:
            for neighbor in self._ports[node]:
                col_receiver.append(rank(neighbor))
                col_receiver_port.append(self._port_of[(neighbor, node)])
        self._col_receiver = col_receiver
        self._col_receiver_port = col_receiver_port
        self._col_dest_slot: list[int] = [
            row_start[receiver] + port
            for receiver, port in zip(col_receiver, col_receiver_port)
        ]
        self._delivery: list[list[tuple[int, int]]] | None = None
        self._neighbor_rows: list[list[int]] | None = None
        self._max_degree = max(self._degrees, default=0)
        self._ids_by_index: list[int] = [
            self._ids[node] for node in self._sorted_nodes
        ]

    @staticmethod
    def _validate_ids(graph: nx.Graph, ids: Mapping[Hashable, int]) -> None:
        nodes = set(graph.nodes())
        if set(ids) != nodes:
            raise InvalidInstanceError("ids must cover exactly the graph's nodes")
        values = list(ids.values())
        if len(set(values)) != len(values):
            raise InvalidInstanceError("node IDs must be unique")
        if any(v < 1 for v in values):
            raise InvalidInstanceError("node IDs must be positive integers")

    # ------------------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def n(self) -> int:
        return self._n

    @property
    def max_degree(self) -> int:
        return self._max_degree

    def nodes(self) -> list[Hashable]:
        """Return the nodes in deterministic (sorted) order."""
        return list(self._sorted_nodes)

    def id_of(self, node: Hashable) -> int:
        return self._ids[node]

    def ids(self) -> dict[Hashable, int]:
        """Return a copy of the full ID assignment."""
        return dict(self._ids)

    def max_id(self) -> int:
        """Return the largest assigned ID (the ``X`` of ``log* X`` terms)."""
        return max(self._ids_by_index) if self._ids_by_index else 0

    def degree(self, node: Hashable) -> int:
        return self._degrees[self._index_of[node]]

    def neighbors_in_port_order(self, node: Hashable) -> list[Hashable]:
        """Return the neighbors of ``node`` indexed by port."""
        return list(self._ports[node])

    def neighbor_at_port(self, node: Hashable, port: int) -> Hashable:
        """Return the neighbor reached through ``port`` of ``node``."""
        ports = self._ports[node]
        if not 0 <= port < len(ports):
            raise ModelViolationError(
                f"node {node!r} has no port {port} (degree {len(ports)})"
            )
        return ports[port]

    def port_towards(self, node: Hashable, neighbor: Hashable) -> int:
        """Return the port of ``node`` that leads to ``neighbor``."""
        try:
            return self._port_of[(node, neighbor)]
        except KeyError:
            raise ModelViolationError(
                f"{neighbor!r} is not a neighbor of {node!r}"
            ) from None

    # --- compiled (indexed) accessors ---------------------------------

    def index_of(self, node: Hashable) -> int:
        """Return the dense index (``0 .. n-1``) of ``node``."""
        return self._index_of[node]

    def node_at(self, index: int) -> Hashable:
        """Return the node at dense ``index`` (inverse of :meth:`index_of`)."""
        return self._sorted_nodes[index]

    def degree_table(self) -> list[int]:
        """Per-index degrees (do not mutate; shared with the scheduler)."""
        return self._degrees

    def ids_by_index(self) -> list[int]:
        """Per-index unique IDs (do not mutate; shared with the scheduler)."""
        return self._ids_by_index

    def delivery_table(self) -> list[list[tuple[int, int]]]:
        """The nested delivery view (do not mutate).

        ``delivery_table()[i][port] == (j, receiver_port)`` means: a
        message sent by node index ``i`` through ``port`` arrives at
        node index ``j`` on ``receiver_port``.  Derived from the
        columnar layout on first use (see :meth:`delivery_columns`).
        """
        if self._delivery is None:
            row_start = self._row_start
            pairs = list(zip(self._col_receiver, self._col_receiver_port))
            self._delivery = [
                pairs[row_start[index] : row_start[index + 1]]
                for index in range(self._n)
            ]
        return self._delivery

    def row_start_table(self) -> list[int]:
        """CSR row offsets (length ``n + 1``; do not mutate).

        Node index ``i`` owns the flat slots
        ``row_start_table()[i] .. row_start_table()[i + 1] - 1`` — one
        per port, in port order.  ``row_start_table()[n]`` is the total
        number of directed slots (``2m``).
        """
        return self._row_start

    def delivery_columns(
        self,
    ) -> tuple[list[int], list[int], list[int], list[int]]:
        """The columnar delivery layout (do not mutate any column).

        Returns ``(row_start, receiver, receiver_port, dest_slot)``.
        For the flat index ``idx = row_start[i] + port`` of a sender-
        side slot:

        * ``receiver[idx]`` is the dense index of the receiving node;
        * ``receiver_port[idx]`` is the port the message arrives on;
        * ``dest_slot[idx] == row_start[receiver[idx]] +
          receiver_port[idx]`` is the flat *receiver-side* slot the
          payload lands in — the address the scheduler's inbox arena is
          indexed by.

        Port symmetry holds by construction: following ``dest_slot``
        twice is the identity (``dest_slot[dest_slot[idx]] == idx``).
        """
        return (
            self._row_start,
            self._col_receiver,
            self._col_receiver_port,
            self._col_dest_slot,
        )

    def neighbor_index_rows(self) -> list[list[int]]:
        """Per-node neighbor *indices* in port order (do not mutate).

        ``neighbor_index_rows()[j][q]`` is the dense index of the node
        reached through port ``q`` of node index ``j`` — the receiver
        column resliced per node.  Because port numbering is symmetric,
        this is also the sender a message arriving on port ``q`` came
        from; the scheduler's pull-side (broadcast) delivery reads it.
        """
        if self._neighbor_rows is None:
            row_start = self._row_start
            col_receiver = self._col_receiver
            self._neighbor_rows = [
                col_receiver[row_start[index] : row_start[index + 1]]
                for index in range(self._n)
            ]
        return self._neighbor_rows


def network_from_edges(
    edges: Iterable[tuple[Hashable, Hashable]],
    ids: Mapping[Hashable, int] | None = None,
) -> Network:
    """Build a :class:`Network` from an edge list (convenience)."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return Network(graph, ids=ids)
