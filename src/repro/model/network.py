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
* each node's neighbors, as dense indices sorted ascending, are its
  port order (sorting neighbors by their dense rank yields exactly the
  per-node ``sorted(..., key=repr)`` order, so the deterministic
  port-numbering contract is unchanged);
* one compile step, :meth:`Network._compile`, turns that node order
  and those index rows into everything the scheduler reads: ``n``,
  ``Δ``, per-node degrees and IDs in flat tables, the neighbor index
  rows, and the delivery structure as **columnar flat buffers** in
  CSR layout: ``row_start`` (per-sender offsets, length ``n + 1``)
  plus three parallel columns of length ``2m`` indexed by
  ``row_start[i] + port`` — receiver index, receiver port, and the
  *destination slot* ``row_start[j] + receiver_port`` a message lands
  in.  Delivering a message is then pure flat-list indexing, and the
  scheduler's per-round inbox arena is addressed by the very same
  slots (see :mod:`repro.model.scheduler`);
* the node-keyed maps behind the node-level accessors
  (:meth:`~Network.port_towards`, :meth:`~Network.neighbor_at_port`,
  :meth:`~Network.index_of`, :meth:`~Network.degree`) and the nested
  *delivery table* view are built on first use: the scheduler never
  reads them.

:func:`repro.model.edge_network.line_graph_network` feeds the same
compile step from a graph's :class:`~repro.graphs.index.EdgeIndex`,
whose ``repr`` order and ``repr``-ordered rows already are this node
and port order, so a line-graph network is compiled without building
the line graph in networkx.

None of this changes observable behavior: ordering, IDs and ports are
bit-identical to the uncompiled implementation (the scheduler
equivalence tests enforce this); the compilation only moves work from
the per-round/per-node hot paths to construction time.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence

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

    The constructor derives the canonical node order and port-ordered
    neighbor index rows from ``graph`` and hands them to
    :meth:`_compile`, the compile step
    :func:`~repro.model.edge_network.line_graph_network` also uses.
    The node-keyed port and index maps are built on first use.
    """

    def __init__(
        self,
        graph: nx.Graph,
        ids: Mapping[Hashable, int] | None = None,
    ) -> None:
        validate_simple_graph(graph)
        nodes: list[Hashable] = sorted_nodes(graph)
        if ids is None:
            ids = assign_unique_ids(graph, ordered_nodes=nodes)
        index_of = {node: index for index, node in enumerate(nodes)}
        rank = index_of.__getitem__
        rows = [sorted(map(rank, graph.neighbors(node))) for node in nodes]
        self._compile(nodes, rows, ids, lambda: graph)
        self._index_of = index_of

    def _compile(
        self,
        nodes: list[Hashable],
        rows: list[list[int]],
        ids: Mapping[Hashable, int],
        graph: Callable[[], nx.Graph],
    ) -> None:
        """Fill every table the scheduler reads.

        ``nodes`` is the canonical node order; ``rows[i]`` lists the
        dense indices of node ``i``'s neighbors in port order, which
        must be ascending (port order is rank order).  ``graph`` returns
        the communication graph; it is called on the first read of
        :attr:`graph`.
        """
        self._validate_ids(nodes, ids)
        self._graph: nx.Graph | None = None
        self._build_graph = graph
        self._sorted_nodes = nodes
        n = self._n = len(nodes)
        self._ids = dict(ids)
        self._ids_by_index: list[int] = [self._ids[node] for node in nodes]
        self._neighbor_rows = rows
        degrees = self._degrees = [len(row) for row in rows]
        self._max_degree = max(degrees, default=0)

        # Columnar delivery layout (CSR).  Slot row_start[i] + port
        # holds the delivery facts for a message sent by node index i
        # through that port: receiver index, receiver port, and the
        # flat destination slot (row_start[receiver] + receiver_port)
        # the payload lands in on the receiving side.
        row_start: list[int] = [0] * (n + 1)
        for index in range(n):
            row_start[index + 1] = row_start[index] + degrees[index]
        self._row_start = row_start
        col_receiver: list[int] = [j for row in rows for j in row]
        # Rows are ascending, so sender i is the k-th neighbor of its
        # receiver j exactly when k of j's neighbors precede i:
        # counting senders per receiver in index order gives the port.
        seen = [0] * n
        col_receiver_port: list[int] = []
        append = col_receiver_port.append
        for j in col_receiver:
            append(seen[j])
            seen[j] += 1
        self._col_receiver = col_receiver
        self._col_receiver_port = col_receiver_port
        self._col_dest_slot: list[int] = [
            row_start[receiver] + port
            for receiver, port in zip(col_receiver, col_receiver_port)
        ]
        self._delivery: list[list[tuple[int, int]]] | None = None
        self._index_of: dict[Hashable, int] | None = None
        self._ports: dict[Hashable, list[Hashable]] | None = None
        self._port_of: dict[tuple[Hashable, Hashable], int] | None = None

    @staticmethod
    def _validate_ids(nodes: Sequence[Hashable], ids: Mapping[Hashable, int]) -> None:
        if set(ids) != set(nodes):
            raise InvalidInstanceError("ids must cover exactly the graph's nodes")
        values = list(ids.values())
        if len(set(values)) != len(values):
            raise InvalidInstanceError("node IDs must be unique")
        if any(v < 1 for v in values):
            raise InvalidInstanceError("node IDs must be positive integers")

    def _node_index(self) -> dict[Hashable, int]:
        if self._index_of is None:
            self._index_of = {
                node: index for index, node in enumerate(self._sorted_nodes)
            }
        return self._index_of

    def _port_maps(
        self,
    ) -> tuple[dict[Hashable, list[Hashable]], dict[tuple[Hashable, Hashable], int]]:
        """``node -> neighbors in port order`` and ``(node, neighbor) -> port``."""
        if self._ports is None:
            nodes = self._sorted_nodes
            ports: dict[Hashable, list[Hashable]] = {}
            port_of: dict[tuple[Hashable, Hashable], int] = {}
            for node, row in zip(nodes, self._neighbor_rows):
                neighbors = ports[node] = [nodes[j] for j in row]
                for port, neighbor in enumerate(neighbors):
                    port_of[(node, neighbor)] = port
            self._ports, self._port_of = ports, port_of
        return self._ports, self._port_of

    # ------------------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        if self._graph is None:
            self._graph = self._build_graph()
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
        return self._degrees[self._node_index()[node]]

    def neighbors_in_port_order(self, node: Hashable) -> list[Hashable]:
        """Return the neighbors of ``node`` indexed by port."""
        return list(self._port_maps()[0][node])

    def neighbor_at_port(self, node: Hashable, port: int) -> Hashable:
        """Return the neighbor reached through ``port`` of ``node``."""
        ports = self._port_maps()[0][node]
        if not 0 <= port < len(ports):
            raise ModelViolationError(
                f"node {node!r} has no port {port} (degree {len(ports)})"
            )
        return ports[port]

    def port_towards(self, node: Hashable, neighbor: Hashable) -> int:
        """Return the port of ``node`` that leads to ``neighbor``."""
        try:
            return self._port_maps()[1][(node, neighbor)]
        except KeyError:
            raise ModelViolationError(
                f"{neighbor!r} is not a neighbor of {node!r}"
            ) from None

    # --- compiled (indexed) accessors ---------------------------------

    def index_of(self, node: Hashable) -> int:
        """Return the dense index (``0 .. n-1``) of ``node``."""
        return self._node_index()[node]

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
        return self._neighbor_rows


def network_from_edges(
    edges: Iterable[tuple[Hashable, Hashable]],
    ids: Mapping[Hashable, int] | None = None,
) -> Network:
    """Build a :class:`Network` from an edge list (convenience)."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return Network(graph, ids=ids)
