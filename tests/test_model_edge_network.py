"""Tests for the line-graph network adapter, including the columnar
delivery path: edge-agent networks run on the same flat-buffer engine
as node networks, so delivery order, port symmetry, and halted-receiver
message accounting are pinned here against the reference loop."""

from bisect import bisect_right

import networkx as nx
import pytest

from compile_oracle import edge_identifier
from repro.errors import InvalidInstanceError
from repro.graphs.edges import edge_set
from repro.graphs.index import EdgeIndex
from repro.graphs.line_graph import edge_degree, line_graph
from repro.graphs.properties import assign_unique_ids
from repro.model.algorithm import NodeAlgorithm
from repro.model.edge_network import line_graph_network
from repro.model.network import Network
from repro.model.reference import reference_run
from repro.model.scheduler import Scheduler


class TestEdgeIdentifier:
    """Edge ids are ``EdgeIndex.pair_ids`` of the node ids."""

    def test_distinct_edges_get_distinct_ids(self):
        g = nx.complete_graph(6)
        ids = EdgeIndex(g).pair_ids({node: node + 1 for node in g.nodes()})
        assert len(set(ids)) == len(ids) == 15

    def test_polynomial_id_space(self):
        g = nx.complete_graph(5)
        ids = EdgeIndex(g).pair_ids({node: node + 1 for node in g.nodes()})
        assert all(1 <= value <= 6 * 5 + 5 for value in ids)

    def test_order_independent(self):
        # The lower id goes first whichever end ranks first in the index.
        g = nx.Graph([(0, 1)])
        assert EdgeIndex(g).pair_ids({0: 7, 1: 3}) == [3 * 8 + 7]
        assert EdgeIndex(g).pair_ids({0: 3, 1: 7}) == [3 * 8 + 7]

    def test_network_ids_are_pair_ids(self):
        g = nx.petersen_graph()
        node_ids = assign_unique_ids(g, seed=4)
        index = EdgeIndex(g)
        network = line_graph_network(g, node_ids=node_ids, index=index)
        assert network.ids() == dict(zip(index.items, index.pair_ids(node_ids)))
        max_id = max(node_ids.values())
        assert index.pair_ids(node_ids) == [
            edge_identifier(edge, node_ids, max_id) for edge in index.items
        ]


class InboxOrderRecorder(NodeAlgorithm):
    """Broadcasts its ID; output embeds every round's inbox *items* in
    iteration order, so delivery order is part of the diffed output."""

    def __init__(self, horizon: int) -> None:
        self._horizon = horizon

    def initialize(self, ctx):
        ctx.state["round"] = 0
        ctx.state["seen"] = []

    def compose_messages(self, ctx):
        return dict.fromkeys(range(ctx.degree), ctx.unique_id)

    def receive_messages(self, ctx, inbox):
        ctx.state["seen"].append(list(inbox.items()))
        ctx.state["round"] += 1
        if ctx.state["round"] >= self._horizon:
            ctx.halt()

    def output(self, ctx):
        return ctx.state["seen"]


class HaltByIdParity(NodeAlgorithm):
    """Even-ID agents halt after one round; odd-ID agents keep sending
    to them anyway — those messages must be counted, never delivered."""

    def initialize(self, ctx):
        ctx.state["round"] = 0

    def compose_messages(self, ctx):
        # Alternate uniform broadcasts and partial per-port sends so
        # both the broadcast column and the push path cross halted
        # receivers.
        if ctx.state["round"] % 2 == 0:
            return dict.fromkeys(range(ctx.degree), ctx.unique_id)
        return {
            port: (ctx.unique_id, port) for port in range(0, ctx.degree, 2)
        }

    def receive_messages(self, ctx, inbox):
        ctx.state["round"] += 1
        if ctx.unique_id % 2 == 0 and ctx.state["round"] >= 1:
            ctx.halt()
        elif ctx.state["round"] >= 4:
            ctx.halt()

    def output(self, ctx):
        return ctx.state["round"]


class TestColumnarDeliveryOnEdgeNetworks:
    """The columnar engine on line-graph (edge-agent) networks."""

    def _network(self, seed=3):
        graph = nx.barbell_graph(4, 2)
        ids = assign_unique_ids(graph, seed=seed)
        return line_graph_network(graph, node_ids=ids)

    def test_delivery_order_matches_reference(self):
        network = self._network()
        ref = reference_run(network, InboxOrderRecorder(3))
        fast = Scheduler(network).run(InboxOrderRecorder(3))
        assert ref.outputs == fast.outputs  # contents AND item order
        assert ref.messages_sent == fast.messages_sent

    def test_port_symmetry_of_compiled_columns(self):
        """dest_slot is an involution, and the columns agree with the
        port-level API: following a slot to its destination and back
        is the identity."""
        network = self._network()
        row_start, col_receiver, col_port, col_dest = (
            network.delivery_columns()
        )
        assert row_start[-1] == len(col_receiver)
        for idx in range(len(col_dest)):
            assert col_dest[col_dest[idx]] == idx
            sender_index = bisect_right(row_start, idx) - 1
            sender = network.node_at(sender_index)
            port = idx - row_start[sender_index]
            receiver = network.node_at(col_receiver[idx])
            assert network.neighbor_at_port(sender, port) == receiver
            assert network.port_towards(receiver, sender) == col_port[idx]

    def test_neighbor_index_rows_match_port_order(self):
        network = self._network()
        rows = network.neighbor_index_rows()
        for node in network.nodes():
            index = network.index_of(node)
            assert [network.node_at(j) for j in rows[index]] == (
                network.neighbors_in_port_order(node)
            )

    def test_halted_receiver_messages_counted_like_reference(self):
        network = self._network(seed=9)
        ref = reference_run(network, HaltByIdParity())
        fast = Scheduler(network).run(HaltByIdParity())
        assert ref.rounds == fast.rounds
        assert ref.messages_sent == fast.messages_sent
        assert ref.outputs == fast.outputs
        # Sanity: the scenario really has live senders aiming at
        # halted receivers (otherwise the test proves nothing).
        assert any(r == 1 for r in ref.outputs.values())
        assert any(r > 1 for r in ref.outputs.values())


class TestLineGraphNetwork:
    def test_nodes_are_edges(self):
        g = nx.cycle_graph(5)
        net = line_graph_network(g)
        assert set(net.nodes()) == set(edge_set(g))

    def test_degrees_match_edge_degrees(self):
        g = nx.barbell_graph(3, 1)
        net = line_graph_network(g)
        for edge in edge_set(g):
            assert net.degree(edge) == edge_degree(g, edge)

    def test_ids_unique(self):
        g = nx.complete_bipartite_graph(3, 3)
        net = line_graph_network(g)
        values = list(net.ids().values())
        assert len(set(values)) == len(values)


def _mixed_labels() -> nx.Graph:
    graph = nx.Graph()
    graph.add_edges_from([(1, "a"), ("a", 2), (2, "b"), (1, 2), ("b", 10), (10, 1)])
    return graph


#: Graphs the index-compiled network is checked on: regular, bipartite,
#: path, star, grid (tuple labels), string and mixed labels, one edge.
INDEX_GRAPHS = {
    "random_regular": lambda: nx.random_regular_graph(4, 10, seed=5),
    "random_regular_d7": lambda: nx.random_regular_graph(7, 12, seed=2),
    "complete_bipartite": lambda: nx.complete_bipartite_graph(3, 4),
    "path": lambda: nx.path_graph(7),
    "star": lambda: nx.star_graph(6),
    "grid": lambda: nx.grid_2d_graph(3, 4),
    "string_labels": lambda: nx.relabel_nodes(
        nx.petersen_graph(), lambda node: f"v{node}"
    ),
    "mixed_labels": _mixed_labels,
    "one_edge": lambda: nx.Graph([(0, 1)]),
}


class TestIndexCompiledNetwork:
    """``line_graph_network`` compiles from the graph's EdgeIndex; the
    network must equal ``Network`` built on the networkx line graph."""

    @staticmethod
    def _pair(name, seed=7):
        graph = INDEX_GRAPHS[name]()
        node_ids = assign_unique_ids(graph, seed=seed)
        max_id = max(node_ids.values())
        lg = line_graph(graph)
        ids = {edge: edge_identifier(edge, node_ids, max_id) for edge in lg}
        return graph, line_graph_network(graph, node_ids=node_ids), Network(lg, ids=ids)

    @pytest.mark.parametrize("name", sorted(INDEX_GRAPHS))
    def test_compiled_tables_equal(self, name):
        _, compiled, reference = self._pair(name)
        assert compiled.n == reference.n
        assert compiled.max_degree == reference.max_degree
        assert compiled.nodes() == reference.nodes()
        assert compiled.degree_table() == reference.degree_table()
        assert compiled.ids_by_index() == reference.ids_by_index()
        assert compiled.ids() == reference.ids()
        assert compiled.row_start_table() == reference.row_start_table()
        assert compiled.delivery_columns() == reference.delivery_columns()
        assert compiled.neighbor_index_rows() == reference.neighbor_index_rows()
        assert compiled.delivery_table() == reference.delivery_table()

    @pytest.mark.parametrize("name", sorted(INDEX_GRAPHS))
    def test_node_level_accessors_agree(self, name):
        _, compiled, reference = self._pair(name)
        assert compiled.max_id() == reference.max_id()
        for node in reference.nodes():
            assert compiled.index_of(node) == reference.index_of(node)
            assert compiled.degree(node) == reference.degree(node)
            assert compiled.id_of(node) == reference.id_of(node)
            neighbors = reference.neighbors_in_port_order(node)
            assert compiled.neighbors_in_port_order(node) == neighbors
            for port, neighbor in enumerate(neighbors):
                assert compiled.neighbor_at_port(node, port) == neighbor
                assert compiled.port_towards(node, neighbor) == port

    @pytest.mark.parametrize("name", sorted(INDEX_GRAPHS))
    def test_graph_is_built_on_first_read(self, name):
        graph, compiled, _ = self._pair(name)
        assert compiled._graph is None
        expected = line_graph(graph)
        assert list(compiled.graph.nodes()) == list(expected.nodes())
        assert nx.to_dict_of_lists(compiled.graph) == nx.to_dict_of_lists(expected)
        assert compiled.graph is compiled.graph

    @pytest.mark.parametrize("name", sorted(INDEX_GRAPHS))
    def test_reference_loop_matches_scheduler(self, name):
        _, compiled, _ = self._pair(name, seed=11)
        ref = reference_run(compiled, InboxOrderRecorder(3))
        fast = Scheduler(compiled).run(InboxOrderRecorder(3))
        assert ref.outputs == fast.outputs
        assert ref.rounds == fast.rounds
        assert ref.messages_sent == fast.messages_sent

    def test_id_checks_kept(self):
        with pytest.raises(InvalidInstanceError, match="unique"):
            line_graph_network(nx.path_graph(4), node_ids={0: 1, 1: 2, 2: 1, 3: 2})
        with pytest.raises(InvalidInstanceError, match="positive"):
            line_graph_network(nx.path_graph(2), node_ids={0: 0, 1: 0})
