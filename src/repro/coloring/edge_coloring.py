"""Mutable partial edge colorings with residual-list maintenance.

The implementation of the paper rests on one workhorse invariant:

    **Residual invariant.**  Take any ``(deg(e) + 1)``-list instance
    and any proper partial coloring that respects the lists.  For every
    uncolored edge ``e``, remove from ``L_e`` the colors used by its
    colored neighbors.  Then the *residual* instance — the uncolored
    edges with their reduced lists — is again a ``(deg(e) + 1)``-list
    instance (each colored neighbor removes at most one list color but
    reduces the residual degree by exactly one).

Every stage of the paper's algorithm (the per-class coloring of
Lemma 4.2, the per-subspace recursion of Lemma 4.3, the greedy base
case) colors *some* edges and recurses on the residual, so this class
centralises the bookkeeping: it tracks the colors used at every node
(as a bitmask per node), exposes residual lists and residual degrees,
and refuses improper assignments outright.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

import networkx as nx

from repro.errors import ColoringValidationError, InvalidInstanceError
from repro.coloring.lists import ListAssignment
from repro.graphs.edges import Edge, edge_set
from repro.graphs.index import EdgeIndex


#: Maps the digits of ``bin(mask)`` to the bytes 0 and 1.
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class PartialEdgeColoring:
    """A partial proper list edge coloring under construction.

    Parameters
    ----------
    graph:
        The host graph.
    lists:
        The instance's color lists (must cover every edge of ``graph``).
    index:
        The compiled line graph of ``graph``, if the caller holds it.

    Attributes
    ----------
    list_masks:
        Per edge id, the mask of its list.
    used:
        Per node of the index (a position in ``index.nodes``), the
        mask of the colors of its colored edges.
    tails / heads:
        Per edge id, the node positions of its two endpoints.
    blocked:
        Per edge id, ``used[tails[i]] | used[heads[i]]``, computed on
        read.  For an uncolored edge this is the mask of the colors
        its colored neighbors use.  For a colored edge it also holds
        the edge's own color: both node masks include it.
    colored:
        Per edge id, whether it is colored.

    These are read-only for callers; :meth:`assign` keeps them.

    Notes
    -----
    The state lives on the node and edge ids of the :class:`EdgeIndex`,
    as Python-int bitmasks over the palette: bit ``r`` stands for the
    ``r``-th smallest palette color, so the lowest set bit of a mask is
    its smallest color whatever order the palette lists its colors in.
    A list's mask is built once per distinct list (uniform lists cost
    one).  Two edges are neighbors iff they share an endpoint, so an
    uncolored edge's blocked colors are the union of its two
    endpoints' used colors: :meth:`assign` checks a write by bit tests
    and ORs the color's bit into two node masks, and never reads the
    line graph.  A residual list is ``list & ~blocked``, which
    :meth:`residual_list` decodes into ascending colors.  The solver
    works on the masks by id (:meth:`mask_of`, :meth:`lowest_color`,
    :meth:`assign_id`).  Only :meth:`neighbors` and
    :meth:`residual_degree` read line-graph rows, built on their first
    call.

    The class *enforces* properness and list membership on every
    assignment; algorithms cannot corrupt it.  Final results are
    still re-checked by :mod:`repro.coloring.verify` — defence in
    depth, because validators must not trust the data structure they
    are validating.
    """

    def __init__(
        self,
        graph: nx.Graph,
        lists: ListAssignment,
        *,
        index: EdgeIndex | None = None,
    ) -> None:
        self._graph = graph
        self._lists = lists
        self._index = EdgeIndex(graph) if index is None else index
        self._edges = self._index.edges
        self._position = self._index.position
        #: Palette colors by bit: bit ``r`` of a mask is ``_by_bit[r]``.
        self._by_bit = sorted(lists.palette)
        self._bit = {color: 1 << rank for rank, color in enumerate(self._by_bit)}
        list_of = lists.lists
        try:
            edge_lists = [list_of[edge] for edge in self._edges]
        except KeyError:
            missing = [e for e in self._edges if e not in lists]
            raise InvalidInstanceError(
                f"edges without lists: {sorted(missing, key=repr)[:3]!r}"
            ) from None
        masks = {colors: self.mask_of(colors) for colors in set(edge_lists)}
        self.list_masks = list(map(masks.__getitem__, edge_lists))
        self._colors: dict[Edge, int] = {}
        self.used = [0] * len(self._index.nodes)
        self.tails = self._index.tails.tolist()
        self.heads = self._index.heads.tolist()
        self.blocked = _BlockedMasks(self.used, self.tails, self.heads)
        self.colored = [False] * len(self._edges)

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def lists(self) -> ListAssignment:
        return self._lists

    @property
    def index(self) -> EdgeIndex:
        """The compiled line graph this coloring maintains its state on."""
        return self._index

    def mask_of(self, colors: Iterable[int]) -> int:
        """The mask of the distinct ``colors``, which must lie in the
        palette."""
        return sum(map(self._bit.__getitem__, colors))

    def colors_of(self, mask: int) -> list[int]:
        """The colors of ``mask``, ascending."""
        # The mask's bits, lowest first, as the bytes 0 and 1.
        flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)
        return list(compress(self._by_bit, flags))

    def lowest_color(self, mask: int) -> int:
        """The smallest color of a non-empty ``mask``."""
        return self._by_bit[(mask & -mask).bit_length() - 1]

    def color_of(self, edge: Edge) -> int | None:
        """Return the color of ``edge`` or ``None`` if uncolored."""
        return self._colors.get(edge)

    def is_colored(self, edge: Edge) -> bool:
        return edge in self._colors

    def colored_edges(self) -> list[Edge]:
        """Return the colored edges (sorted by ``repr``, for determinism)."""
        return self._in_repr_order(True)

    def uncolored_edges(self) -> list[Edge]:
        """Return the uncolored edges (sorted by ``repr``, for determinism)."""
        return self._in_repr_order(False)

    def _in_repr_order(self, colored: bool) -> list[Edge]:
        edges, flags = self._edges, self.colored
        return [edges[i] for i in self._index.repr_order if flags[i] == colored]

    def is_complete(self) -> bool:
        """Return ``True`` when every edge has a color."""
        return len(self._colors) == len(self._edges)

    def residual_list(self, edge: Edge) -> list[int]:
        """Return ``L_e`` minus the colors used by colored neighbors,
        ascending.

        This is the list the *residual instance* gives to an uncolored
        ``edge``; the paper's procedures always work against residual
        lists.
        """
        i = self._position[edge]
        return self.colors_of(self.list_masks[i] & ~self.blocked[i])

    def residual_degree(self, edge: Edge) -> int:
        """Return the number of *uncolored* neighbors of ``edge``."""
        colored = self.colored
        row = self._index.rows()[self._position[edge]]
        return sum(1 for n in row if not colored[n])

    def neighbors(self, edge: Edge) -> list[Edge]:
        """Return the line-graph neighbors of ``edge``."""
        edges = self._edges
        return [edges[n] for n in self._index.rows()[self._position[edge]]]

    def as_dict(self) -> dict[Edge, int]:
        """Return a snapshot of the colors assigned so far."""
        return dict(self._colors)

    # ------------------------------------------------------------------
    # Write API
    # ------------------------------------------------------------------

    def assign(self, edge: Edge, color: int) -> None:
        """Color ``edge`` with ``color``; raise on any violation.

        Raises
        ------
        InvalidInstanceError
            If ``edge`` is not an edge of the graph.
        ColoringValidationError
            If the edge is already colored, the color is not in the
            edge's (original) list, or a neighbor already uses it.
        """
        i = self._position.get(edge)
        if i is None:
            raise InvalidInstanceError(f"unknown edge {edge!r}")
        self.assign_id(i, color)

    def assign_id(self, i: int, color: int) -> None:
        """:meth:`assign` by edge id."""
        edge = self._edges[i]
        if self.colored[i]:
            raise ColoringValidationError(
                f"edge {edge!r} is already colored with {self._colors[edge]}"
            )
        bit = self._bit.get(color, 0)
        if not bit & self.list_masks[i]:
            raise ColoringValidationError(
                f"color {color} is not in the list of edge {edge!r}"
            )
        used, tail, head = self.used, self.tails[i], self.heads[i]
        if bit & (used[tail] | used[head]):
            raise ColoringValidationError(
                f"color {color} is already used by a neighbor of {edge!r}"
            )
        self._colors[edge] = color
        self.colored[i] = True
        used[tail] |= bit
        used[head] |= bit

    # ------------------------------------------------------------------
    # Residual instance extraction
    # ------------------------------------------------------------------

    def residual_instance(self) -> tuple[nx.Graph, ListAssignment]:
        """Return the residual ``(graph, lists)`` on the uncolored edges.

        By the residual invariant (module docstring), if the original
        instance satisfied ``|L_e| >= deg(e) + 1`` then so does the
        returned instance — the basis of every "recurse on the
        leftovers" step in the paper.
        """
        remaining = self.uncolored_edges()
        sub = nx.Graph()
        for u, v in remaining:
            sub.add_edge(u, v)
        residual_lists = {
            edge: frozenset(self.residual_list(edge)) for edge in remaining
        }
        return sub, ListAssignment(residual_lists, self._lists.palette)

    def merge_from(self, other: "PartialEdgeColoring") -> None:
        """Adopt all colors of ``other`` (a coloring of a sub-instance).

        Every adoption goes through :meth:`assign`, so an improper
        merge fails loudly rather than corrupting state.
        """
        for edge in other.colored_edges():
            self.assign(edge, other.color_of(edge))


class _BlockedMasks(Sequence[int]):
    """:attr:`PartialEdgeColoring.blocked`: per edge id, the colors
    used at its endpoints, computed from the node masks on read."""

    __slots__ = ("_used", "_tails", "_heads")

    def __init__(self, used: list[int], tails: list[int], heads: list[int]) -> None:
        self._used = used
        self._tails = tails
        self._heads = heads

    def __len__(self) -> int:
        return len(self._tails)

    def __getitem__(self, i: int) -> int:  # type: ignore[override]
        used = self._used
        return used[self._tails[i]] | used[self._heads[i]]


def full_coloring_as_dict(
    graph: nx.Graph, coloring: PartialEdgeColoring
) -> dict[Edge, int]:
    """Return the finished coloring as a dict, insisting on completeness."""
    if not coloring.is_complete():
        missing = coloring.uncolored_edges()[:3]
        raise ColoringValidationError(
            f"coloring is incomplete; e.g. uncolored edges {missing!r}"
        )
    result = coloring.as_dict()
    expected = set(edge_set(graph))
    if set(result) != expected:
        raise ColoringValidationError(
            "coloring covers a different edge set than the graph"
        )
    return result
