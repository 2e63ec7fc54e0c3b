"""Per-edge color lists — the ``P(Δ̄, S, C)`` instance data.

A list edge coloring instance assigns every edge ``e`` a list
``L_e``; the paper parametrises instances by the maximum edge degree
``Δ̄``, the palette size ``C`` and the *slack* ``S`` — the guarantee
that ``|L_e| > S * deg(e)`` for every edge.  :class:`ListAssignment`
stores the lists and computes the realised slack of an instance, which
the core algorithm's precondition checks and the tests both consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import networkx as nx

from repro.errors import InvalidInstanceError, ParameterError
from repro.coloring.palette import Palette
from repro.graphs.edges import Edge, edge_key, edge_set
from repro.graphs.index import EdgeIndex
from repro.graphs.line_graph import edge_degree


@dataclass
class ListAssignment:
    """Color lists for every edge of a graph.

    Attributes
    ----------
    lists:
        Mapping from canonical edge to the *set* of allowed colors.
        Sets (not sequences) because all algorithms only ever test
        membership, intersect with subspaces, and remove used colors.
    palette:
        The ambient color space; every list must be a subset.
    """

    lists: dict[Edge, frozenset[int]]
    palette: Palette

    def __post_init__(self) -> None:
        ambient = self.palette.as_set
        # Check each distinct list once (uniform lists share one); name
        # the first offending edge only when one fails.
        if all(colors <= ambient for colors in set(self.lists.values())):
            return
        for edge, colors in self.lists.items():
            if not colors <= ambient:
                stray = sorted(colors - ambient)[:3]
                raise InvalidInstanceError(
                    f"list of edge {edge!r} contains colors outside the "
                    f"palette, e.g. {stray!r}"
                )

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.lists

    def list_of(self, edge: Edge) -> frozenset[int]:
        """Return ``L_e`` for a canonical edge ``e``."""
        try:
            return self.lists[edge]
        except KeyError:
            raise InvalidInstanceError(f"no list assigned to edge {edge!r}") from None

    def restrict_to_edges(self, edges: Iterable[Edge]) -> "ListAssignment":
        """Return the assignment restricted to a subset of edges."""
        chosen = set(edges)
        missing = chosen - set(self.lists)
        if missing:
            raise InvalidInstanceError(
                f"edges without lists: {sorted(missing, key=repr)[:3]!r}"
            )
        return ListAssignment(
            {edge: self.lists[edge] for edge in chosen}, self.palette
        )

    def intersect_with(self, subspace: Palette) -> "ListAssignment":
        """Return the assignment with every list intersected with ``subspace``.

        This is the list update ``L_e := L_e ∩ C_i`` of the color-space
        reduction (Lemma 4.3).
        """
        sub = subspace.as_set
        return ListAssignment(
            {edge: colors & sub for edge, colors in self.lists.items()},
            subspace,
        )

    def realized_slack(self, graph: nx.Graph) -> float:
        """Return the instance's slack ``min_e |L_e| / deg(e)``.

        Edges of degree 0 impose no constraint (any nonempty list
        suffices) and are skipped; an instance whose edges all have
        degree 0 reports infinite slack.  An empty list on a positive
        degree edge reports slack 0.
        """
        slack = float("inf")
        for edge, colors in self.lists.items():
            degree = edge_degree(graph, edge)
            if degree == 0:
                continue
            slack = min(slack, len(colors) / degree)
        return slack

    def is_uniform(self) -> bool:
        """Whether every edge's list is the whole palette."""
        ambient = self.palette.as_set
        return all(colors == ambient for colors in set(self.lists.values()))

    def validate_deg_plus_one(
        self, graph: nx.Graph, *, index: EdgeIndex | None = None
    ) -> None:
        """Raise unless ``|L_e| >= deg(e) + 1`` for every edge.

        This is the slack-1 precondition: ``|L_e| > deg(e)`` (strictly
        greater), i.e. the instance is greedily solvable.  ``index``,
        the compiled line graph of ``graph`` if the caller holds it,
        supplies the degrees of the graph's edges.
        """
        if (
            index is not None
            and self.lists.keys() == index.position.keys()
            and min(map(len, self.lists.values()), default=1)
            > index.degrees.max(initial=0)
        ):
            return  # every list is longer than the largest edge degree
        position = index.position if index is not None else {}
        degrees = index.degrees.tolist() if index is not None else []
        for edge, colors in self.lists.items():
            i = position.get(edge)
            degree = edge_degree(graph, edge) if i is None else degrees[i]
            if len(colors) < degree + 1:
                raise InvalidInstanceError(
                    f"edge {edge!r} has deg(e)={degree} but only "
                    f"{len(colors)} list colors (need at least {degree + 1})"
                )
            if not colors:
                raise InvalidInstanceError(f"edge {edge!r} has an empty list")


def deg_plus_one_lists(
    graph: nx.Graph,
    *,
    palette: Palette | None = None,
    seed: int | None = None,
    extra: int = 0,
) -> ListAssignment:
    """Build a ``(deg(e) + 1 + extra)``-list instance on ``graph``.

    Parameters
    ----------
    graph:
        The input graph.
    palette:
        The ambient color space.  Defaults to ``{1, ..., 2Δ - 1}`` —
        the classic greedy palette, so the default instance subsumes
        the ``(2Δ - 1)``-edge coloring problem.
    seed:
        ``None`` gives each edge the *first* ``deg(e) + 1 + extra``
        palette colors (an adversarially overlapping instance); an
        integer seed samples each list uniformly at random from the
        palette.
    extra:
        Additional colors beyond the minimum, to build slack > 1
        instances for the relaxed problems ``P(Δ̄, S, C)``.

    Raises
    ------
    ParameterError
        If the palette is too small to supply some edge's list.
    """
    if palette is None:
        delta = max((d for _n, d in graph.degree()), default=0)
        palette = Palette.of_size(max(1, 2 * delta - 1))
    rng = random.Random(seed) if seed is not None else None
    lists: dict[Edge, frozenset[int]] = {}
    ordered_palette = list(palette)
    for edge in edge_set(graph):
        need = edge_degree(graph, edge) + 1 + extra
        if need > len(ordered_palette):
            raise ParameterError(
                f"palette of size {len(ordered_palette)} cannot supply a "
                f"list of size {need} for edge {edge!r}"
            )
        if rng is None:
            chosen = ordered_palette[:need]
        else:
            chosen = rng.sample(ordered_palette, need)
        lists[edge] = frozenset(chosen)
    return ListAssignment(lists, palette)


def uniform_lists(
    graph: nx.Graph, palette: Palette, *, index: EdgeIndex | None = None
) -> ListAssignment:
    """Give every edge the *full* palette as its list.

    With ``palette = {1, ..., 2Δ - 1}`` this is exactly the classic
    ``(2Δ - 1)``-edge coloring problem stated as a list problem.
    ``index``, the compiled line graph of ``graph`` if the caller holds
    it, supplies the edges.
    """
    full = frozenset(palette.as_set)
    edges = edge_set(graph) if index is None else index.edges
    return ListAssignment(dict.fromkeys(edges, full), palette)


def lists_from_mapping(
    graph: nx.Graph, mapping: Mapping[tuple, Iterable[int]], palette: Palette
) -> ListAssignment:
    """Build a :class:`ListAssignment` from a user-provided mapping.

    Edge keys in ``mapping`` may be in either endpoint order; they are
    canonicalised here.  Every graph edge must receive a list.
    """
    lists: dict[Edge, frozenset[int]] = {}
    for (u, v), colors in mapping.items():
        lists[edge_key(u, v)] = frozenset(colors)
    missing = [e for e in edge_set(graph) if e not in lists]
    if missing:
        raise InvalidInstanceError(f"edges without lists: {missing[:3]!r}")
    return ListAssignment(lists, palette)
