"""Deterministic workload generators for experiments and tests.

Every generator takes an explicit ``seed`` where randomness is
involved, and all of them return plain :class:`networkx.Graph` objects
with integer node labels ``0 .. n-1``.  The benchmark harness sweeps
these families because they stress different parameter regimes of the
paper's algorithm:

* cycles/paths/grids — constant ``Δ``, growing ``n``: isolates the
  additive ``O(log* n)`` term;
* complete / complete bipartite / random regular — growing ``Δ``:
  isolates the ``log^{O(log log Δ)} Δ`` term;
* stars, books, friendship graphs — highly skewed degree sequences,
  exercising the per-edge ``deg(e) + 1`` list sizes (much smaller than
  ``2Δ - 1`` at most edges);
* blow-ups and barbells — hybrid instances with both dense cores and
  long sparse tails.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import networkx as nx

from repro.errors import ParameterError


def _relabel_to_integers(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to ``0 .. n-1`` deterministically (sorted by repr)."""
    ordered = sorted(graph.nodes(), key=repr)
    mapping = {node: index for index, node in enumerate(ordered)}
    return nx.relabel_nodes(graph, mapping, copy=True)


def path_graph(n: int) -> nx.Graph:
    """Return the path on ``n`` nodes (``n - 1`` edges)."""
    if n < 1:
        raise ParameterError(f"path_graph requires n >= 1, got {n}")
    return nx.path_graph(n)


def cycle_graph(n: int) -> nx.Graph:
    """Return the cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ParameterError(f"cycle_graph requires n >= 3, got {n}")
    return nx.cycle_graph(n)


def star_graph(leaves: int) -> nx.Graph:
    """Return the star with ``leaves`` leaves (``Δ = leaves``)."""
    if leaves < 1:
        raise ParameterError(f"star_graph requires leaves >= 1, got {leaves}")
    return nx.star_graph(leaves)


def complete_graph(n: int) -> nx.Graph:
    """Return ``K_n`` (``Δ = n - 1``, edge degree ``2n - 4``)."""
    if n < 2:
        raise ParameterError(f"complete_graph requires n >= 2, got {n}")
    return nx.complete_graph(n)


def complete_bipartite(a: int, b: int) -> nx.Graph:
    """Return ``K_{a,b}`` with integer labels.

    Complete bipartite graphs are the classic hard instances for edge
    coloring experiments: every edge has the same edge degree
    ``a + b - 2`` and the line graph is a rook's graph.
    """
    if a < 1 or b < 1:
        raise ParameterError(f"complete_bipartite requires a, b >= 1, got {a}, {b}")
    # Built directly in the form ``_relabel_to_integers`` gives
    # ``nx.complete_bipartite_graph(a, b)``: its node ``x`` (side 0 for
    # ``x < a``) becomes the position of ``x`` in repr order, and nodes,
    # edges and adjacency rows keep networkx's insertion orders.
    n = a + b
    label = {x: index for index, x in enumerate(sorted(range(n), key=repr))}
    graph = nx.Graph(name=f"complete_bipartite_graph({a}, {b})")
    graph.add_nodes_from((label[x], {"bipartite": int(x >= a)}) for x in range(n))
    graph.add_edges_from(
        (label[u], label[v]) for u in range(a) for v in range(a, n)
    )
    return graph


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """Return the ``rows x cols`` grid (``Δ <= 4``)."""
    if rows < 1 or cols < 1:
        raise ParameterError(f"grid_graph requires rows, cols >= 1, got {rows}, {cols}")
    return _relabel_to_integers(nx.grid_2d_graph(rows, cols))


def torus_graph(rows: int, cols: int) -> nx.Graph:
    """Return the ``rows x cols`` torus (4-regular for rows, cols >= 3)."""
    if rows < 3 or cols < 3:
        raise ParameterError(f"torus_graph requires rows, cols >= 3, got {rows}, {cols}")
    return _relabel_to_integers(nx.grid_2d_graph(rows, cols, periodic=True))


def hypercube(dimension: int) -> nx.Graph:
    """Return the ``dimension``-dimensional hypercube (``Δ = dimension``)."""
    if dimension < 1:
        raise ParameterError(f"hypercube requires dimension >= 1, got {dimension}")
    return _relabel_to_integers(nx.hypercube_graph(dimension))


def random_regular(degree: int, n: int, seed: int) -> nx.Graph:
    """Return a random ``degree``-regular graph on ``n`` nodes.

    ``degree * n`` must be even and ``degree < n`` (standard existence
    conditions).  Random regular graphs are the paper's "typical"
    instance: uniform degrees, no helpful structure.
    """
    if degree < 0 or n <= degree:
        raise ParameterError(
            f"random_regular requires 0 <= degree < n, got degree={degree}, n={n}"
        )
    if (degree * n) % 2:
        raise ParameterError(
            f"random_regular requires degree * n even, got degree={degree}, n={n}"
        )
    return nx.random_regular_graph(degree, n, seed=seed)


def random_bipartite_regular(degree: int, side: int, seed: int) -> nx.Graph:
    """Return a random bipartite ``degree``-regular graph, ``side`` nodes per side.

    Built as the union of ``degree`` random perfect matchings between
    the two sides; parallel edges are resolved by re-drawing, so the
    result is simple and exactly ``degree``-regular.
    """
    if degree < 1 or side < degree:
        raise ParameterError(
            f"random_bipartite_regular requires 1 <= degree <= side, "
            f"got degree={degree}, side={side}"
        )
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(2 * side))
    left = list(range(side))
    right = list(range(side, 2 * side))
    for _ in range(degree):
        # Redraw permutations until the matching avoids existing edges;
        # for degree << side this terminates quickly, and we cap the
        # attempts to keep the generator total.
        for _attempt in range(1000):
            permutation = right[:]
            rng.shuffle(permutation)
            if all(not graph.has_edge(u, v) for u, v in zip(left, permutation)):
                graph.add_edges_from(zip(left, permutation))
                break
        else:
            raise ParameterError(
                "could not realise a simple bipartite regular graph; "
                f"degree={degree} too close to side={side}"
            )
    return graph


def erdos_renyi(n: int, probability: float, seed: int) -> nx.Graph:
    """Return a ``G(n, p)`` random graph."""
    if n < 1:
        raise ParameterError(f"erdos_renyi requires n >= 1, got {n}")
    if not 0.0 <= probability <= 1.0:
        raise ParameterError(f"probability must lie in [0, 1], got {probability}")
    return nx.gnp_random_graph(n, probability, seed=seed)


def random_tree(n: int, seed: int) -> nx.Graph:
    """Return a uniformly random labelled tree on ``n`` nodes."""
    if n < 1:
        raise ParameterError(f"random_tree requires n >= 1, got {n}")
    if n == 1:
        graph = nx.Graph()
        graph.add_node(0)
        return graph
    return nx.random_labeled_tree(n, seed=seed)


def caterpillar(spine: int, legs_per_node: int) -> nx.Graph:
    """Return a caterpillar: a path of length ``spine`` with pendant legs.

    Caterpillars mix a long low-degree spine with moderate-degree hubs
    and are useful for testing per-edge list sizes.
    """
    if spine < 1:
        raise ParameterError(f"caterpillar requires spine >= 1, got {spine}")
    if legs_per_node < 0:
        raise ParameterError(
            f"caterpillar requires legs_per_node >= 0, got {legs_per_node}"
        )
    graph = nx.path_graph(spine)
    next_label = spine
    for node in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(node, next_label)
            next_label += 1
    return graph


def friendship_graph(triangles: int) -> nx.Graph:
    """Return the friendship graph: ``triangles`` triangles sharing one hub.

    The hub has degree ``2 * triangles`` while every other node has
    degree 2 — an extreme degree skew.
    """
    if triangles < 1:
        raise ParameterError(f"friendship_graph requires triangles >= 1, got {triangles}")
    graph = nx.Graph()
    hub = 0
    label = 1
    for _ in range(triangles):
        a, b = label, label + 1
        label += 2
        graph.add_edge(hub, a)
        graph.add_edge(hub, b)
        graph.add_edge(a, b)
    return graph


def book_graph(pages: int) -> nx.Graph:
    """Return the book graph: ``pages`` triangles sharing a common edge."""
    if pages < 1:
        raise ParameterError(f"book_graph requires pages >= 1, got {pages}")
    graph = nx.Graph()
    graph.add_edge(0, 1)
    for page in range(pages):
        node = 2 + page
        graph.add_edge(0, node)
        graph.add_edge(1, node)
    return graph


def barbell(clique: int, bridge: int) -> nx.Graph:
    """Return a barbell: two ``K_clique`` cliques joined by a path.

    Exercises instances with a dense core (large ``deg(e)``) attached
    to a sparse tail (tiny ``deg(e)``), where per-edge lists differ by
    an order of magnitude.
    """
    if clique < 3:
        raise ParameterError(f"barbell requires clique >= 3, got {clique}")
    if bridge < 0:
        raise ParameterError(f"barbell requires bridge >= 0, got {bridge}")
    return nx.barbell_graph(clique, bridge)


def blow_up_cycle(cycle_length: int, group_size: int) -> nx.Graph:
    """Return the blow-up of a cycle: each node becomes an independent group.

    Adjacent groups are completely joined, giving a ``2 * group_size``
    regular graph whose line graph is locally dense — a good stress
    test for the color-space reduction.
    """
    if cycle_length < 3:
        raise ParameterError(f"blow_up_cycle requires cycle_length >= 3, got {cycle_length}")
    if group_size < 1:
        raise ParameterError(f"blow_up_cycle requires group_size >= 1, got {group_size}")
    graph = nx.Graph()
    groups = [
        [position * group_size + offset for offset in range(group_size)]
        for position in range(cycle_length)
    ]
    for position, group in enumerate(groups):
        graph.add_nodes_from(group)
        next_group = groups[(position + 1) % cycle_length]
        for u, v in itertools.product(group, next_group):
            graph.add_edge(u, v)
    return graph


def circulant(n: int, offsets: tuple[int, ...] = (1, 2, 5)) -> nx.Graph:
    """Return the circulant graph ``C_n(offsets)``.

    Node ``i`` connects to ``i ± o (mod n)`` for each offset ``o`` —
    a standard explicit expander-like family with degree
    ``2 * len(offsets)`` (slightly less if offsets collide mod n).
    Expander-ish instances matter for coloring experiments because
    their neighborhoods look locally tree-like: no structure for an
    algorithm to exploit.
    """
    if n < 3:
        raise ParameterError(f"circulant requires n >= 3, got {n}")
    if not offsets:
        raise ParameterError("circulant requires at least one offset")
    if any(o < 1 or o >= n for o in offsets):
        raise ParameterError(
            f"offsets must lie in [1, n-1], got {offsets} for n={n}"
        )
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for node in range(n):
        for offset in offsets:
            graph.add_edge(node, (node + offset) % n)
    return graph


def de_bruijn_like(symbols: int, length: int) -> nx.Graph:
    """Return the undirected de Bruijn graph ``B(symbols, length)``.

    Nodes are length-``length`` words over ``symbols`` letters; word
    ``w`` connects to every word obtained by shifting and appending a
    letter.  Degree <= ``2 * symbols``; diameter ``length`` — the
    classic constant-degree, logarithmic-diameter topology.
    """
    if symbols < 2:
        raise ParameterError(f"de_bruijn_like requires symbols >= 2, got {symbols}")
    if length < 1:
        raise ParameterError(f"de_bruijn_like requires length >= 1, got {length}")
    graph = nx.Graph()
    count = symbols**length
    for word in range(count):
        shifted = (word * symbols) % count
        for letter in range(symbols):
            other = shifted + letter
            if other != word:
                graph.add_edge(word, other)
    return graph


@dataclass(frozen=True)
class GraphFamily:
    """A named, parameterised family used by the benchmark sweeps.

    Attributes
    ----------
    name:
        Human-readable family name used in benchmark tables.
    build:
        Callable mapping a size parameter to a graph.
    """

    name: str
    build: Callable[[int], nx.Graph]


def standard_families(seed: int = 7) -> list[GraphFamily]:
    """Return the families the benchmark harness sweeps by default.

    The size parameter has a family-specific meaning (nodes for cycles,
    degree for regular graphs, side size for bipartite graphs); each
    family documents it in its name.  The builders resolve through the
    central registry in :mod:`repro.graphs.families` — this function
    only fixes the default sweep subset and binds the seed.
    """
    from repro.graphs.families import build_family

    labelled = [
        ("cycle[n]", "cycle"),
        ("complete[n]", "complete"),
        ("complete_bipartite[n,n]", "complete_bipartite"),
        ("random_regular[d, n=4d]", "random_regular"),
        ("torus[n,n]", "torus"),
        ("blow_up_cycle[6, g]", "blow_up_cycle"),
    ]
    return [
        GraphFamily(label, lambda n, name=name: build_family(name, n, seed))
        for label, name in labelled
    ]
