"""Linial-style color reduction to an ``O(d²)`` palette in ``O(log* X)`` rounds.

The paper starts its main algorithm by "computing an O(Δ̄²)-edge
coloring in O(log* n) rounds [Lin87]" (Section 4.3) and repeatedly
appeals to the fact that, given an ``X``-coloring, list coloring
constant-degree graphs costs ``O(log* X)``.  This module provides that
machinery as a *vertex* procedure on an arbitrary conflict graph — the
callers run it on the line graph to color edges.

One reduction round (the classic construction): let the current proper
coloring use palette ``{0, ..., m-1}`` and let ``d`` be the maximum
degree.  Pick a prime ``q`` and write each color as a polynomial of
degree ``< k`` over ``GF(q)`` (its base-``q`` digits), where
``k = ceil(log_q m)``.  Two distinct polynomials agree on at most
``k - 1`` field elements, so if ``q > d * (k - 1)`` every node can pick
a point ``x`` where its polynomial disagrees with all neighbors'
polynomials; the new color ``(x, f(x))`` lives in a palette of size
``q²``.  Iterating shrinks ``m`` to a fixpoint of size
``next_prime(d + 1)² = O(d²)`` after ``O(log* m)`` rounds.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.errors import AlgorithmInvariantError, InvalidInstanceError
from repro.graphs.index import Csr
from repro.utils.logstar import ceil_log
from repro.utils.primes import next_prime


@dataclass(frozen=True)
class LinialStepParameters:
    """The ``(q, k)`` pair used by one reduction round.

    ``q`` is the field size (prime), ``k`` the number of base-``q``
    digits of the current palette, and ``q²`` the next palette size.
    """

    q: int
    k: int

    @property
    def new_palette_size(self) -> int:
        return self.q * self.q


@functools.lru_cache(maxsize=4096)
def linial_step_parameters(palette_size: int, degree: int) -> LinialStepParameters:
    """Return the smallest valid ``(q, k)`` for one reduction round.

    Searches primes upward until ``q > degree * (k - 1)`` with
    ``k = ceil(log_q palette_size)`` — the collision bound that makes
    the step sound.
    """
    if palette_size < 2:
        raise InvalidInstanceError(
            f"palette size must be >= 2, got {palette_size}"
        )
    if degree < 0:
        raise InvalidInstanceError(f"degree must be >= 0, got {degree}")
    q = 2
    while True:
        q = next_prime(q)
        k = max(1, ceil_log(q, palette_size))
        if q > degree * max(0, k - 1):
            return LinialStepParameters(q=q, k=k)
        q += 1


@dataclass(frozen=True)
class LinialResult:
    """Outcome of the iterated reduction.

    Attributes
    ----------
    colors:
        Item -> color in ``{0, ..., palette_size - 1}``: a dict, or a
        list aligned with the item ids when the input colors were one
        (see :func:`linial_reduce`).
    palette_size:
        Size of the final palette (``O(d²)``).
    rounds:
        Number of synchronous reduction rounds performed.
    step_parameters:
        The ``(q, k)`` used by each round, for analysis/benchmarks.
    """

    colors: dict[Hashable, int] | list[int]
    palette_size: int
    rounds: int
    step_parameters: tuple[LinialStepParameters, ...]


#: Evaluation points one pass of a round tries.  An item's first free
#: point is nearly always small, so most rounds settle in one pass.
_POINTS_PER_PASS = 4


def _digits(colors: np.ndarray, q: int, k: int) -> np.ndarray:
    """Row ``i``: the ``k`` base-``q`` digits of color ``i``, least
    significant first (:func:`repro.utils.gf.digits_base_q`) — the
    coefficients of the color's polynomial."""
    # q^(k-1) < the palette size, so the place values fit the dtype.
    place = np.array([q**j for j in range(k)], dtype=colors.dtype)
    return (colors[:, None] // place % q).astype(np.int64, copy=False)


@functools.lru_cache(maxsize=4096)
def _pass_points(q: int, k: int, low: int) -> tuple[np.ndarray, np.ndarray]:
    """The points ``xs`` of the pass starting at ``low`` and
    ``powers[j, x] = x^j mod q`` over them (shared, read-only)."""
    xs = np.arange(low, min(q, low + _POINTS_PER_PASS), dtype=np.int64)
    powers = np.ones((k, len(xs)), dtype=np.int64)
    for j in range(1, k):
        powers[j] = powers[j - 1] * xs % q
    xs.flags.writeable = powers.flags.writeable = False
    return xs, powers


def _one_round(
    graph: Csr,
    colors: np.ndarray,
    params: LinialStepParameters,
    owners: np.ndarray,
) -> np.ndarray:
    """Execute one synchronous reduction round (all items in parallel).

    Whole-array form of the textbook step.  Each CSR slot joins the
    item owning its row (``owners``, :meth:`Csr.slot_owners`) to one
    neighbor and forbids the owner the points where their polynomials
    agree; the item's new color is ``(x, f(x))`` at its first free
    ``x``.  Points are tried in passes of ``_POINTS_PER_PASS``: a pass
    evaluates every polynomial on its points (a ``digits @ powers``
    product mod ``q``), marks collisions over the slots of the items
    still looking, and settles each item that has a free point.  Rows
    are gathered with ``np.take`` and collisions addressed by flat
    index, which on the small arrays of the base case costs a fraction
    of 2-D fancy indexing.  Tests cross-check the result against
    :meth:`FieldPolynomial.agreement_points` and against the 2-D form.
    """
    q, k = params.q, params.k
    n = len(colors)
    digits = _digits(colors, q, k)
    new_colors = np.empty(n, dtype=np.int64)
    looking = np.ones(n, dtype=bool)
    # The slots of the items still looking: all of them in the first pass.
    own, other = owners, graph.neighbors
    for low in range(0, q, _POINTS_PER_PASS):
        xs, powers = _pass_points(q, k, low)
        width = len(xs)
        values = digits @ powers % q
        agree = values.take(own, axis=0) == values.take(other, axis=0)
        same = agree.ravel().nonzero()[0]
        # Flat index into the (item, point) table of free points.
        free = looking.repeat(width)
        free[own[same // width] * width + same % width] = False
        free = free.reshape(n, width)
        settled = free.any(axis=1).nonzero()[0]
        first = free[settled].argmax(axis=1)
        chosen = values.ravel()[settled * width + first]
        new_colors[settled] = xs[first] * q + chosen
        looking[settled] = False
        if not looking.any():
            return new_colors
        slots = looking[own].nonzero()[0]
        own, other = own[slots], other[slots]
    item = int(np.flatnonzero(looking)[0])
    raise AlgorithmInvariantError(
        f"no evaluation point left for {graph.items[item]!r}: q={q} too "
        f"small for degree {int(graph.degrees[item])} and k={k}"
    )


def linial_reduce(
    adjacency: Mapping[Hashable, Sequence[Hashable]] | Csr,
    initial_colors: Mapping[Hashable, int] | Sequence[int],
    *,
    stop_at: int | None = None,
) -> LinialResult:
    """Iterate the reduction until the ``O(d²)`` fixpoint.

    Parameters
    ----------
    adjacency:
        Symmetric adjacency of the conflict graph (for edge coloring:
        the line graph), as a mapping or already compiled
        (:class:`~repro.graphs.index.Csr`, e.g. an
        :class:`~repro.graphs.index.EdgeIndex` or a subset of one).
    initial_colors:
        Proper coloring with non-negative integer colors — typically
        the unique IDs, giving the ``O(log* n)`` round bound.  Either a
        mapping ``item -> color``, or a sequence aligned with the ids
        of a compiled ``adjacency`` (``initial_colors[i]`` is the color
        of ``adjacency.items[i]``).
    stop_at:
        Optional early-exit palette size: stop as soon as the palette
        is at most this value.

    Returns
    -------
    LinialResult
        Final proper coloring, its palette size and the round count.
        ``colors`` has the form of ``initial_colors``: a dict for a
        mapping, a list aligned with the ids for a sequence.
    """
    graph = adjacency if isinstance(adjacency, Csr) else Csr.from_adjacency(adjacency)
    if not isinstance(initial_colors, Mapping):
        return _reduce(graph, [int(color) for color in initial_colors], stop_at)
    items = graph.items
    missing = [item for item in items if item not in initial_colors]
    if missing:
        raise InvalidInstanceError(
            f"items without initial colors: {missing[:3]!r}"
        )
    result = _reduce(graph, [int(initial_colors[item]) for item in items], stop_at)
    return dataclasses.replace(result, colors=dict(zip(items, result.colors)))


def _reduce(graph: Csr, start: list[int], stop_at: int | None) -> LinialResult:
    """:func:`linial_reduce` on ids: ``start[i]`` is item ``i``'s color."""
    items = graph.items
    if len(start) != len(items):
        raise InvalidInstanceError(
            f"{len(start)} initial colors for {len(items)} items"
        )
    if not items:
        return LinialResult(colors=[], palette_size=0, rounds=0, step_parameters=())
    if min(start) < 0:
        raise InvalidInstanceError("initial colors must be non-negative")
    if not len(graph.neighbors):
        # No conflicts at all: a single color suffices, zero rounds.
        return LinialResult(
            colors=[0] * len(items),
            palette_size=1,
            rounds=0,
            step_parameters=(),
        )
    palette_size = max(start) + 1
    # Beyond int64 the first round's digits are taken on Python ints.
    colors = np.array(start, dtype=np.int64 if palette_size < 2**62 else object)
    owners = graph.slot_owners()
    clash = (colors[owners] == colors[graph.neighbors]).nonzero()[0]
    if clash.size:
        owner = int(owners[clash[0]])
        neighbor = items[int(graph.neighbors[clash[0]])]
        raise InvalidInstanceError(
            f"items {items[owner]!r} and {neighbor!r} share color "
            f"{start[owner]}; the input coloring must be proper"
        )

    degree = int(graph.degrees.max())

    steps: list[LinialStepParameters] = []
    while True:
        if stop_at is not None and palette_size <= stop_at:
            break
        if palette_size < 2:
            break
        params = linial_step_parameters(palette_size, degree)
        if params.new_palette_size >= palette_size:
            break  # fixpoint reached; further rounds would not shrink
        colors = _one_round(graph, colors, params, owners)
        palette_size = params.new_palette_size
        steps.append(params)

    return LinialResult(
        colors=colors.tolist(),
        palette_size=palette_size,
        rounds=len(steps),
        step_parameters=tuple(steps),
    )


def linial_fixpoint_palette(degree: int) -> int:
    """Return the fixpoint palette size ``next_prime(degree + 1)²``.

    Exposed for the analysis module: this is the explicit ``O(d²)``
    the implementation converges to, used when predicting the size of
    the initial edge coloring.
    """
    if degree < 0:
        raise InvalidInstanceError(f"degree must be >= 0, got {degree}")
    if degree == 0:
        return 1
    q = next_prime(degree + 1)  # smallest prime strictly greater than degree
    return q * q
