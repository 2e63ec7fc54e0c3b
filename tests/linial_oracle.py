"""The 2-D Linial round: the oracle for :func:`repro.primitives.linial._one_round`.

The library gathers polynomial values with ``np.take`` and marks
collisions by flat index.  This is the round it replaced: the same
passes of evaluation points, on 2-D fancy indexing and a 2-D
``np.nonzero``.  ``test_primitives_linial_oracle.py`` checks that both
sides agree round by round, and over a whole reduction, in colors,
palette sizes and round counts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmInvariantError
from repro.graphs.index import Csr
from repro.primitives.linial import (
    _POINTS_PER_PASS,
    LinialStepParameters,
    linial_step_parameters,
)


def _digits(colors: np.ndarray, q: int, k: int) -> np.ndarray:
    """Row ``i``: the ``k`` base-``q`` digits of color ``i``, one
    digit position at a time."""
    digits = np.empty((len(colors), k), dtype=np.int64)
    rest = colors
    for j in range(k):
        digits[:, j] = rest % q
        rest = rest // q
    return digits


def one_round(
    graph: Csr, colors: np.ndarray, params: LinialStepParameters
) -> np.ndarray:
    """One synchronous reduction round, on 2-D fancy indexing."""
    q, k = params.q, params.k
    digits = _digits(colors, q, k)
    owners = graph.slot_owners()
    new_colors = np.empty(len(colors), dtype=np.int64)
    looking = np.ones(len(colors), dtype=bool)
    for low in range(0, q, _POINTS_PER_PASS):
        xs = np.arange(low, min(q, low + _POINTS_PER_PASS), dtype=np.int64)
        powers = np.ones((k, len(xs)), dtype=np.int64)
        for j in range(1, k):
            powers[j] = powers[j - 1] * xs % q
        values = digits @ powers % q
        slots = np.flatnonzero(looking[owners])
        own, other = owners[slots], graph.neighbors[slots]
        hits, points = np.nonzero(values[own] == values[other])
        free = np.ones(values.shape, dtype=bool)
        free[own[hits], points] = False
        free &= looking[:, None]
        settled = np.flatnonzero(free.any(axis=1))
        first = free[settled].argmax(axis=1)
        new_colors[settled] = xs[first] * q + values[settled, first]
        looking[settled] = False
        if not looking.any():
            return new_colors
    item = int(np.flatnonzero(looking)[0])
    raise AlgorithmInvariantError(
        f"no evaluation point left for {graph.items[item]!r}: q={q} too "
        f"small for degree {int(graph.degrees[item])} and k={k}"
    )


def reduce(graph: Csr, start: list[int]) -> tuple[list[int], int, int]:
    """Iterate :func:`one_round` to the fixpoint.

    ``start`` is a proper coloring aligned with the ids of ``graph``,
    which has at least one conflict.  Returns ``(colors, palette_size,
    rounds)``.
    """
    palette_size = max(start) + 1
    colors = np.array(start, dtype=np.int64 if palette_size < 2**62 else object)
    degree = int(graph.degrees.max())
    rounds = 0
    while palette_size >= 2:
        params = linial_step_parameters(palette_size, degree)
        if params.new_palette_size >= palette_size:
            break
        colors = one_round(graph, colors, params)
        palette_size = params.new_palette_size
        rounds += 1
    return colors.tolist(), palette_size, rounds
