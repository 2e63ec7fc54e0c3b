"""Primitive distributed subroutines the paper builds on.

These are the procedures whose round costs appear as the additive and
multiplicative terms of the paper's bounds:

* :mod:`repro.primitives.chain_coloring` — Cole-Vishkin style
  3-coloring of paths/cycles in ``O(log* X)`` rounds, used inside the
  defective edge coloring of Section 4.1;
* :mod:`repro.primitives.linial` — Linial-style color reduction to an
  ``O(d²)`` palette in ``O(log* X)`` rounds via polynomials over
  ``GF(q)``; running it on the line graph yields the initial
  ``O(Δ̄²)``-edge coloring of Section 4.3;
* :mod:`repro.primitives.greedy_class` — the greedy sweep over the
  classes of a proper coloring (edges of one class are non-adjacent and
  can pick colors simultaneously), the universal base case;
* :mod:`repro.primitives.color_reduction` — trivial one-color-per-round
  reduction and the Kuhn-Wattenhofer parallel reduction (the
  ``O(Δ log Δ + log* n)`` baseline of [SV93, KW06]);
* :mod:`repro.primitives.defective` — the ``deg(e)/(2β)``-defective
  ``O(β²)``-edge coloring of Section 4.1.

Each functional primitive returns its result together with the number
of LOCAL rounds it needs; the solver charges those rounds to its
ledger without sending a message.  Linial's reduction also runs as a
message-passing program (:mod:`repro.primitives.node_algorithms`),
cross-validated against the functional form by the test suite; the
``linial_greedy`` scenario program (:mod:`repro.scenarios.programs`)
runs it with a class sweep after it on the simulator.
"""

from repro.primitives.chain_coloring import ChainColoringResult, three_color_chain
from repro.primitives.linial import LinialResult, linial_reduce, linial_step_parameters
from repro.primitives.greedy_class import GreedyClassResult, greedy_by_classes
from repro.primitives.color_reduction import (
    ReductionResult,
    kuhn_wattenhofer_reduction,
    one_color_per_round_reduction,
)
from repro.primitives.defective import DefectiveColoringResult, defective_edge_coloring

__all__ = [
    "ChainColoringResult",
    "three_color_chain",
    "LinialResult",
    "linial_reduce",
    "linial_step_parameters",
    "GreedyClassResult",
    "greedy_by_classes",
    "ReductionResult",
    "kuhn_wattenhofer_reduction",
    "one_color_per_round_reduction",
    "DefectiveColoringResult",
    "defective_edge_coloring",
]
