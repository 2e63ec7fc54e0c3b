"""Synchronous LOCAL-model simulator.

The paper's computational model (Section 2.2) is the standard LOCAL
model: a synchronous message-passing network where, per round, every
node may exchange one unbounded message with each neighbor and perform
arbitrary local computation.  This package implements that model
directly:

* :class:`repro.model.network.Network` — the communication graph with
  unique IDs and port numbering;
* :class:`repro.model.algorithm.NodeAlgorithm` — the programming
  interface a distributed algorithm implements (init / send / receive /
  halt / output);
* :class:`repro.model.scheduler.Scheduler` — the synchronous round
  loop, with round and message accounting and a round budget.  It has
  one backend, the *columnar round engine*: delivery runs over the
  flat CSR columns the network compiles at construction (dense node
  indices, receiver / destination-slot columns, cached ``n``/``Δ``),
  uniform broadcasts collapse into a per-sender column, inboxes
  materialise from contiguous buffer slices, and the flat buffers pool
  in a :class:`repro.model.scheduler.RoundArena` that sweeps share
  across cells (:func:`repro.model.scheduler.shared_arena`);
* :func:`repro.model.reference.reference_run` — the original seed loop
  kept as the slow oracle; equivalence tests pin the fast path to it
  bit-for-bit (``rounds``, ``messages_sent``, ``outputs``);
* :mod:`repro.model.edge_network` — adapter to run node algorithms on
  the *line graph*, which is how the edge coloring subroutines execute
  (one line-graph round costs O(1) rounds of the underlying graph,
  since both endpoints of an edge can relay for it).

The Linial color reduction step ships in two equivalent forms: a
message-passing :class:`NodeAlgorithm` that runs on this simulator, and
a faster functional form used inside the recursive solver.  Tests
cross-validate the two forms round-for-round on shared instances.  The
scenario programs (:mod:`repro.scenarios.programs`) run it, and a class
sweep after it, as the ``linial_greedy`` message-passing pipeline.
"""

from repro.model.algorithm import NodeAlgorithm, NodeContext
from repro.model.message import Message
from repro.model.network import Network
from repro.model.reference import reference_run
from repro.model.scheduler import (
    ExecutionResult,
    RoundArena,
    Scheduler,
    shared_arena,
)
from repro.model.edge_network import line_graph_network

__all__ = [
    "NodeAlgorithm",
    "NodeContext",
    "Message",
    "Network",
    "ExecutionResult",
    "RoundArena",
    "Scheduler",
    "line_graph_network",
    "reference_run",
    "shared_arena",
]
