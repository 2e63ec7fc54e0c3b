"""The node-local validators agree with the line-graph oracle.

:mod:`repro.coloring.verify` counts colors per node; ``verify_oracle``
compares adjacent edges over an :class:`~repro.graphs.index.EdgeIndex`.
On random colorings — improper, partial, with keys in the wrong
orientation and with edges the graph lacks — both must accept or
reject alike and report the same defects.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

import verify_oracle as oracle
from repro.coloring import verify
from repro.errors import ColoringValidationError
from repro.graphs.edges import edge_set


def _grid_label(index: int) -> tuple[int, int]:
    return (index // 4, index % 4)


@st.composite
def colored_graphs(draw):
    """A small graph and a random (often invalid) coloring of it.

    Integer labels up to 12 make ``repr`` order differ from numeric
    order; tuple labels are what grid instances carry.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    label = draw(st.sampled_from([int, _grid_label]))
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=30,
        )
    )
    graph = nx.Graph()
    graph.add_nodes_from(label(i) for i in range(n))
    graph.add_edges_from((label(u), label(v)) for u, v in pairs)

    colors = st.integers(min_value=1, max_value=draw(st.integers(1, 6)))
    coloring = {}
    for u, v in edge_set(graph):
        kept = draw(st.sampled_from(["canonical", "canonical", "flipped", "absent"]))
        if kept == "canonical":
            coloring[u, v] = draw(colors)
        elif kept == "flipped":
            coloring[v, u] = draw(colors)
    foreign = draw(
        st.lists(
            st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=2,
        )
    )
    for u, v in foreign:
        if not graph.has_edge(label(u), label(v)):
            coloring[label(u), label(v)] = draw(colors)
    return graph, coloring


def _outcome(check, *args, **kwargs) -> str | None:
    try:
        check(*args, **kwargs)
    except ColoringValidationError as error:
        return str(error)
    return None


@settings(max_examples=300, deadline=None)
@given(colored_graphs(), st.booleans())
def test_properness_verdicts_agree(case, require_total):
    graph, coloring = case
    ours = _outcome(
        verify.check_proper_edge_coloring, graph, coloring,
        require_total=require_total,
    )
    theirs = _outcome(
        oracle.check_proper_edge_coloring, graph, coloring,
        require_total=require_total,
    )
    assert (ours is None) == (theirs is None), (ours, theirs)


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
def test_defect_counts_agree(case):
    graph, coloring = case
    assert verify.measure_defects(graph, coloring) == oracle.measure_defects(
        graph, coloring
    )


@settings(max_examples=300, deadline=None)
@given(colored_graphs(), st.integers(1, 4), st.sampled_from([None, 2, 4]))
def test_defective_verdicts_agree(case, beta, color_bound):
    graph, coloring = case
    args = (graph, coloring, lambda degree: degree / (2 * beta))
    # Same verdict and the same message: both report the first
    # offending edge in edge order.
    assert _outcome(
        verify.check_defective_coloring, *args, color_bound=color_bound
    ) == _outcome(oracle.check_defective_coloring, *args, color_bound=color_bound)

