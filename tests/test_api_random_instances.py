"""Every registered algorithm on small random instances, through ``run``.

A differential property check over drawn ``(family, size, seed)``
triples: each algorithm's result must pass the executor's own
validation (a proper edge coloring inside the declared palette), and
the paper solver's reported rounds must equal its ``RoundLedger``
total — the ledger is the round accounting, not a side estimate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import InstanceSpec, RunSpec, run
from repro.api.registry import algorithm_names


@settings(deadline=None, max_examples=25)
@given(
    family=st.sampled_from(["random_regular", "complete_bipartite"]),
    size=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_every_algorithm_validates_on_small_random_instances(family, size, seed):
    instance = InstanceSpec(family=family, size=size, seed=seed)
    for algorithm in algorithm_names():
        result = run(
            RunSpec(instance=instance, algorithm=algorithm),
            cache=False,
        )
        assert not result.is_failure(), (algorithm, instance.label())
        if algorithm == "bko20":
            assert result.ledger is not None
            assert result.rounds == result.ledger.total_rounds()
