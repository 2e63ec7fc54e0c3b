"""Tests for Cole-Vishkin chain 3-coloring, against the per-chain oracle."""

import pytest
from hypothesis import given, settings, strategies as st

import chain_coloring_oracle as oracle
from repro.errors import InvalidInstanceError
from repro.primitives.chain_coloring import (
    three_color_chain,
    three_color_chains,
)
from repro.utils.chains import Chain
from repro.utils.logstar import log_star


def _check_proper(chain: Chain, colors: dict) -> None:
    for left, right in chain.neighbor_pairs():
        assert colors[left] != colors[right], f"{left} and {right} clash"


def _alternating_ids(n: int, spread: int = 1) -> dict:
    """Proper initial coloring: distinct IDs for path/cycle items."""
    return {i: (i + 1) * spread for i in range(n)}


class TestPaths:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 10, 50, 257])
    def test_paths_of_all_lengths(self, length):
        chain = Chain(tuple(range(length)), cyclic=False)
        result = three_color_chain(chain, _alternating_ids(length))
        assert set(result.colors.values()) <= {0, 1, 2}
        _check_proper(chain, result.colors)

    def test_round_count_is_logstar_scale(self):
        length = 200
        chain = Chain(tuple(range(length)), cyclic=False)
        # Huge IDs: X = 10^18 -> still only ~log* many reduction rounds.
        ids = {i: 10**12 + i * 7919 for i in range(length)}
        result = three_color_chain(chain, ids)
        _check_proper(chain, result.colors)
        assert result.iterations <= log_star(10**13) + 3
        assert result.rounds == result.iterations + 3


class TestCycles:
    @pytest.mark.parametrize("length", [3, 4, 5, 6, 7, 12, 101])
    def test_cycles_of_all_lengths(self, length):
        chain = Chain(tuple(range(length)), cyclic=True)
        result = three_color_chain(chain, _alternating_ids(length))
        assert set(result.colors.values()) <= {0, 1, 2}
        _check_proper(chain, result.colors)

    def test_odd_cycle_needs_three_colors(self):
        chain = Chain(tuple(range(5)), cyclic=True)
        result = three_color_chain(chain, _alternating_ids(5))
        assert len(set(result.colors.values())) == 3


class TestValidation:
    def test_rejects_missing_initial_color(self):
        chain = Chain((0, 1), cyclic=False)
        with pytest.raises(InvalidInstanceError):
            three_color_chain(chain, {0: 1})

    def test_rejects_improper_initial_coloring(self):
        chain = Chain((0, 1), cyclic=False)
        with pytest.raises(InvalidInstanceError):
            three_color_chain(chain, {0: 5, 1: 5})

    def test_rejects_negative_colors(self):
        chain = Chain((0, 1), cyclic=False)
        with pytest.raises(InvalidInstanceError):
            three_color_chain(chain, {0: -1, 1: 2})


class TestParallelChains:
    def test_rounds_is_max_over_chains(self):
        chains = [
            Chain(tuple(range(10)), cyclic=False),
            Chain(tuple(range(100, 103)), cyclic=True),
        ]
        ids = {i: i + 1 for i in range(10)}
        ids.update({i: i + 1 for i in range(100, 103)})
        combined, rounds = three_color_chains(chains, ids)
        singles = [three_color_chain(c, ids).rounds for c in chains]
        assert rounds == max(singles)
        for chain in chains:
            _check_proper(chain, combined)


class TestPropertyBased:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=1,
            max_size=64,
            unique=True,
        ),
        st.booleans(),
    )
    def test_any_unique_ids_yield_proper_3_coloring(self, ids, cyclic):
        if cyclic and len(ids) < 3:
            cyclic = False
        items = tuple(range(len(ids)))
        chain = Chain(items, cyclic=cyclic)
        initial = {item: ids[item] for item in items}
        # unique IDs are trivially proper along the chain
        result = three_color_chain(chain, initial)
        assert set(result.colors.values()) <= {0, 1, 2}
        _check_proper(chain, result.colors)


@st.composite
def chain_sets(draw):
    """Disjoint paths, cycles and singletons with colors up to 2^70.

    Colors are drawn per item without a properness guarantee, so small
    bounds also produce improper and missing-color inputs.
    """
    chains, start = [], 0
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        cyclic = draw(st.booleans())
        length = draw(
            st.integers(min_value=3 if cyclic else 1, max_value=12)
        )
        chains.append(Chain(tuple(range(start, start + length)), cyclic=cyclic))
        start += length
    bound = draw(st.sampled_from([6, 64, 10**6, 2**62, 2**70]))
    colors = {
        item: draw(st.integers(min_value=-1 if bound == 6 else 0, max_value=bound))
        for item in range(start)
    }
    if start and draw(st.booleans()) and bound == 64:
        del colors[draw(st.integers(min_value=0, max_value=start - 1))]
    return chains, colors


def _outcome(color, chains, colors):
    try:
        return color(chains, colors)
    except Exception as error:  # noqa: BLE001 - compared by type
        return type(error)


class TestOracle:
    @settings(deadline=None, max_examples=300)
    @given(chain_sets())
    def test_whole_array_pass_matches_per_chain_oracle(self, drawn):
        chains, colors = drawn
        expected = _outcome(oracle.three_color_chains, chains, colors)
        assert _outcome(three_color_chains, chains, colors) == expected

    @pytest.mark.parametrize(
        "colors",
        [{0: 7}, {0: -1, 1: 2, 2: 9}, {0: 3, 1: 3, 2: 9}, {0: 3, 1: 5, 2: 3}],
        ids=["missing", "negative", "improper", "improper-wrap"],
    )
    def test_errors_match_the_oracle(self, colors):
        chain = Chain((0, 1, 2), cyclic=True)
        with pytest.raises(InvalidInstanceError):
            oracle.three_color_chain(chain, colors)
        with pytest.raises(InvalidInstanceError):
            three_color_chain(chain, colors)

    def test_each_chain_stops_at_its_own_fixpoint(self):
        # The first chain is inside {0..5} already and must keep its
        # colors through the reduction rounds of the second.
        chains = [Chain((0, 1, 2), cyclic=False), Chain((3, 4, 5), cyclic=True)]
        colors = {0: 1, 1: 2, 2: 1, 3: 2**63, 4: 2**64 + 1, 5: 40}
        combined, rounds = three_color_chains(chains, colors)
        assert (combined, rounds) == oracle.three_color_chains(chains, colors)
        assert [combined[i] for i in (0, 1, 2)] == [1, 2, 1]
        assert rounds > 3
