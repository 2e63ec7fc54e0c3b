"""Tests for palettes and the Lemma 4.3 palette splitting."""

import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParameterError
from repro.coloring.palette import Palette, split_palette


class TestPalette:
    def test_of_size_starts_at_one(self):
        assert list(Palette.of_size(4)) == [1, 2, 3, 4]

    def test_membership_and_len(self):
        palette = Palette.of_size(5)
        assert 3 in palette and 6 not in palette
        assert len(palette) == 5

    def test_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            Palette((1, 1, 2))

    def test_restrict_preserves_order(self):
        palette = Palette((5, 3, 9, 1))
        assert Palette((5, 3, 9, 1)).restrict([9, 5]).colors == (5, 9)

    def test_empty_palette(self):
        assert len(Palette.of_size(0)) == 0

    def test_cached_set_leaves_value_semantics_alone(self):
        # The membership set is built once, outside repr, == and hash.
        palette = Palette((3, 1, 2))
        assert repr(palette) == "Palette(colors=(3, 1, 2))"
        assert palette == Palette((3, 1, 2)) and palette != Palette((1, 2, 3))
        assert hash(palette) == hash(((3, 1, 2),))
        assert palette.as_set is palette.as_set == frozenset({1, 2, 3})
        assert pickle.loads(pickle.dumps(palette)) == palette


class TestSplitPalette:
    def test_paper_figure5_partition(self):
        """Figure 5: C = 20, p = 4 -> four contiguous blocks of 5."""
        blocks = split_palette(Palette.of_size(20), 4)
        assert [list(b) for b in blocks] == [
            [1, 2, 3, 4, 5],
            [6, 7, 8, 9, 10],
            [11, 12, 13, 14, 15],
            [16, 17, 18, 19, 20],
        ]

    def test_uneven_split(self):
        blocks = split_palette(Palette.of_size(10), 3)
        assert [len(b) for b in blocks] == [3, 3, 3, 1]

    def test_rejects_p_larger_than_palette(self):
        with pytest.raises(ParameterError):
            split_palette(Palette.of_size(3), 4)

    def test_empty_palette_gives_no_blocks(self):
        assert split_palette(Palette.of_size(0), 1) == []

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=40),
    )
    def test_lemma43_partition_invariants(self, size, p):
        """q <= 2p blocks, block size <= ceil(C/p), exact partition."""
        if p > size:
            return
        palette = Palette.of_size(size)
        blocks = split_palette(palette, p)
        assert len(blocks) <= 2 * p
        assert all(len(b) <= math.ceil(size / p) for b in blocks)
        combined = [c for b in blocks for c in b]
        assert combined == list(palette)
