"""Tests for the round-accounting ledger."""

import pytest

from repro.core.ledger import LedgerEntry, RoundLedger


class TestCharges:
    def test_flat_charges_add(self):
        ledger = RoundLedger()
        ledger.charge("a", 3)
        ledger.charge("b", 4)
        assert ledger.total_rounds() == 7

    def test_negative_charge_rejected(self):
        ledger = RoundLedger()
        with pytest.raises(ValueError):
            ledger.charge("bad", -1)

    def test_zero_charge_allowed(self):
        ledger = RoundLedger()
        ledger.charge("free", 0)
        assert ledger.total_rounds() == 0


class TestComposition:
    def test_sequential_adds(self):
        ledger = RoundLedger()
        with ledger.sequential("stage"):
            ledger.charge("a", 2)
            ledger.charge("b", 3)
        assert ledger.total_rounds() == 5

    def test_parallel_takes_max(self):
        ledger = RoundLedger()
        with ledger.parallel("instances"):
            ledger.charge("fast", 2)
            ledger.charge("slow", 9)
        assert ledger.total_rounds() == 9

    def test_paper_style_nesting(self):
        """The docstring example: 5 + (7 + max(3, 9)) = 21."""
        ledger = RoundLedger()
        ledger.charge("initial coloring", 5)
        with ledger.sequential("Lemma 4.2"):
            ledger.charge("defective coloring", 7)
            with ledger.parallel("subspaces"):
                with ledger.sequential("subspace 0"):
                    ledger.charge("greedy", 3)
                with ledger.sequential("subspace 1"):
                    ledger.charge("greedy", 9)
        assert ledger.total_rounds() == 21

    def test_empty_parallel_is_zero(self):
        ledger = RoundLedger()
        with ledger.parallel("nothing"):
            pass
        assert ledger.total_rounds() == 0

    def test_cursor_restored_after_exception(self):
        ledger = RoundLedger()
        with pytest.raises(RuntimeError):
            with ledger.sequential("oops"):
                raise RuntimeError("boom")
        ledger.charge("after", 2)
        assert ledger.total_rounds() == 2

    def test_parallel_cursor_restored_after_exception(self):
        ledger = RoundLedger()
        with pytest.raises(RuntimeError):
            with ledger.parallel("oops"):
                ledger.charge("inside", 5)
                raise RuntimeError("boom")
        ledger.charge("after", 2)
        assert [child.label for child in ledger.root.children] == ["oops", "after"]
        assert ledger.total_rounds() == 7

    def test_block_opens_on_enter(self):
        ledger = RoundLedger()
        block = ledger.sequential("late")
        ledger.charge("first", 1)
        with block:
            ledger.charge("inner", 2)
        assert [child.label for child in ledger.root.children] == ["first", "late"]
        assert ledger.root.children[1].children[0].label == "inner"


class TestFreeze:
    @pytest.mark.parametrize("block", ["sequential", "parallel"])
    def test_frozen_ledger_refuses_blocks(self, block):
        ledger = RoundLedger()
        with ledger.sequential("stage"):
            ledger.charge("a", 2)
        ledger.freeze()
        with pytest.raises(TypeError):
            getattr(ledger, block)("more")
        assert ledger.total_rounds() == 2
        assert isinstance(ledger.root.children, tuple)


class TestCounters:
    def test_bump_and_read(self):
        ledger = RoundLedger()
        ledger.bump("fallbacks")
        ledger.bump("fallbacks", 2)
        assert ledger.counter("fallbacks") == 3
        assert ledger.counter("unknown") == 0

    def test_record_max(self):
        ledger = RoundLedger()
        ledger.record_max("depth", 3)
        ledger.record_max("depth", 1)
        assert ledger.counter("depth") == 3

    def test_counters_snapshot(self):
        ledger = RoundLedger()
        ledger.bump("x")
        snapshot = ledger.counters()
        ledger.bump("x")
        assert snapshot == {"x": 1}


class TestReporting:
    def test_breakdown_contains_labels(self):
        ledger = RoundLedger()
        with ledger.sequential("Lemma 4.2"):
            ledger.charge("defective", 7)
        text = ledger.breakdown()
        assert "Lemma 4.2" in text and "defective" in text

    def test_breakdown_depth_limit(self):
        ledger = RoundLedger()
        with ledger.sequential("outer"):
            with ledger.sequential("inner"):
                ledger.charge("leaf", 1)
        shallow = ledger.breakdown(max_depth=1)
        assert "leaf" not in shallow

    def test_entry_totals(self):
        entry = LedgerEntry(label="p", mode="par", children=[
            LedgerEntry(label="a", mode="leaf", rounds=4),
            LedgerEntry(label="b", mode="leaf", rounds=6),
        ])
        assert entry.total() == 6
