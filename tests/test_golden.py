"""The golden corpus: committed result fingerprints must not move.

``tests/golden/corpus.json`` holds the result fingerprint of every case
in ``tests/golden/generate.py`` (the paper solver under four policies,
every baseline, every scenario program under three adversaries, on
int-, and tuple-labelled graphs).  Paper-solver rows also hold the
``RoundLedger`` total, the deferral count and a hash of the whole
ledger tree.  A refactor is behaviour-preserving only if every case
still produces the byte-identical result and ledger.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.api import RunSpec

GOLDEN = Path(__file__).with_name("golden")


def _generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate", GOLDEN / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATE = _generator()
CORPUS = json.loads((GOLDEN / "corpus.json").read_text())


def test_corpus_covers_every_case():
    cases = GENERATE.cases()
    assert sorted(cases) == sorted(CORPUS)
    for case, spec in cases.items():
        assert spec.to_dict() == CORPUS[case]["spec"], case


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_result_is_byte_identical(case):
    row = dict(CORPUS[case])
    spec = RunSpec.from_dict(row.pop("spec"))
    assert GENERATE.outcome(spec) == row
