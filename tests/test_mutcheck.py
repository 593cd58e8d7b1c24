"""The mutation gate's rows still name text in ``src/llmize``.

A row whose text moved fails here in seconds rather than in the gate's own
run. The gate runs tier-1 on copies of the tree that hold no ``mutcheck/``,
and there this test skips, so it never counts as a kill.
"""

import importlib.util
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / "mutcheck" / "run.py"


@pytest.mark.skipif(not GATE.exists(), reason="no mutcheck/run.py in this tree")
def test_each_mutant_text_occurs_once_in_its_file():
    spec = importlib.util.spec_from_file_location("mutcheck_run", GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    assert gate.MUTANTS
    assert gate.moved_rows() == []
