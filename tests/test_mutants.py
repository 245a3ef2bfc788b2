"""The solver's mutation gate, ``tools/mutants.py``, stays in step with the
solver: a stale edit would make the gate refuse to run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _gate():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_edits_the_solver_exactly_once():
    gate = _gate()
    source = (ROOT / gate.TARGET).read_text()
    names = [name for name, _, _ in gate.MUTANTS]
    assert len(set(names)) == len(names) == 10
    for name, old, new in gate.MUTANTS:
        assert source.count(old) == 1 and old != new, name
