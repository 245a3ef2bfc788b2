#!/usr/bin/env python3
"""Mutation gate for the solver: every decision rule must be caught by a test
that is not a bit pin.

Each mutant is one literal edit of ``src/isotorus/solver.py``.  The script
copies ``src/`` and ``tests/`` into a temporary directory, applies the edit
there, and runs ``pytest -m "not pinned" tests/test_solver.py`` against that
copy.  A mutant is caught when some test fails or errors.  The unmutated copy
runs first and must pass.  The working tree is never edited.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones
    python3 tools/mutants.py --list

It prints one JSON line per mutant, {"mutant", "caught", "failed", "seconds"},
and exits 0 when every mutant was caught, 1 when one survived, and 2 when the
unmutated tests fail or an edit no longer matches the solver exactly once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/isotorus/solver.py")
TESTS = ["tests/test_solver.py"]
TIMEOUT_S = 600

# (name, old, new): ``old`` must occur exactly once in the solver
MUTANTS = [
    # the model's z returned as the root, with no straddle
    ("model-z-unstraddled",
     "        candidate = math.sqrt(model[0])\n",
     "        return InverseResult(rho, math.sqrt(model[0]), 0.0, 0)\n"),
    # the straddle's sides swapped, in its point choice and in its test
    ("straddle-point-sides-swapped",
     "z = candidate - half if lo < candidate - half else candidate + half",
     "z = candidate + half if lo < candidate - half else candidate - half"),
    ("straddle-test-sides-swapped",
     "lo >= candidate - half and hi <= candidate + half",
     "lo >= candidate + half and hi <= candidate - half"),
    ("straddle-test-strict",
     "and hi <= candidate + half:",
     "and hi < candidate + half:"),
    # a straddle interval holding rho at the ordinary target is not retried
    ("sharp-retry-dropped",
     "                if v - b <= rho <= v + b:\n                    v, b = _iso_pair(z, _SHARP)\n",
     ""),
    ("sharp-first-dropped",
     "sharp = target > _SHARP and rate * half < ordinary",
     "sharp = False"),
    # the panels' stated error without the nodes' own bounds
    ("node-bounds-dropped",
     "4.0 * last + noise,",
     "4.0 * last,"),
    # a panel's g range ends one node short
    ("panel-range-off-by-one",
     "if nodes[-1][0] <= gap <= nodes[0][0]:",
     "if nodes[-2][0] <= gap <= nodes[0][0]:"),
    # the sharp-first rule, seeded by the model, goes sharp where it should not
    ("seeded-rule-flipped",
     "rate * half < ordinary",
     "rate * half > ordinary"),
    # the model's candidate leaves the rule with z = 0's bound and the chord
    ("seed-dropped",
     "        slope, ordinary = 4.0 * gap * candidate / model[2], 0.25 * target\n",
     "        pass\n"),
]


def _copy(dest: Path):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(copy: Path) -> tuple:
    """(failed test ids, seconds) of the solver's unpinned tests in ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "-m", "not pinned", *TESTS],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"timeout after {TIMEOUT_S} s"], time.perf_counter() - start
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode != 0 and not failed:
        failed = [f"pytest exit {done.returncode}"]
    return failed, time.perf_counter() - start


def _imports_the_copy(copy: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", "import isotorus; print(isotorus.__file__)"],
                          cwd=copy, env=env, capture_output=True, text=True, check=True)
    return Path(done.stdout.strip()).resolve().is_relative_to(copy.resolve())


def main(argv: list) -> int:
    if argv == ["--list"]:
        print("\n".join(name for name, _, _ in MUTANTS))
        return 0
    unknown = set(argv) - {name for name, _, _ in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    source = (ROOT / TARGET).read_text()
    stale = [name for name, old, _ in MUTANTS if source.count(old) != 1]
    if stale:
        print(f"edits that do not match {TARGET} exactly once: {stale}", file=sys.stderr)
        return 2
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        if not _imports_the_copy(copy):
            print("the copy's isotorus is not the one imported", file=sys.stderr)
            return 2
        failed, _ = _run(copy)
        if failed:
            print(f"the unmutated tests fail: {failed}", file=sys.stderr)
            return 2
        for name, old, new in MUTANTS:
            if argv and name not in argv:
                continue
            (copy / TARGET).write_text(source.replace(old, new))
            failed, seconds = _run(copy)
            survived += not failed
            print(json.dumps({"mutant": name, "caught": bool(failed), "failed": failed,
                              "seconds": round(seconds, 1)}), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
