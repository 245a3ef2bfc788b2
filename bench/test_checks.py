"""Self-test of the benchmark's checker: each way a call can fail is counted.

    python3 -m pytest -q bench/test_checks.py      (or: python3 bench/test_checks.py)
"""

import math
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from isotorus.numerics import BoundNotAchieved, CertifiedValue, NumericsError  # noqa: E402
from isotorus.solver import InverseResult  # noqa: E402

from checks import check_interval, check_inversion, check_property  # noqa: E402

DECLARED = (NumericsError,)
REF = "0.928188988671908108744729653015"   # Iso(0.3) at 30 digits
ROOT = "0.409999999999999589399919841526"
TOL = 1e-10


class CheckerTest(unittest.TestCase):
    def test_value_inside_its_interval_passes(self):
        v = float(Fraction(REF))
        verdict = check_interval(CertifiedValue(v, 1e-15), REF, DECLARED)
        self.assertFalse(verdict.failed)

    def test_value_moved_just_outside_its_interval_fails(self):
        bound = 1e-12

        def misses(v):
            return Fraction(v) - Fraction(bound) > Fraction(REF)

        # the last float whose interval still reaches REF, and the next one up
        v = float(Fraction(REF) + Fraction(bound))
        while misses(v):
            v = math.nextafter(v, -math.inf)
        while not misses(math.nextafter(v, math.inf)):
            v = math.nextafter(v, math.inf)
        self.assertFalse(check_interval(CertifiedValue(v, bound), REF, DECLARED).failed)
        verdict = check_interval(CertifiedValue(math.nextafter(v, math.inf), bound), REF, DECLARED)
        self.assertTrue(verdict.failed)
        self.assertTrue(verdict.wrong)

    def test_flagged_result_fails_but_is_not_wrong(self):
        v = float(Fraction(REF))
        verdict = check_interval(CertifiedValue(v, 1e-9, "bound_not_achieved"), REF, DECLARED)
        self.assertTrue(verdict.failed)
        self.assertFalse(verdict.wrong)

    def test_raised_bound_not_achieved_fails_but_is_not_wrong(self):
        verdict = check_interval(BoundNotAchieved("x too close to 1"), REF, DECLARED)
        self.assertTrue(verdict.failed)
        self.assertFalse(verdict.wrong)

    def test_undeclared_exception_is_wrong(self):
        verdict = check_interval(ZeroDivisionError(), REF, DECLARED)
        self.assertTrue(verdict.failed)
        self.assertTrue(verdict.wrong)

    def test_inversion_within_tolerance_passes(self):
        z = float(Fraction(ROOT))
        verdict = check_inversion(InverseResult(0.9997, z, 1e-12, 32), ROOT, TOL, DECLARED)
        self.assertFalse(verdict.failed)

    def test_inversion_moved_by_two_tolerances_fails(self):
        z = float(Fraction(ROOT)) + 2 * TOL
        verdict = check_inversion(InverseResult(0.9997, z, 1e-12, 32), ROOT, TOL, DECLARED)
        self.assertTrue(verdict.failed)
        self.assertTrue(verdict.wrong)

    def test_flagged_inversion_fails(self):
        z = float(Fraction(ROOT))
        result = InverseResult(0.9997, z, 1e-7, 32, "precision_exhausted")
        self.assertTrue(check_inversion(result, ROOT, TOL, DECLARED).failed)

    def test_raised_inversion_fails(self):
        self.assertTrue(check_inversion(BoundNotAchieved("no"), ROOT, TOL, DECLARED).failed)

    def test_broken_property_is_wrong(self):
        verdict = check_property(3, lambda n: "" if n == 2 else "expected 2", DECLARED)
        self.assertTrue(verdict.failed and verdict.wrong)
        self.assertFalse(check_property(2, lambda n: "" if n == 2 else "expected 2").failed)


if __name__ == "__main__":
    unittest.main()
