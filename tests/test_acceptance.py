"""End-to-end acceptance suite.

One test per release criterion, each with its stated tolerance and a hard
runtime ceiling, printing a single pass/fail line.  Oracles are exact-rational
partial sums with the same tail majorants the evaluator uses, so every
enclosure asserted here is rigorous by construction.
"""

import math
import time
from fractions import Fraction

from isotorus import identities as ident
from isotorus import numerics as num
from isotorus import solver
from isotorus.contiguity import A, B, C, X, Reduction
from isotorus.series import perturbed, rat

FOUR_OVER_PI = 4.0 / math.pi
THIRTYTWO_OVER_3PI = 32.0 / (3.0 * math.pi)


def term_ratio(spec, n):
    """Exact ratio t_{n+1}/t_n of consecutive Gauss-series coefficients."""
    return (spec.a + n) * (spec.b + n) / ((spec.c + n) * (n + 1))


class _Timer:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{self.label}: {verdict} ({elapsed:.2f}s, limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label} exceeded {self.limit}s ({elapsed:.2f}s)"


def exact_family_enclosure(spec, x_rat, terms):
    """Rigorous rational enclosure [S, S + tail] of the nonnegative-term
    family series at rational x in [0, 1]."""
    sigma = spec.c - spec.a - spec.b
    s = rat(1)
    t = rat(1)
    x = rat(x_rat.numerator, x_rat.denominator) if isinstance(x_rat, Fraction) else rat(x_rat)
    for n in range(terms):
        t = t * term_ratio(spec, n) * x
        s = s + t
    t_next = t * term_ratio(spec, terms) * x
    tail = t_next * (terms + sigma - 1) / (sigma - 1)
    if x < 1:
        tail = min(tail, t_next / (1 - x))
    return s, s + tail


def test_criterion_01_golden_coefficients():
    with _Timer("criterion-01 golden-coefficients", 1.0):
        ab = ident.expand_abar(5)
        vb = ident.expand_vbar(5)
        assert ab.coefficients == (
            rat(4), rat(52), rat(477), rat(3809), rat(451625, 16), rat(3195333, 16))
        assert vb.coefficients == (
            rat(2), rat(48), rat(1269, 2), rat(6600), rat(1928025, 32), rat(2026101, 4))


def test_criterion_02_ode_residuals():
    with _Timer("criterion-02 ode-residuals", 5.0):
        # proved for every order by pullback, labelled with the order; the
        # operators' solutions, supplied, pass the residual check through it
        report = ident.verify_odes(order=64)
        assert report.verified and report.certificate == "all-orders"
        assert report.verified_order == 64
        supplied = ident.verify_odes(64, abar=ident.expand_abar(64), vbar=ident.expand_vbar(64))
        assert supplied.verified and supplied.certificate == "through-order"
        assert supplied.verified_order == 62


def test_criterion_03_f_coefficients():
    with _Timer("criterion-03 f-coefficients", 10.0):
        f = ident.expand_f(200)
        assert f.coefficients[0] == 72
        assert f.coefficients[1] == 1932
        report = ident.verify_f_positivity(window=200)
        assert report.verified
        # the displayed cubic coefficient 31248 is actually d_2; the report
        # carries the discrepancy rather than failing on it
        assert report.failure_detail["display_matches_d2"] is True
        assert report.failure_detail["d3_matches_display"] is False
        assert all(c > 0 for c in f.coefficients)


def test_criterion_04_gauss_endpoint_values():
    with _Timer("criterion-04 gauss-endpoints", 5.0):
        for spec, gauss in ((num.SPEC_AREA, FOUR_OVER_PI),
                            (num.SPEC_VOLUME, THIRTYTWO_OVER_3PI)):
            cv = num.eval_2f1(spec, 1.0, target=1e-10)
            assert cv.abs_error_bound <= 1e-8
            assert abs(cv.value - gauss) <= cv.abs_error_bound + 8 * num.EPS
            lo, hi = exact_family_enclosure(spec, rat(1), 4000)
            assert float(lo) - 4 * num.EPS <= gauss <= float(hi) + 4 * num.EPS
            assert float(lo) - cv.abs_error_bound <= cv.value <= float(hi) + cv.abs_error_bound


def test_criterion_05_endpoint_unity():
    with _Timer("criterion-05 endpoint-unity", 10.0):
        z_end = num.Z_MAX - 1e-6
        cv = num.iso(z_end, target=1e-12)
        assert 1.0 - 1e-3 <= cv.value <= 1.0

        # independent exact-rational enclosure of iso at the same point:
        # directed rational bracketing of the argument, exact partial sums,
        # exact tail majorants; only the final sqrt and the constant are
        # floating point, each padded
        t_ex = Fraction(z_end) ** 2
        x_ex = 4 * t_ex / (1 - t_ex) ** 2
        assert x_ex < 1
        den = 10 ** 12
        x_lo = Fraction(math.floor(x_ex * den), den)
        x_hi = x_lo + Fraction(1, den)
        f1_lo, _ = exact_family_enclosure(num.SPEC_AREA, x_lo, 600)
        _, f1_hi = exact_family_enclosure(num.SPEC_AREA, x_hi, 600)
        f2_lo, _ = exact_family_enclosure(num.SPEC_VOLUME, x_lo, 600)
        _, f2_hi = exact_family_enclosure(num.SPEC_VOLUME, x_hi, 600)
        w = (1 - t_ex) / (1 + t_ex)
        w_rat = rat(w.numerator, w.denominator)
        r_lo = f2_lo * f2_lo / (f1_hi * f1_hi * f1_hi) * w_rat ** 3
        r_hi = f2_hi * f2_hi / (f1_lo * f1_lo * f1_lo) * w_rat ** 3
        k = 9.0 * math.sqrt(2.0) / (8.0 * math.pi)
        oracle_lo = math.sqrt(float(r_lo) * k * (1.0 - 1e-14)) * (1.0 - 1e-15)
        oracle_hi = math.sqrt(float(r_hi) * k * (1.0 + 1e-14)) * (1.0 + 1e-15)
        assert oracle_lo <= cv.hi and cv.lo <= oracle_hi

        at_zero = num.iso(0.0, target=1e-13)
        assert abs(at_zero.value - num.ISO_AT_ZERO) <= 1e-12


def test_criterion_06_identity_suite_with_mutations():
    with _Timer("criterion-06 identity-suite", 60.0):
        order = 40
        reports = ident.verify_all(order=order)
        assert len(reports) == 11
        assert all(r.verified for r in reports), [
            r.identity_name for r in reports if not r.verified]
        sampled = [r for r in reports if r.parameter_samples]
        assert all(
            len(r.parameter_samples) == ident.default_sample_count(order) for r in sampled)

        # single-coefficient mutations must all fail
        assert not ident.verify_odes(order, abar=perturbed(ident.expand_abar(order), 3, 1)).verified
        assert not ident.verify_odes(order, vbar=perturbed(ident.expand_vbar(order), 3, 1)).verified

        # the reduced statements, with one lower parameter or one exponent
        # changed, must fail: c + 1 for c on the right side of cont1, and
        # c - a - b + 1 for the Euler exponent
        cont1 = [(B * X, (A + 1, B + 1, C + 1)), (-C, (A + 1, B, C + 1)), (C, (A, B, C + 1))]
        assert not ident._reduced_report("cont1_mutated", order, Reduction(A, B, C),
                                         lambda r: r.reduce(cont1), "").verified
        assert not ident._reduced_report("euler_mutated", order, Reduction(C - A, C - B, C), lambda r: r.apply_equation(
            r.hyp(C - A, C - B, C), (A, B, C), (C - A - B + 1, 0)), "").verified


def test_criterion_07_monotonicity_scans():
    with _Timer("criterion-07 monotonicity-scans", 60.0):
        grid = 10 ** 4
        iso_scan = num.scan_monotonicity("iso", grid=grid)
        assert iso_scan.violations == 0
        assert iso_scan.inconclusive <= grid // 100
        for a in (rat(1, 2), rat(3, 2)):
            w_scan = num.scan_monotonicity("w", grid=grid, a=a)
            assert w_scan.violations == 0
            assert w_scan.inconclusive <= grid // 100
            assert w_scan.passed


def test_criterion_08_convexity_scans():
    with _Timer("criterion-08 convexity-scans", 60.0):
        concave = num.scan_convexity("iso_sqrt", grid=300)
        assert concave.violations == 0 and concave.passed
        convex = num.scan_convexity("inv_iso_sqrt", grid=300)
        assert convex.violations == 0 and convex.passed
        change = num.scan_convexity("iso", grid=300)
        assert change.sign_change_detected
        assert len(change.witnesses) == 2  # one witness per sign


def test_criterion_09_inversion_round_trip():
    with _Timer("criterion-09 inversion", 30.0):
        iso0 = num.iso(0.0).value
        rhos = [iso0 + 1e-4 + (0.9999 - iso0 - 1e-4) * k / 49 for k in range(50)]
        zs = []
        for rho in rhos:
            result = solver.invert_iso(solver.InverseQuery(rho))
            back = num.iso(result.z, target=1e-12)
            assert abs(back.value - rho) <= 1e-8, (rho, result.z)
            zs.append(result.z)
        assert zs == sorted(zs)


def test_criterion_10_cross_path_agreement():
    with _Timer("criterion-10 cross-path", 30.0):
        pts = [0.38 * k / 97 for k in range(98)]
        for z in pts:
            direct = num.iso_direct(z, order=240)
            closed = num.iso(z, target=1e-12)
            assert abs(direct.value - closed.value) <= (
                direct.abs_error_bound + closed.abs_error_bound), z
        for z in (0.39, 0.4):
            direct = num.iso_direct(z, order=460)
            closed = num.iso(z, target=1e-12)
            assert abs(direct.value - closed.value) <= (
                direct.abs_error_bound + closed.abs_error_bound), z
