"""Certified evaluation layer: hypergeometric sums with rigorous bounds,
the ratio function on both paths, its derivative, and the grid scans.

Soundness is checked against exact-rational oracles: partial sums with the
same tail majorant evaluated in exact arithmetic, so the oracle interval is
rigorous by construction.
"""

import math

import pytest

from isotorus import numerics as num
from isotorus.numerics import (
    EPS,
    ISO_AT_ZERO,
    SPEC_AREA,
    SPEC_VOLUME,
    T_MAX,
    Z_MAX,
    BoundNotAchieved,
    CertifiedValue,
    Divergent,
    DomainError,
    cv_add,
    cv_div,
    cv_exact,
    cv_mul,
    cv_pow,
    cv_sqrt,
    eval_2f1,
    eval_h,
    eval_w,
    iso,
    iso_derivative,
    iso_direct,
    iso_squared,
    scan_convexity,
    scan_monotonicity,
)
from isotorus.series import HypergeometricSpec, Rational, rat

FOUR_OVER_PI = 4.0 / math.pi
THIRTYTWO_OVER_3PI = 32.0 / (3.0 * math.pi)

FAMILY_SPECS = [
    HypergeometricSpec(-a0, -a0, c)
    for a0 in (rat(1, 2), rat(3, 2))
    for c in (rat(1), rat(2), rat(3), rat(4))
]


def exact_family_enclosure(spec, x_rat, terms):
    """Rigorous rational enclosure [S, S + tail] of 2F1 at rational x in [0,1].

    Valid for the nonnegative-term family: tail bounded by the same
    (m + sigma - 1)/(sigma - 1) majorant the evaluator uses, computed exactly.
    """
    sigma = spec.c - 2 * spec.a - 0  # c + 2*a0 since a = b = -a0
    s = rat(1)
    t = rat(1)
    for n in range(terms):
        t = t * spec.term_ratio(n) * x_rat
        s = s + t
    t_next = t * spec.term_ratio(terms) * x_rat
    tail = t_next * (terms + sigma - 1) / (sigma - 1)
    if x_rat < 1:
        tail = min(tail, t_next / (1 - x_rat))
    return s, s + tail


# -- CertifiedValue and interval helpers ---------------------------------------

def test_certified_value_endpoints():
    cv = CertifiedValue(1.0, 0.25)
    assert cv.lo == 0.75 and cv.hi == 1.25
    assert cv.disjoint_from(CertifiedValue(2.0, 0.5))
    assert not cv.disjoint_from(CertifiedValue(1.3, 0.1))


def test_interval_ops_contain_truth():
    u = CertifiedValue(2.0, 1e-12)
    v = CertifiedValue(3.0, 1e-12)
    assert abs(cv_add(u, v).value - 5.0) <= cv_add(u, v).abs_error_bound
    assert abs(cv_mul(u, v).value - 6.0) <= cv_mul(u, v).abs_error_bound
    assert abs(cv_div(u, v).value - 2.0 / 3.0) <= cv_div(u, v).abs_error_bound
    assert abs(cv_sqrt(u).value - math.sqrt(2.0)) <= cv_sqrt(u).abs_error_bound


def test_interval_ops_guard_zero():
    wide = CertifiedValue(0.5, 1.0)
    with pytest.raises(BoundNotAchieved):
        cv_div(cv_exact(1.0), wide)
    with pytest.raises(BoundNotAchieved):
        cv_pow(wide, 0.5)


def test_flags_propagate():
    flagged = CertifiedValue(1.0, 1e-3, "bound_not_achieved")
    assert cv_add(flagged, cv_exact(1.0)).flag == "bound_not_achieved"
    assert cv_mul(cv_exact(2.0), flagged).flag == "bound_not_achieved"


# -- certified 2F1 ---------------------------------------------------------------

def test_gauss_endpoint_area():
    cv = eval_2f1(SPEC_AREA, 1.0, target=1e-10)
    assert cv.flag is None
    assert cv.abs_error_bound <= 1e-8
    assert abs(cv.value - FOUR_OVER_PI) <= cv.abs_error_bound + 4 * EPS


def test_gauss_endpoint_volume():
    cv = eval_2f1(SPEC_VOLUME, 1.0, target=1e-10)
    assert cv.flag is None
    assert cv.abs_error_bound <= 1e-8
    assert abs(cv.value - THIRTYTWO_OVER_3PI) <= cv.abs_error_bound + 4 * EPS


@pytest.mark.parametrize("spec", FAMILY_SPECS)
@pytest.mark.parametrize("x_rat", [rat(1, 8), rat(1, 2), rat(7, 8), rat(1)])
def test_family_eval_within_exact_oracle(spec, x_rat):
    lo, hi = exact_family_enclosure(spec, x_rat, 600)
    cv = eval_2f1(spec, float(x_rat), target=1e-11)
    slack = cv.abs_error_bound + 8 * EPS * float(hi)
    assert float(lo) - slack <= cv.value <= float(hi) + slack


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_family_tail_majorant_exact(spec):
    # t_{n+1}/t_n <= n/(n + sigma) at x = 1, checked in exact rationals
    sigma = spec.c - spec.a - spec.b
    for n in range(1, 501):
        assert spec.term_ratio(n) <= rat(n) / (n + sigma)


def test_generic_eval_against_exact_sum():
    # alternating-sign generic triple at small x: exact partial sum converges
    # geometrically, giving a tight rational oracle
    spec = HypergeometricSpec(rat(1, 3), rat(-2, 5), rat(3, 2))
    x_rat = rat(1, 4)
    s = rat(1)
    t = rat(1)
    for n in range(120):
        t = t * spec.term_ratio(n) * x_rat
        s = s + t
    cv = eval_2f1(spec, 0.25, target=1e-12)
    assert abs(cv.value - float(s)) <= cv.abs_error_bound + 1e-13


def test_eval_2f1_domain_and_divergence():
    with pytest.raises(DomainError):
        eval_2f1(SPEC_AREA, -0.1)
    with pytest.raises(DomainError):
        eval_2f1(SPEC_AREA, 1.1)
    with pytest.raises(Divergent):
        eval_2f1(HypergeometricSpec(rat(1), rat(1), rat(1)), 1.0)


def test_generic_refuses_near_one():
    with pytest.raises(BoundNotAchieved):
        eval_2f1(HypergeometricSpec(rat(1, 3), rat(1, 5), rat(2)), 0.9995)


def test_eval_x_zero():
    cv = eval_2f1(SPEC_AREA, 0.0)
    assert cv.value == 1.0
    assert cv.abs_error_bound <= 1e-12


# -- w and h --------------------------------------------------------------------

def test_eval_w_trivial_parameters():
    assert eval_w(rat(0), 0.7) == CertifiedValue(1.0, 0.0)
    assert eval_w(rat(1), 0.3) == CertifiedValue(1.0, 0.0)


def test_eval_w_half_at_one():
    cv = eval_w(rat(1, 2), 1.0, target=1e-10)
    want = FOUR_OVER_PI / math.sqrt(2.0)
    assert abs(cv.value - want) <= cv.abs_error_bound + 4 * EPS


def test_eval_w_domain():
    with pytest.raises(DomainError):
        eval_w(rat(1, 2), -0.5)


def test_eval_h_endpoints():
    # h(0) = 1; h(1) = (32/3pi)^2 / (4/pi)^3 / 2^(3/2)
    cv0 = eval_h(0.0)
    assert abs(cv0.value - 1.0) <= cv0.abs_error_bound + 4 * EPS
    cv1 = eval_h(1.0)
    want = THIRTYTWO_OVER_3PI ** 2 / FOUR_OVER_PI ** 3 / 2.0 ** 1.5
    assert abs(cv1.value - want) <= cv1.abs_error_bound + 8 * EPS


# -- the ratio function -----------------------------------------------------------

def test_iso_at_zero():
    cv = iso(0.0)
    assert abs(cv.value - ISO_AT_ZERO) <= cv.abs_error_bound + 4 * EPS * ISO_AT_ZERO


def test_iso_domain():
    with pytest.raises(DomainError):
        iso(-1e-9)
    with pytest.raises(DomainError):
        iso(Z_MAX)
    with pytest.raises(DomainError):
        num._iso_from_t(T_MAX)


@pytest.mark.parametrize("target", [0.0, -1e-10, math.nan, math.inf])
def test_nonpositive_or_nonfinite_target_rejected(target):
    with pytest.raises(DomainError):
        eval_2f1(SPEC_AREA, 0.5, target=target)
    for fn in (iso, iso_squared, iso_derivative):
        for z in (0.0, 0.2):
            with pytest.raises(DomainError):
                fn(z, target=target)


def test_iso_squared_consistent_with_iso():
    for z in (0.05, 0.2, 0.35):
        s = iso_squared(z)
        v = iso(z)
        assert abs(v.value ** 2 - s.value) <= 2 * (s.abs_error_bound + v.abs_error_bound)


def test_iso_strictly_below_one_inside():
    cv = iso(0.4, target=1e-12)
    assert cv.hi < 1.0


def test_iso_even_in_z():
    # iso depends on z only through t = z^2
    for z in (0.1, 0.3):
        a = iso(z)
        b = num._iso_from_t(z * z)
        assert abs(a.value - b.value) <= a.abs_error_bound + b.abs_error_bound + 4 * EPS


def test_iso_direct_cross_path():
    for z in (0.1, 0.2):
        d = iso_direct(z)
        c = iso(z, target=1e-12)
        assert abs(d.value - c.value) <= d.abs_error_bound + c.abs_error_bound


def test_iso_direct_needs_order_near_endpoint():
    with pytest.raises(BoundNotAchieved):
        iso_direct(0.41, order=60)


def test_target_controls_bound():
    loose = iso(0.2, target=1e-6)
    tight = iso(0.2, target=1e-12)
    assert tight.abs_error_bound < loose.abs_error_bound or loose.abs_error_bound <= 1e-12
    assert abs(loose.value - tight.value) <= loose.abs_error_bound + tight.abs_error_bound


# -- derivative --------------------------------------------------------------------

def test_derivative_zero_at_origin():
    cv = iso_derivative(0.0)
    assert cv.value == 0.0 and cv.abs_error_bound == 0.0


def test_derivative_matches_finite_differences():
    h = 1e-5
    for z in (0.05, 0.15, 0.25, 0.35):
        d = iso_derivative(z, target=1e-11)
        fd = (iso(z + h, target=1e-13).value - iso(z - h, target=1e-13).value) / (2 * h)
        assert abs(d.value - fd) <= 1e-6


def test_derivative_positive_inside():
    for z in (0.1, 0.3):
        d = iso_derivative(z)
        assert d.lo > 0.0


def test_derivative_refuses_endpoint():
    with pytest.raises(BoundNotAchieved):
        iso_derivative(Z_MAX - 1e-9)


# -- scans --------------------------------------------------------------------------

def test_scan_monotonicity_iso_smoke():
    report = scan_monotonicity("iso", grid=60)
    assert report.passed
    assert report.violations == 0
    assert report.grid_size == 60


def test_scan_monotonicity_w_directions():
    down = scan_monotonicity("w", grid=40, a=rat(1, 2))
    up = scan_monotonicity("w", grid=40, a=rat(3, 2))
    assert down.passed and up.passed
    assert down.name == "mono-w[1/2]"


def test_scan_monotonicity_h():
    assert scan_monotonicity("h", grid=30).passed


def test_scan_arguments():
    with pytest.raises(ValueError):
        scan_monotonicity("iso", grid=1)
    with pytest.raises(ValueError):
        scan_monotonicity("nope")
    with pytest.raises(ValueError):
        scan_monotonicity("w", grid=10)  # missing a
    with pytest.raises(ValueError):
        scan_convexity("nope")


def test_scan_convexity_signs():
    concave = scan_convexity("iso_sqrt", grid=40)
    convex = scan_convexity("inv_iso_sqrt", grid=40)
    assert concave.passed and convex.passed
    assert concave.violations == 0 and convex.violations == 0


def test_scan_convexity_sign_change():
    report = scan_convexity("iso", grid=120)
    assert report.sign_change_detected
    assert report.passed
    assert len(report.witnesses) == 2


def test_scan_report_serialization():
    report = scan_monotonicity("iso", grid=12)
    summary = report.to_summary()
    assert summary["violations"] == 0
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "z,value,bound,verdict"
    assert len(csv_text.splitlines()) == 13
    assert "grid_size" in report.to_json()
