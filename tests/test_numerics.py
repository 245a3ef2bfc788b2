"""Certified evaluation layer: hypergeometric sums with rigorous bounds,
the ratio function on both paths, its derivative, and the grid scans.

Soundness is checked against exact-rational oracles: partial sums with the
same tail majorant evaluated in exact arithmetic, so the oracle interval is
rigorous by construction.
"""

import hashlib
import math
import operator
from functools import partial
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from isotorus.series import HypergeometricSpec, Rational, perturbed, rat
from isotorus.solver import InverseQuery

FOUR_OVER_PI = 4.0 / math.pi
THIRTYTWO_OVER_3PI = 32.0 / (3.0 * math.pi)

FAMILY_SPECS = [
    HypergeometricSpec(-a0, -a0, c)
    for a0 in (rat(1, 2), rat(3, 2))
    for c in (rat(1), rat(2), rat(3), rat(4))
]
# 2F1(1-a,1-a;2;x) at a = 1/2 and 3/2, the series of dw_a/dx
SLOPE_SPECS = [num._SPEC_AREA_SLOPE, num._SPEC_VOLUME_SLOPE]


def w_spec(a):
    """The spec of 2F1(-a,-a;1;x), the series of w_a."""
    return HypergeometricSpec(-a, -a, rat(1))


def term_ratio(spec, n):
    """Exact ratio t_{n+1}/t_n of consecutive Gauss-series coefficients."""
    return (spec.a + n) * (spec.b + n) / ((spec.c + n) * (n + 1))


def exact_family_enclosure(spec, x_rat, terms):
    """Rigorous rational enclosure [S, S + tail] of 2F1 at rational x in [0,1].

    Valid for the nonnegative-term class: the tail after term t_m is bounded
    by the t_m (m + a + s)/s majorant the evaluator uses, s = c - 2a,
    computed exactly.
    """
    a, sigma = spec.a, spec.c - 2 * spec.a
    s = rat(1)
    t = rat(1)
    for n in range(terms):
        t = t * term_ratio(spec, n) * x_rat
        s = s + t
    t_next = t * term_ratio(spec, terms) * x_rat
    tail = t_next * (terms + 1 + a + sigma) / sigma
    if x_rat < 1:
        tail = min(tail, t_next / (1 - x_rat))
    return s, s + tail


# -- CertifiedValue and the interval rules on (value, bound) pairs ------------

def test_certified_value_endpoints():
    cv = CertifiedValue(1.0, 0.25)
    assert cv.lo == 0.75 and cv.hi == 1.25


def test_certified_value_is_an_immutable_value():
    # equality, hash and repr as a frozen dataclass of the three fields had
    # them; no plain tuple equals it, and it refuses order and arithmetic
    cv = CertifiedValue(1.0, 0.25)
    for name in ("value", "abs_error_bound", "flag", "other"):
        with pytest.raises(AttributeError):
            setattr(cv, name, 2.0)
    assert cv == CertifiedValue(1.0, 0.25, None) and not cv != CertifiedValue(1.0, 0.25)
    assert cv != CertifiedValue(1.0, 0.25, "bound_not_achieved") != CertifiedValue(1.0, 0.5)
    assert hash(cv) == hash(CertifiedValue(1.0, 0.25)) == hash((1.0, 0.25, None))
    assert len({cv, CertifiedValue(1.0, 0.25), CertifiedValue(1.0, 0.5)}) == 2
    assert repr(cv) == "CertifiedValue(value=1.0, abs_error_bound=0.25, flag=None)"
    assert repr(CertifiedValue(0.5, 1e-3, "bound_not_achieved")) == (
        "CertifiedValue(value=0.5, abs_error_bound=0.001, flag='bound_not_achieved')")
    for plain in ((1.0, 0.25, None), [1.0, 0.25, None]):
        assert cv != plain and plain != cv and not cv == plain and not plain == cv
    for u, v in ((cv, cv), (cv, (1.0,)), ((1.0,), cv)):
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add):
            with pytest.raises(TypeError):
                op(u, v)
    for n in (2, 2.0):
        for u, v in ((cv, n), (n, cv)):
            with pytest.raises(TypeError):
                u * v


def test_interval_ops_contain_truth():
    u = (2.0, 1e-12)
    v = (3.0, 1e-12)
    w, b = num._sub(*u, *v)
    assert abs(w + 1.0) <= b
    w, b = num._mul(*u, *v)
    assert abs(w - 6.0) <= b
    w, b = num._div(*u, *v)
    assert abs(w - 2.0 / 3.0) <= b
    w, b = num._pow(*u, 0.5)
    assert abs(w - math.sqrt(2.0)) <= b
    w, b = num._scale(*u, -0.375)
    assert abs(w + 0.75) <= b


def test_interval_ops_guard_zero():
    wide = (0.5, 1.0)
    with pytest.raises(BoundNotAchieved):
        num._div(1.0, 0.0, *wide)
    with pytest.raises(BoundNotAchieved):
        num._pow(*wide, 0.5)


# Each rule's bound must hold the exact result of its operation on every
# point within its operands' bounds.  The operations are monotone or
# bilinear in each operand, so the ends and the centre of each interval
# suffice.  The magnitudes keep every result a normal float: the 2 EPS |w|
# pads cover rounding, not underflow.  A zero input bound makes a dropped
# pad a bound of 0 on an inexact result; a bound near or above |value|, or
# on the value 0, makes the rounding of the bound's own terms count.
NONZERO = st.one_of(st.floats(2.0 ** -60, 2.0 ** 60), st.floats(-(2.0 ** 60), -(2.0 ** -60)))


@st.composite
def pairs(draw, values=NONZERO):
    """(value, bound): the value 0 or drawn from ``values``; the bound 0, a
    share of |value| from 2^-60 up to and above 1, or drawn apart from the
    value, as a nonzero bound on the value 0 is."""
    u = draw(st.one_of(st.just(0.0), values))
    share = draw(st.one_of(st.floats(2.0 ** -60, 2.0 ** -20), st.floats(2.0 ** -20, 4.0)))
    return u, draw(st.sampled_from((0.0, share * abs(u), draw(st.floats(2.0 ** -60, 2.0 ** 60)))))


def _points(u, ub):
    u, ub = Fraction(u), Fraction(ub)
    return u - ub, u, u + ub


def _within(pair, exact):
    w, b = pair
    return abs(exact - Fraction(w)) <= Fraction(b)


@given(pairs(), pairs())
@example((1.0, 0.0), (0.1, 0.0))
@example((1.0, 1e-7), (1.0, 1e-9))  # w = 0, and 1e-7 + 1e-9 rounds down
@example((0.0, 0.1), (0.3, 0.0))  # w = 0, and 0.3 * 0.1 rounds down
def test_sub_and_mul_bounds_hold_the_exact_result(u, v):
    for rule, op in ((num._sub, lambda x, y: x - y), (num._mul, lambda x, y: x * y)):
        out = rule(*u, *v)
        assert all(_within(out, op(x, y)) for x in _points(*u) for y in _points(*v)), rule


@given(pairs(), pairs())
@example((1.0, 0.0), (3.0, 0.0))
@example((0.0, 1.0), (3.0, 0.0))  # w = 0, and 1 / 3 rounds down
def test_div_bound_holds_the_exact_result(u, v):
    v_lo = abs(Fraction(v[0])) - Fraction(v[1])
    if v_lo <= 0:
        with pytest.raises(BoundNotAchieved):
            num._div(*u, *v)
        return
    out = num._div(*u, *v)
    assert all(_within(out, x / y) for x in _points(*u) for y in _points(*v))


@given(pairs(), st.one_of(st.just(0.0), NONZERO))
@example((1.0, 0.0), 0.1)
@example((0.0, 0.1), 0.3)  # w = 0, and 0.3 * 0.1 rounds down
def test_scale_bound_holds_the_exact_result(u, k):
    out = num._scale(*u, k)
    assert all(_within(out, x * Fraction(k)) for x in _points(*u))


@pytest.mark.parametrize("p", [0.5, 1.5])
@given(u=pairs(st.floats(2.0 ** -60, 2.0 ** 60)))
@example(u=(2.0, 0.0))
def test_pow_bound_holds_the_exact_result(p, u):
    # y = x^p lies in [w - b, w + b] exactly when y^2 = x^(2p) lies in
    # [(w - b)^2, (w + b)^2], w - b >= 0, or below (w + b)^2, w - b < 0:
    # exact squares, as x^p itself is irrational
    lo, _, hi = _points(*u)
    if lo <= 0:
        with pytest.raises(BoundNotAchieved):
            num._pow(*u, p)
        return
    w, b = (Fraction(f) for f in num._pow(*u, p))
    for x in (lo, hi):
        y_squared = x ** int(2 * p)
        assert y_squared <= (w + b) ** 2
        assert w - b < 0 or (w - b) ** 2 <= y_squared


def test_float_constants_lie_within_their_bounds():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        k_ratio = 9 * mpmath.sqrt(2) / (8 * mpmath.pi)
        c_direct = 6 / (mpmath.sqrt(mpmath.pi) * mpmath.root(2, 4))
        assert abs(mpmath.mpf(num._K_RATIO) - k_ratio) <= num._K_RATIO_BOUND
        assert abs(mpmath.mpf(num._C_DIRECT) - c_direct) <= num._C_DIRECT_BOUND


def test_only_public_evaluators_flag():
    # a rule returns the pair (value, bound) alone, whatever the result its
    # input came from carries; an evaluator flags by its own final bound
    # against its own target, only where the bound exceeds it
    flagged = CertifiedValue(1.0, 1e-3, "bound_not_achieved")
    assert len(num._mul(2.0, 0.0, flagged.value, flagged.abs_error_bound)) == 2
    assert len(num._pow(flagged.value, flagged.abs_error_bound, 0.5)) == 2
    assert num._flagged(1.0, 1e-3, 1e-3) == CertifiedValue(1.0, 1e-3)
    assert num._flagged(1.0, 1e-3, 1e-4) == flagged
    # a bound that is not at most the target is flagged, a NaN one too
    assert num._flagged(1.0, math.nan, 1e-4).flag == "bound_not_achieved"
    # iso^2 at z = 0.41 misses 1e-12; its square root, with half the bound,
    # meets it
    assert iso_squared(0.41, target=1e-12).flag == "bound_not_achieved"
    assert iso(0.41, target=1e-12).flag is None


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


@pytest.mark.parametrize("spec", FAMILY_SPECS + SLOPE_SPECS)
# at x = 2^-40 the sum stops after a term or two, where the majorant needs
# k + a > 0
@pytest.mark.parametrize("x_rat", [rat(1, 8), rat(1, 2), rat(7, 8), rat(1), rat(1, 2 ** 40)])
def test_family_eval_within_exact_oracle(spec, x_rat):
    lo, hi = exact_family_enclosure(spec, x_rat, 600)
    cv = eval_2f1(spec, float(x_rat), target=1e-11)
    slack = cv.abs_error_bound + 8 * EPS * float(hi)
    assert float(lo) - slack <= cv.value <= float(hi) + slack


@pytest.mark.parametrize("spec", FAMILY_SPECS + SLOPE_SPECS)
def test_family_tail_majorant_exact(spec):
    # t_{k+1}/t_k <= (k+a)/(k+a+s+1) at x = 1 for k + a > 0, s = c - 2a: the
    # evaluator's majorant, checked in exact rationals
    assert spec.tail_majorant is not None
    a, s = spec.a, spec.c - 2 * spec.a
    for k in range(1, 2001):
        if k + a > 0:
            assert term_ratio(spec, k) <= (k + a) / (k + a + s + 1)


def test_eval_2f1_near_one_stops_at_best_bound(time_limit):
    # the bound's minimum is near 5.9e-12, far from 1e6 terms; past it the
    # rounding term grows, so the kernel stops there, flagged
    mpmath = pytest.importorskip("mpmath")
    time_limit(0.5)
    cv = eval_2f1(SPEC_AREA, 0.999, target=1e-12)
    assert cv.flag == "bound_not_achieved"
    assert cv.abs_error_bound < 1e-11
    ref = mpmath.hyp2f1(-0.5, -0.5, 1, mpmath.mpf(0.999))
    assert abs(mpmath.mpf(cv.value) - ref) <= cv.abs_error_bound


def reference_eval_family(params, x, target):
    """The family kernel as one checked loop on an int step counter, every
    term testing the stop rule, at an exact argument: ``num._eval_family``,
    on a float counter and in blocks, must match it bit for bit."""
    a, c, s, m0 = params
    inv_gap = 1.0 / (1.0 - x) if x < 1.0 else math.inf
    total = 1.0
    t = 1.0
    for n in range(m0 - 1):  # terms before the majorant applies
        t *= (a + n) * (a + n) / ((c + n) * (n + 1)) * x
        total += t
    n = m0 - 1
    a_s = a + s
    err_prev = math.inf
    total_prev = total
    while True:
        m = n + 1
        t_next = t * ((a + n) * (a + n)) / ((c + n) * m) * x
        k = (m + a_s) / s
        err = t_next * (k if k < inv_gap else inv_gap) + 3.0 * EPS * m * total
        if err <= target or t_next == 0.0 or m >= num._MAX_TERMS:
            break
        if err > err_prev:
            total, err = total_prev, err_prev
            break
        total_prev, err_prev = total, err
        total += t_next
        t = t_next
        n = m
    return num._flagged(total, err + 2.0 * EPS * abs(total), target)


# the records of the four series of the ratio and its derivative
OWN_KERNELS = [num._AREA, num._VOLUME, num._AREA_SLOPE, num._VOLUME_SLOPE]
KERNEL_SPECS = [SPEC_AREA, SPEC_VOLUME] + SLOPE_SPECS + [
    w_spec(a) for a in (rat(-1, 3), rat(1, 3), rat(2, 7), rat(5, 11), rat(-2, 5), rat(7, 3))]
# x = 1 - 10^-u, where the sums run long and in blocks, in three draws of
# five; an interior x in [0, 0.95], where they are short and the first four
# specs read mostly their head tables, in one; the ends of [0, 1] in one.
# 50 examples keep about 30 draws near 1 and 10 at the ends
KERNEL_X = st.integers(0, 4).flatmap(
    lambda i: st.floats(0.0, 5.0).map(lambda u: 1.0 - 10.0 ** -u) if i > 1
    else st.floats(0.0, 0.95) if i else st.sampled_from([0.0, 1.0, 5e-324]))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(KERNEL_SPECS), KERNEL_X,
       st.sampled_from([1e-9, 1e-10, 2.5e-11, 1e-12, 1e-13, 3e-14]))
@example(SPEC_AREA, 0.999, 1e-13)           # the rising-error stop
@example(w_spec(rat(1, 3)), 1.0, 3e-14)
@example(w_spec(rat(2, 7)), 1.0 - 1e-4, 1e-12)
@example(SPEC_VOLUME, 1.0 - 1e-4, 1e-13)     # m0 = 2
@example(w_spec(rat(7, 3)), 0.999, 1e-12)  # m0 = 3
@example(SPEC_AREA, 0.05, 1e-10)             # a short sum, no block tried
@example(num._SPEC_VOLUME_SLOPE, 5e-324, 1e-13)
# sums whose last step is the last of a head table, m0 + _HEAD
@example(SPEC_AREA, 0.9085888769969045, 1e-10)
@example(SPEC_VOLUME, 0.9827569771165512, 1e-10)
@example(num._SPEC_AREA_SLOPE, 0.8580872206721897, 1e-10)
@example(num._SPEC_VOLUME_SLOPE, 0.9474547077545059, 1e-10)
def test_blocks_match_the_checked_loop_bit_for_bit(spec, x, target):
    # the four series of the ratio through their records, with head tables;
    # every other series, and those four once more, on the per-call path
    want = reference_eval_family(spec.tail_majorant, x, target)
    kernels = [num._Kernel(spec.tail_majorant)]
    kernels += [k for k in OWN_KERNELS if k.params == spec.tail_majorant]
    for kernel in kernels:
        got = num._flagged(*num._eval_family(kernel, x, target, 0.0), target)
        path = "per-call" if kernel.row is None else "tabled"
        assert (got.value.hex(), got.abs_error_bound.hex(), got.flag) == (
            want.value.hex(), want.abs_error_bound.hex(), want.flag), path


def test_a_table_entry_one_ulp_off_fails_the_bit_comparison():
    # the kernel reads its factors from the head table: one square moved by
    # one ulp moves the result off the checked loop's bits.  A move by an
    # ulp often rounds away, so the step is one where it does not
    params, x, target, step = SPEC_AREA.tail_majorant, 0.5, 1e-10, 3
    want = reference_eval_family(params, x, target)
    rows, row = [], num._AREA.row
    while row is not None:
        rows.append(row[:5])
        row = row[5]
    first = int(rows[0][4]) - 1  # the step of the first row
    square, *rest = rows[step - first]
    rows[step - first] = (math.nextafter(square, math.inf), *rest)
    for values in reversed(rows):
        row = (*values, row)
    got = num._flagged(*num._eval_family(num._AREA._replace(row=row), x, target, 0.0), target)
    assert (got.value.hex(), got.abs_error_bound.hex()) != (
        want.value.hex(), want.abs_error_bound.hex())


def test_block_refuses_where_a_step_could_meet_the_target():
    # from step 33 to 96 at x = 0.85 the rounding bound triples, so the
    # block's test must add the rounding bound of its first step to the tail
    # bound of its last: at exactly that sum as the target the block is
    # refused, and just below it taken
    a, c, s, _ = params = SPEC_AREA.tail_majorant
    x, n, inv_gap = 0.85, 32, 1.0 / (1.0 - 0.85)
    t = total = 1.0
    for j in range(n):
        t = t * ((a + j) * (a + j)) / ((c + j) * (j + 1)) * x
        total += t
    u = t
    for j in range(n, n + num._BLOCK):
        u = u * ((a + j) * (a + j)) / ((c + j) * (j + 1)) * x
    k = (n + num._BLOCK + (a + s)) / s
    boundary = u * min(k, inv_gap) + 3.0 * EPS * (n + 1) * total
    assert num._sum_blocks(params, x, boundary, inv_gap, n, t, total) is None
    taken = num._sum_blocks(params, x, boundary * (1.0 - 1e-9), inv_gap, n, t, total)
    assert taken is not None and taken[0] == n + num._BLOCK


# (call, value, bound, flag) as float.hex from the checked loop before it
# summed in blocks: two calls stop at the 10^6-term cap, one at its best bound
KERNEL_PINNED = [
    (lambda: eval_w(rat(-1, 4), 1.0),
     "0x1.674b05c1a8cb2p+0", "0x1.7b73e98ce5bafp-13", "bound_not_achieved"),
    (lambda: eval_w(rat(-1, 3), 1.0),
     "0x1.d5e1c1fbf807fp+0", "0x1.5928b9f92ddaep-8", "bound_not_achieved"),
    (lambda: eval_2f1(SPEC_AREA, 0.999, 1e-12),
     "0x1.45de2f4e09bd4p+0", "0x1.a0f1cab6f6098p-38", "bound_not_achieved"),
]


@pytest.mark.pinned
def test_cap_and_best_bound_stops_are_pinned(time_limit):
    time_limit(5.0)
    for call, value, bound, flag in KERNEL_PINNED:
        cv = call()
        assert (cv.value.hex(), cv.abs_error_bound.hex(), cv.flag) == (value, bound, flag)


def test_eval_2f1_domain_and_divergence():
    with pytest.raises(DomainError):
        eval_2f1(SPEC_AREA, -0.1)
    with pytest.raises(DomainError):
        eval_2f1(SPEC_AREA, 1.1)
    with pytest.raises(Divergent):
        eval_2f1(HypergeometricSpec(rat(1), rat(1), rat(1)), 1.0)
    # a NaN or negative argument error is no bound, and used to be dropped
    # silently; inf is one, and gives an honest, flagged result
    for err in (math.nan, -1.0):
        with pytest.raises(DomainError, match=r"^argument error"):
            eval_2f1(SPEC_AREA, 0.3, 1e-10, err)
    assert eval_2f1(SPEC_AREA, 0.3, 1e-10, math.inf).flag == "bound_not_achieved"


def test_argument_error_cannot_move_a_constant_series():
    # F(0,0;1;x) = 1 has the derivative cap 0: inf times that cap was NaN,
    # and the NaN bound went unflagged
    spec = HypergeometricSpec(0, 0, 1)
    exact = eval_2f1(spec, 0.5, 1e-10)
    assert exact.value == 1.0 and exact.flag is None
    for err in (1e-3, math.inf):
        assert eval_2f1(spec, 0.5, 1e-10, x_abs_err=err) == exact


def test_eval_2f1_outside_class_raises_domain_error():
    for spec in (
        HypergeometricSpec(rat(1, 3), rat(-2, 5), rat(3, 2)),    # a != b
        HypergeometricSpec(rat(1, 2), rat(1, 2), rat(1)),        # c - 2a = 0
        HypergeometricSpec(rat(3, 2), rat(3, 2), rat(4)),        # (a-1)(c-a) > 0
        HypergeometricSpec(rat(-1, 2), rat(-1, 2), rat(-1, 3)),  # c < 0
    ):
        assert not num._in_family(spec)
        for x in (0.0, 0.25, 0.9995):
            with pytest.raises(DomainError):
                eval_2f1(spec, x)


def test_generic_eval_against_exact_sum():
    # in-class triples outside the area/volume family, one with alternating
    # signs: the one kernel sums them, within the exact rational enclosure
    for spec in (
        HypergeometricSpec(rat(-1, 3), rat(-1, 3), rat(1, 2)),
        HypergeometricSpec(rat(1, 3), rat(1, 3), rat(3, 2)),
    ):
        lo, hi = exact_family_enclosure(spec, rat(1, 4), 120)
        cv = eval_2f1(spec, 0.25, target=1e-12)
        assert cv.flag is None
        slack = cv.abs_error_bound + 8 * EPS * float(hi)
        assert float(lo) - slack <= cv.value <= float(hi) + slack


def test_generic_refuses_near_one():
    # a != b is outside the class and refused at any x; an in-class triple
    # near one is not refused but returns a flagged, honest enclosure
    with pytest.raises(DomainError):
        eval_2f1(HypergeometricSpec(rat(1, 3), rat(1, 5), rat(2)), 0.9995)
    mpmath = pytest.importorskip("mpmath")
    cv = eval_2f1(HypergeometricSpec(rat(1, 3), rat(1, 3), rat(3, 2)), 0.9995, target=1e-12)
    assert cv.flag == "bound_not_achieved"
    ref = mpmath.hyp2f1(mpmath.mpf(1) / 3, mpmath.mpf(1) / 3, 1.5, mpmath.mpf(0.9995))
    assert abs(mpmath.mpf(cv.value) - ref) <= cv.abs_error_bound


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
    # w_a needs 2F1(-a,-a;1) in the class: a > -1/2
    for a in (rat(-1, 2), rat(-1)):
        with pytest.raises(DomainError):
            eval_w(a, 0.5)
    assert eval_w(rat(-1, 4), 0.5).flag is None
    # at x = 1 the tail of 2F1(1/4,1/4;1) falls like m^(-1/2): flagged, honest
    cv = eval_w(rat(-1, 4), 1.0)
    want = math.sqrt(math.pi) / math.gamma(0.75) ** 2 * 2.0 ** 0.25
    assert cv.flag == "bound_not_achieved"
    assert abs(cv.value - want) <= cv.abs_error_bound


@pytest.mark.parametrize("a", [10 ** 20, 10 ** 400, 10 ** 5, 1000, rat(51395, 100)])
def test_eval_w_refuses_an_a_whose_series_leaves_the_float_range(a, time_limit):
    # 10^20 used to run 10^20 kernel steps, 10^400 and 10^5 to raise an
    # OverflowError, and 1000 to return a flagged NaN
    time_limit(1.0)
    with pytest.raises(DomainError, match="513.94"):
        eval_w(a, 0.5)


@pytest.mark.parametrize("x", [rat(1, 2), rat(1)])
def test_eval_w_at_the_largest_integer_a_holds_the_exact_value(x):
    # at integer a, 2F1(-a,-a;1;x) is the polynomial sum C(a,k)^2 x^k
    a = 513
    exact = sum(Fraction(math.comb(a, k) ** 2) * x ** k for k in range(a + 1)) / (1 + x) ** a
    cv = eval_w(a, float(x))
    assert math.isfinite(cv.value) and abs(Fraction(cv.value) - exact) <= Fraction(cv.abs_error_bound)


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
    with pytest.raises(DomainError):
        eval_h(0.5, target=target)
    # w_0 = w_1 = 1 needs no series, but the target is checked all the same
    for a in (rat(0), rat(1), rat(1, 2)):
        with pytest.raises(DomainError):
            eval_w(a, 0.5, target=target)


# every public evaluator, with each of its arguments in turn set to the value
BOOL_ARGUMENT_CALLS = {
    "eval_2f1-x": lambda v: eval_2f1(SPEC_AREA, v),
    "eval_2f1-target": lambda v: eval_2f1(SPEC_AREA, 0.3, target=v),
    "eval_2f1-x_abs_err": lambda v: eval_2f1(SPEC_AREA, 0.3, 1e-10, v),
    "eval_w-a": lambda v: eval_w(v, 0.3),
    "eval_w-x": lambda v: eval_w(rat(1, 2), v),
    "eval_w-target": lambda v: eval_w(rat(1, 2), 0.3, target=v),
    "eval_h-x": lambda v: eval_h(v),
    "eval_h-target": lambda v: eval_h(0.3, target=v),
    "iso-z": lambda v: iso(v),
    "iso-target": lambda v: iso(0.2, target=v),
    "iso_squared-z": lambda v: iso_squared(v),
    "iso_squared-target": lambda v: iso_squared(0.2, target=v),
    "iso_derivative-z": lambda v: iso_derivative(v),
    "iso_derivative-target": lambda v: iso_derivative(0.2, target=v),
    "iso_direct-z": lambda v: iso_direct(v),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", list(BOOL_ARGUMENT_CALLS))
def test_bool_arguments_are_refused(name, value):
    # a bool is an int to Python, so True would run as 1 (a target of 1.0,
    # x = 1) and False as 0: every public evaluator refuses it
    with pytest.raises(DomainError, match="bool"):
        BOOL_ARGUMENT_CALLS[name](value)


def test_invalid_target_is_named_as_passed():
    # each evaluator checks the caller's target, not the share of it that a
    # series gets
    with pytest.raises(DomainError, match=r"^target -1 is not"):
        eval_h(0.5, target=-1)
    with pytest.raises(DomainError, match=r"^target -1e-10 is not"):
        iso_derivative(0.2, target=-1e-10)


TINY_TARGET_CALLS = [
    (iso, 0.1), (iso_squared, 0.1), (iso_derivative, 0.1), (eval_h, 0.5),
    (lambda x, target: eval_w(rat(1, 2), x, target=target), 0.5),
]


@pytest.mark.parametrize("target", [5e-324, 31 * 5e-324, 1e-320])
def test_tiny_positive_target_is_flagged_not_refused(target):
    # a share target/k below 2^-1074 rounds to 0: it is floored at the least
    # positive float, so the call returns an honest bound, flagged
    for fn, arg in TINY_TARGET_CALLS:
        cv = fn(arg, target=target)
        assert cv.flag == "bound_not_achieved"
        assert 0.0 < cv.abs_error_bound < 1e-9


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
        b, b_bound = num._iso_from_t(z * z)
        assert abs(a.value - b) <= a.abs_error_bound + b_bound + 4 * EPS


def test_iso_direct_cross_path():
    for z in (0.1, 0.2):
        d = iso_direct(z)
        c = iso(z, target=1e-12)
        assert abs(d.value - c.value) <= d.abs_error_bound + c.abs_error_bound


@pytest.mark.parametrize("z, order", [(0.05, 4), (0.1, 8), (0.2, 16), (0.25, 24), (0.3, 40), (0.35, 60)])
def test_iso_direct_at_a_low_order_holds_the_exact_value(z, order):
    # at these orders the rest is most of the bound, which the true error
    # fills to 56-70 %: an enclosure with a rest too small misses the value
    mpmath = pytest.importorskip("mpmath")
    d = iso_direct(z, order=order)
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(d.value) - _iso_exact(mpmath, mpmath.mpf(z))) <= d.abs_error_bound


def test_iso_direct_needs_order_near_endpoint():
    with pytest.raises(BoundNotAchieved):
        iso_direct(0.41, order=60)


def test_iso_direct_advice_near_its_reach():
    # the tail cap is 1.05 times a coefficient ratio that falls towards
    # 1/T_MAX: a higher order helps below z = sqrt(T_MAX/1.05) ~ 0.4042 only
    with pytest.raises(BoundNotAchieved, match="raise the order"):
        iso_direct(0.40, order=5)
    with pytest.raises(BoundNotAchieved, match="no order helps") as info:
        iso_direct(0.405)
    assert "raise the order" not in str(info.value)


# (z, order) -> (value, bound) as float.hex, from the direct path that summed
# the closed-form expansions by integer Horner; the operator recurrences and
# balanced splitting must reproduce every bit.
DIRECT_PINNED = {
    (0.0, 240): ("0x1.6c5bc004ae5b4p-1", "0x1.83217c04f9418p-49"),
    (2.0 ** -60, 240): ("0x1.6c5bc004ae5b4p-1", "0x1.83217c04f9418p-49"),
    (0.001, 240): ("0x1.6c5c2b78bdbbcp-1", "0x1.832196e1fba24p-49"),
    (0.05, 240): ("0x1.706dad1cf60a5p-1", "0x1.84258ba4df75fp-49"),
    (0.1, 240): ("0x1.7c4aa9bbf46aap-1", "0x1.9a8fb6e949ca9p-49"),
    (0.2, 240): ("0x1.a69bc670ebe84p-1", "0x1.c98319a465a82p-49"),
    (0.3, 240): ("0x1.db3b964db4d17p-1", "0x1.0482cd7d20930p-48"),
    (0.38, 240): ("0x1.fb0e118c6bc86p-1", "0x1.318f81b7781bbp-48"),
    (0.402, 240): ("0x1.ff6936af85180p-1", "0x1.73000fd966215p-11"),
    (0.1, 1): ("0x1.7a8ba4822625dp-1", "0x1.4eb4a5ee34878p-6"),
    (0.25, 100): ("0x1.c1094de5f6cbdp-1", "0x1.ee10fe4160c7cp-49"),
    (0.39, 460): ("0x1.fd4cac2376185p-1", "0x1.112966e33f534p-48"),
    (0.402, 460): ("0x1.ff33690fd9799p-1", "0x1.fcde6d8b9ea72p-30"),
}


@pytest.mark.pinned
def test_iso_direct_matches_pinned_bits():
    for (z, order), (value, bound) in DIRECT_PINNED.items():
        d = iso_direct(z, order=order)
        assert (d.value.hex(), d.abs_error_bound.hex(), d.flag) == (value, bound, None), (z, order)


# sha256 over "value.hex bound.hex flag" lines of iso_direct(0.4 k / 4000,
# order=240) for k = 0..4000, from the direct path that summed all 241 terms
# in two Horner loops, one rounding down and one up.
DIRECT_GRID = "2d676debb6ea8e5b57145f5900c1f9dc3dd1c6ebddca10970b3a81c2819a4a9e"


@pytest.mark.pinned
def test_iso_direct_matches_the_grid_digest():
    rows = []
    for k in range(4001):
        d = iso_direct(0.4 * k / 4000, order=240)
        rows.append(f"{d.value.hex()} {d.abs_error_bound.hex()} {d.flag}")
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == DIRECT_GRID


# sha256 over "value.hex bound.hex flag" lines, or exception names, of the
# float evaluators on FLOAT_GRID_Z and FLOAT_GRID_X at three targets each,
# then the CSVs of the six scans at grid 200, from before the evaluators
# assembled their bounds on (value, bound) float pairs; since then only the
# three iso_derivative lines at z = 5e-324 moved, whose bound was 0 before
# subnormal roundings were padded.
FLOAT_GRID = "e9cc538236d47185cef7e9abcbfa217569085ccdea81feaa2b90384cff2bf369"
FLOAT_GRID_Z = [0.41 * k / 40 for k in range(41)] + [5e-324, 1e-8, Z_MAX - 1e-6]
FLOAT_GRID_X = [k / 40 for k in range(41)] + [5e-324, 0.999]


def float_grid_lines():
    calls = [(fn, (z,)) for fn in (iso, iso_squared, iso_derivative) for z in FLOAT_GRID_Z]
    calls += [(eval_h, (x,)) for x in FLOAT_GRID_X]
    # w_{-1/4} at x = 1 sums 10^6 terms: left to KERNEL_PINNED
    calls += [(eval_w, (a, x)) for a in (rat(1, 2), rat(3, 2), rat(-1, 4)) for x in FLOAT_GRID_X
              if not (a < 0 and x == 1.0)]
    for fn, args in calls:
        for target in (1e-10, 1e-12, 1e-13):
            try:
                cv = fn(*args, target=target)
            except num.NumericsError as exc:
                yield type(exc).__name__
            else:
                yield f"{cv.value.hex()} {cv.abs_error_bound.hex()} {cv.flag}"
    for scan, which, kwargs in (
        (scan_monotonicity, "iso", {}), (scan_monotonicity, "w", {"a": rat(1, 2)}),
        (scan_monotonicity, "h", {}), (scan_convexity, "iso_sqrt", {}),
        (scan_convexity, "inv_iso_sqrt", {}), (scan_convexity, "iso", {}),
    ):
        yield scan(which, grid=200, **kwargs).to_csv()


@pytest.mark.pinned
def test_float_evaluators_match_the_grid_digest(time_limit):
    time_limit(5.0)
    digest = hashlib.sha256("\n".join(float_grid_lines()).encode()).hexdigest()
    assert digest == FLOAT_GRID


def _homogeneous(nums, u, v) -> tuple:
    """(sum_n nums[n] u^n v^(k-n), v^(k+1)), k = len(nums) - 1: the sum of
    the nums[n] t^n at t = u/v is the first over v^k."""
    h, v_pow = 0, 1
    for c in reversed(nums):
        h, v_pow = h * u + c * v_pow, v_pow * v
    return h, v_pow


@pytest.mark.parametrize("order", [1, 5, 240, 460])
def test_direct_enclosure_holds_the_exact_partial_sum(order):
    # the one-loop enclosure through the cut-off m holds the exact sum
    # through m, the rest bound holds the exact terms from m + 1 through the
    # order, and the two together hold the exact partial sum through the order
    from isotorus.identities import ABAR_OPERATOR, VBAR_OPERATOR

    abar, vbar, cap = num._direct_series(order)
    series = [op.series_solution(constant, order) for op, constant in
              ((ABAR_OPERATOR, 4), (VBAR_OPERATOR, 2))]
    for z in (0.0, 5e-324, 1e-20, 2.0 ** -60, 0.05, 0.2, 0.3, 0.38, 0.402):
        u, v = (n * n for n in Rational(z).as_integer_ratio())
        if u / v * cap >= 1.0:
            with pytest.raises(BoundNotAchieved, match="raise the order"):
                iso_direct(z, order=order)
            continue
        m, sums = num._partial_sums((abar, vbar), u, v, cap)
        assert 0 <= m <= order
        for s, (lo, hi, rest) in zip(series, sums):
            # over den v^order: head is the sum through m, middle the terms
            # from m + 1 through the order
            h_m, v_head = _homogeneous(s.nums[: m + 1], u, v)
            h_r, v_middle = _homogeneous(s.nums[m + 1:], u, v)
            whole = s.den * v_head * v_middle // v
            head, middle = h_m * v_middle, h_r * u ** (m + 1)
            assert lo * whole <= head << num._P < hi * whole, (order, z)
            # rest is rounded to nearest once and can underflow to 0:
            # iso_direct's padding covers both
            a, b = (Rational(rest) + Rational(2.0 * EPS * abs(rest)) + Rational(5e-324)).as_integer_ratio()
            assert middle * b <= a * whole, (order, z)
            assert (head + middle) * b << num._P <= (hi * b + (a << num._P)) * whole, (order, z)


@pytest.mark.pinned
def test_cut_off_is_pinned():
    # the terms fall like (5.83 z^2)^n, so the sum stops well before the
    # order inside the domain and reaches it near z = 0.40
    abar, vbar, cap = num._direct_series(240)
    got = {}
    for z in (0.05, 0.2, 0.40):
        u, v = (n * n for n in Rational(z).as_integer_ratio())
        got[z] = num._partial_sums((abar, vbar), u, v, cap)[0]
    assert got == {0.05: 23, 0.2: 71, 0.40: 240}


def test_horner_width_is_needed_to_the_unit():
    # both floors of a step can lose almost a unit, and the first step's
    # loss carries over times t: the error passes 2, so hi = lo + 3 is needed
    P, s, u = num._P, 8, 43  # t = 43/256 < T_MAX
    f1 = 5 << P
    f1 += (255 * pow(u, -1, 1 << s) - f1) % (1 << s)  # f1 u = 255 mod 2^s
    almost_a_unit = Rational(2 ** 20 - 1, 2 ** 20 << P)
    coeffs = [Rational(f1, 1 << P) + almost_a_unit, 4 + almost_a_unit]
    floors = [math.floor(c * (1 << P)) for c in coeffs]
    lo, hi = num._horner_enclosure(floors, u, 1 << s)
    exact = (coeffs[1] + coeffs[0] * Rational(u, 1 << s)) * (1 << P)
    assert lo + 2 < exact < hi


def test_falling_ratios_are_checked_exactly_where_floats_tie():
    # ratios 3 and 3 - 2^-300: one float, told apart by the integers
    a = 1 << 300
    assert num._falling_ratios([a, 3 * a, 9 * a - 1]) == [3.0, 3.0]
    with pytest.raises(BoundNotAchieved, match="not positive-decreasing"):
        num._falling_ratios([a, 3 * a, 9 * a])


def test_direct_path_refuses_a_nonpositive_coefficient(monkeypatch):
    # the rest bound holds only for positive coefficients
    from isotorus.identities import ABAR_OPERATOR

    class ZeroedCoefficient:
        def series_solution(self, constant, order):
            s = ABAR_OPERATOR.series_solution(constant, order)
            return perturbed(s, 3, -s[3])

    monkeypatch.setattr(num, "ABAR_OPERATOR", ZeroedCoefficient())
    num._direct_series.cache_clear()
    try:
        with pytest.raises(BoundNotAchieved, match="coefficient through the order is not positive"):
            iso_direct(0.1, order=20)
    finally:
        num._direct_series.cache_clear()


def test_direct_path_refuses_a_ratio_that_rises_below_the_order(monkeypatch):
    # doubling c_3 makes r_2 exceed r_1, so a rest past m = 0 bounded with
    # r_1 would not hold, though every ratio near the order falls
    from isotorus.identities import ABAR_OPERATOR

    class RaisedCoefficient:
        def series_solution(self, constant, order):
            s = ABAR_OPERATOR.series_solution(constant, order)
            return perturbed(s, 3, s[3])

    monkeypatch.setattr(num, "ABAR_OPERATOR", RaisedCoefficient())
    num._direct_series.cache_clear()
    try:
        with pytest.raises(BoundNotAchieved, match="coefficient ratios not positive-decreasing"):
            iso_direct(0.1, order=20)
    finally:
        num._direct_series.cache_clear()


def test_iso_direct_rejects_an_order_that_is_not_a_positive_integer():
    for order in (0, -3, 2.5, 240.0, "240", None):
        with pytest.raises(DomainError, match="not an integer >= 1"):
            iso_direct(0.1, order=order)


def test_numerics_binds_no_closed_form_expansion():
    # the direct path is built from the operator recurrences, so it checks
    # the 2F1 closed form instead of reusing it
    from isotorus import identities

    expansions = (identities.expand_abar, identities.expand_vbar)
    assert not any(value in expansions for value in vars(num).values())


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
    for z in (0.05, 0.15, 0.25, 0.35, 0.402, 0.41):
        d = iso_derivative(z, target=1e-11)
        fd = (iso(z + h, target=1e-13).value - iso(z - h, target=1e-13).value) / (2 * h)
        assert abs(d.value - fd) <= 1e-6


def test_derivative_positive_inside():
    for z in (0.1, 0.3):
        d = iso_derivative(z)
        assert d.lo > 0.0


def test_derivative_flagged_enclosure_at_endpoint(time_limit):
    # the slope series 2F1(1/2,1/2;2;x) converges at x = 1 only like 1/m, so
    # the default target is out of reach; the enclosure stays honest
    time_limit(10.0)
    d = iso_derivative(Z_MAX - 1e-9)
    assert d.flag == "bound_not_achieved"
    assert 0.0 <= d.lo and d.abs_error_bound < 1e-5


def _iso_exact(mpmath, z):
    t = z * z
    x = 4 * t / (1 - t) ** 2
    f1 = mpmath.hyp2f1(-0.5, -0.5, 1, x)
    f2 = mpmath.hyp2f1(-1.5, -1.5, 1, x)
    return mpmath.sqrt(9 * mpmath.sqrt(2) / (8 * mpmath.pi) * f2 ** 2 / f1 ** 3 * ((1 - t) / (1 + t)) ** 3)


@pytest.mark.parametrize("target", [1e-12, 1e-13])
def test_derivative_flagged_over_target(target):
    mpmath = pytest.importorskip("mpmath")
    for k in range(1, 42):
        z = 0.01 * k
        d = iso_derivative(z, target=target)
        assert (d.flag == "bound_not_achieved") == (d.abs_error_bound > target), z
        with mpmath.workdps(30):
            ref = mpmath.diff(partial(_iso_exact, mpmath), mpmath.mpf(z))
            assert abs(mpmath.mpf(d.value) - ref) <= d.abs_error_bound, z


@pytest.mark.parametrize("z", [5e-324, 1e-322, 1e-320, 2.0 ** -1022])
def test_derivative_encloses_the_slope_at_subnormal_z(z):
    # iso'(z) = iso''(0) z, iso''(0) = 6.40474..., to far below 2^-1074 at
    # these z, where dx/dz and the derivative round to subnormals and a
    # relative pad underflows to 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        ref = mpmath.diff(partial(_iso_exact, mpmath), 0, 2) * mpmath.mpf(z)
    d = iso_derivative(z)
    assert d.flag is None and d.abs_error_bound > 0.0
    assert abs(mpmath.mpf(d.value) - ref) <= d.abs_error_bound


def test_derivative_unflagged_at_default_target():
    for k in range(1, 42):
        assert iso_derivative(0.01 * k).flag is None


# z -> (value, bound, flag) of iso_derivative at the default target, as
# float.hex, from before the four-series body moved into _iso_and_slope,
# which the solver shares: the move must not change a bit.  The last row's
# bound is from after _mul rounds a bound sum up where it is not small
# against |w|, as the slope's is there; it is 10 ulps wider, and the
# enclosure holds iso'(z) = 8.99e-8 (60-digit mpmath) with room 2.7e-8
DERIVATIVE_PINNED = [
    (0.01, "0x1.06307c54f554cp-4", "0x1.0f935d52a64e1p-43", None),
    (0.05, "0x1.43488e2b9e863p-2", "0x1.b0a7364750cf7p-43", None),
    (0.1, "0x1.3570b6ab9b187p-1", "0x1.d24e28c5eb2e1p-39", None),
    (0.2, "0x1.fe04b771f8704p-1", "0x1.da2d68c801d8fp-37", None),
    (0.3, "0x1.f272530bee02ep-1", "0x1.3e6d200e39784p-36", None),
    (0.38, "0x1.f645292764678p-2", "0x1.f632cb00b27d0p-36", None),
    (0.41, "0x1.92f758195376fp-4", "0x1.10ab63912a6c9p-35", None),
    (Z_MAX - 1e-9, "0x1.7b3f59b2109a0p-21", "0x1.59941ed25f140p-21", "bound_not_achieved"),
]


@pytest.mark.pinned
def test_derivative_matches_pinned_bits(time_limit):
    time_limit(10.0)
    for z, value, bound, flag in DERIVATIVE_PINNED:
        d = iso_derivative(z)
        assert (d.value.hex(), d.abs_error_bound.hex(), d.flag) == (value, bound, flag), z


# (point, value, bound, flag) as float.hex at the default target, from before
# the interval helpers stopped carrying flags and only the public evaluators
# set one: the change must not move a bit.  The eval_h rows are from after
# its series targets were split by sensitivity, each bound no larger than
# before
EVALUATOR_PINNED = {
    "iso": (iso, [
        (0.0, "0x1.6c5bc004ae5b3p-1", "0x1.6d8b780095cb6p-48", None),
        (0.01, "0x1.6c85b6571d382p-1", "0x1.fd1642db2b8eap-42", None),
        (0.1, "0x1.7c4aa9bbe1aadp-1", "0x1.d2edf12aa6ef8p-37", None),
        (0.2, "0x1.a69bc6711403dp-1", "0x1.06e6a69bc6711p-35", None),
        (0.3, "0x1.db3b964dd63a1p-1", "0x1.471adb3b964ddp-35", None),
        (0.38, "0x1.fb0e118c9212bp-1", "0x1.2f00fb0e118c9p-35", None),
        (0.41, "0x1.ffe25183c1b6ap-1", "0x1.3bbd3fe25183cp-35", None),
        (Z_MAX - 1e-9, "0x1.000000001130ap+0", "0x1.4b76c00000001p-34", None),
    ]),
    "iso_squared": (iso_squared, [
        (0.0, "0x1.034a8577b1973p-1", "0x1.bda81565b93ebp-48", None),
        (0.01, "0x1.0386422f59bdfp-1", "0x1.69e6e8e413998p-41", None),
        (0.1, "0x1.1a76ded62b8dap-1", "0x1.5acbdea443a96p-36", None),
        (0.2, "0x1.5cd2f8835a5f0p-1", "0x1.b1fd8783c4e14p-35", None),
        (0.3, "0x1.b91b16d1bc8ddp-1", "0x1.2f9ba0aba364bp-34", None),
        (0.38, "0x1.f6285d245b94fp-1", "0x1.2c11c1253b3e9p-34", None),
        (0.41, "0x1.ffc4a4c002f6ep-1", "0x1.3ba9043bbb177p-34", None),
        (Z_MAX - 1e-9, "0x1.0000000022615p+0", "0x1.4b75b524eaa28p-33", "bound_not_achieved"),
    ]),
    "eval_w(1/2)": (lambda x: eval_w(rat(1, 2), x), [
        (0.0, "0x1.0000000000000p+0", "0x1.e00000000000dp-49", None),
        (0.001, "0x1.ffdf444c1be3ep-1", "0x1.1357f89f7049ap-38", None),
        (0.1, "0x1.f474970099c97p-1", "0x1.e404cb588895dp-36", None),
        (0.25, "0x1.e70bf2f5a637ep-1", "0x1.410348dc634b4p-36", None),
        (0.5, "0x1.d8315c251aaeep-1", "0x1.4b03be18b52ccp-35", None),
        (0.75, "0x1.cff4ed2950518p-1", "0x1.e806eecc0cbb7p-35", None),
        (0.99, "0x1.ccf8729dc8211p-1", "0x1.34f52767e5b5cp-34", None),
        (1.0, "0x1.ccf6429b6812ap-1", "0x1.36fd7a1547051p-34", None),
    ]),
    "eval_h": (eval_h, [
        (0.0, "0x1.0000000000000p+0", "0x1.8800000000027p-47", None),
        (0.001, "0x1.00935c58af4c0p+0", "0x1.58a3a4c1cac3fp-36", None),
        (0.1, "0x1.35c68877aeea7p+0", "0x1.839ab83fd34a4p-37", None),
        (0.25, "0x1.77f8c608fdeadp+0", "0x1.8d8cf7d92c90fp-36", None),
        (0.5, "0x1.c370c371f365ap+0", "0x1.81f2288c21713p-35", None),
        (0.75, "0x1.ec0500df09d40p+0", "0x1.258b6ac3c05bdp-34", None),
        (0.99, "0x1.f977ec593bf4bp+0", "0x1.1da860cb8d45ep-34", None),
        (1.0, "0x1.f9805851d865ap+0", "0x1.2fbd6ee3f1289p-32", "bound_not_achieved"),
    ]),
}


@pytest.mark.pinned
@pytest.mark.parametrize("name", list(EVALUATOR_PINNED))
def test_evaluator_matches_pinned_bits(name, time_limit):
    time_limit(10.0)
    fn, rows = EVALUATOR_PINNED[name]
    for point, value, bound, flag in rows:
        cv = fn(point)
        assert (cv.value.hex(), cv.abs_error_bound.hex(), cv.flag) == (value, bound, flag), point


def test_eval_h_meets_its_default_target():
    # the series targets follow h's sensitivities to F1 and F2; only x = 1,
    # where F1 reaches no further than its rounding floor, stays flagged
    assert [k for k in range(1000) if eval_h(k / 1000).flag] == []
    assert eval_h(1.0).flag == "bound_not_achieved"


# public evaluator -> the (argument, target) grid its flag rule is checked on
FLAG_RULE_GRID = {
    "eval_2f1": [(spec, k / 40) for spec in (SPEC_AREA, SPEC_VOLUME) for k in range(41)],
    "eval_w": [(a, k / 40) for a in (rat(-1, 4), rat(-1, 3), rat(1, 2), rat(3, 2))
               for k in range(41)],
    "eval_h": [(k / 40,) for k in range(41)],
    "iso": [(0.01 * k,) for k in range(42)] + [(Z_MAX - 1e-6,)],
    "iso_squared": [(0.01 * k,) for k in range(42)] + [(Z_MAX - 1e-6,)],
}


@pytest.mark.parametrize("name", sorted(FLAG_RULE_GRID))
def test_flag_follows_the_final_bound(name):
    # a public evaluator is flagged exactly when its own bound exceeds the
    # target, whatever its sub-series met
    fn = getattr(num, name)
    flags = 0
    for args in FLAG_RULE_GRID[name]:
        for target in (1e-10, 1e-12, 1e-13):
            cv = fn(*args, target=target)
            assert cv.flag == ("bound_not_achieved" if cv.abs_error_bound > target else None), (
                args, target, cv)
            flags += cv.flag is not None
    assert flags  # the grid reaches the flagged side of the rule


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


def test_scan_monotonicity_w_builds_its_spec_once(monkeypatch):
    built = []

    class CountedSpec(HypergeometricSpec):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(num, "HypergeometricSpec", CountedSpec)
    assert scan_monotonicity("w", grid=50, a=rat(1, 3)).passed
    assert len(built) == 1
    # w_{1/2} and w_{3/2} sum the series of the module's own records
    for a in (rat(1, 2), rat(3, 2)):
        assert scan_monotonicity("w", grid=50, a=a).passed
        assert eval_w(a, 0.3).flag is None
    assert len(built) == 1


@pytest.mark.parametrize("a, kernel", [(rat(1, 2), num._AREA), (rat(3, 2), num._VOLUME)])
def test_w_at_one_half_and_three_halves_takes_the_module_record(a, kernel):
    # after the domain checks, the record of SPEC_AREA or SPEC_VOLUME, whose
    # series is w_a's: the same bits as the series built from a
    assert num._w_kernel(a) is kernel
    assert w_spec(a).tail_majorant == kernel.params
    built = num._Kernel(w_spec(a).tail_majorant)
    for x in (0.0, 0.3, 0.97, 1.0):
        for target in (1e-9, 1e-12):
            assert [f.hex() for f in num._w(kernel, x, target)] == [
                f.hex() for f in num._w(built, x, target)], (x, target)


def test_each_kernel_record_holds_its_table_and_cap():
    # built at import, with the bits of the per-call functions
    def flat(row):
        out = []
        while row is not None:
            out += [f.hex() for f in row[:5]]
            row = row[5]
        return out

    for kernel, spec in zip(OWN_KERNELS, [SPEC_AREA, SPEC_VOLUME] + SLOPE_SPECS):
        assert kernel.params == spec.tail_majorant
        assert flat(kernel.row) == flat(num._head_table(kernel.params))
        assert len(flat(kernel.row)) == 5 * (num._HEAD + 1)
        cap = num._family_derivative_cap(*kernel.params)
        assert [f.hex() for f in kernel.cap] == [float(f).hex() for f in cap]


def test_scan_monotonicity_w_whole_interval():
    # every a > -1/2 is certified up to x = 1
    report = scan_monotonicity("w", grid=20, a=rat(-1, 4))
    assert report.passed
    assert report.rows[-1][0] == 1.0


def test_scan_monotonicity_h():
    assert scan_monotonicity("h", grid=30).passed


@pytest.mark.parametrize("value", [True, 2.5, 240.0])
@pytest.mark.parametrize("call, error", [
    pytest.param(lambda n: iso_direct(0.1, order=n), DomainError, id="iso_direct-order"),
    pytest.param(lambda n: InverseQuery(0.9, 1e-10, n), ValueError, id="InverseQuery-max_iterations"),
    pytest.param(lambda n: scan_monotonicity("iso", grid=n), ValueError, id="scan_monotonicity-grid"),
    pytest.param(lambda n: scan_convexity("iso", grid=n), ValueError, id="scan_convexity-grid"),
])
def test_integer_parameters_refuse_bools_and_fractions(monkeypatch, call, error, value):
    # each counts terms, steps or points: a bool or a float is refused, not
    # run as the int it rounds to
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the argument was checked")

    monkeypatch.setattr(num, "_direct_series", refuse)
    monkeypatch.setattr(num, "iso", refuse)
    with pytest.raises(error, match="int"):
        call(value)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_nonfinite_w_parameter_is_a_domain_error(a):
    # Fraction has no value for them: ValueError or OverflowError, unless named
    with pytest.raises(DomainError, match="finite"):
        eval_w(a, 0.3)
    with pytest.raises(DomainError, match="finite"):
        scan_monotonicity("w", grid=3, a=a)


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


# -- one CertifiedValue per public call, none inside a scan ---------------------------

def test_scans_build_no_certified_value(monkeypatch):
    # a scan evaluates its grid on (value, bound) pairs
    def refuse(*args, **kwargs):
        raise AssertionError("a scan built a CertifiedValue")

    monkeypatch.setattr(num, "CertifiedValue", refuse)
    for scan, which, kwargs in (
        (scan_monotonicity, "iso", {}), (scan_monotonicity, "w", {"a": rat(1, 2)}),
        (scan_monotonicity, "h", {}), (scan_convexity, "iso_sqrt", {}),
        (scan_convexity, "inv_iso_sqrt", {}), (scan_convexity, "iso", {}),
    ):
        assert scan(which, grid=20, **kwargs).passed, which


PUBLIC_CALLS = {
    "eval_2f1": lambda: eval_2f1(SPEC_AREA, 0.3),
    "eval_w": lambda: eval_w(rat(1, 2), 0.3),
    "eval_w-constant": lambda: eval_w(rat(1), 0.3),
    "eval_h": lambda: eval_h(0.3),
    "iso": lambda: iso(0.2),
    "iso_squared": lambda: iso_squared(0.2),
    "iso_derivative": lambda: iso_derivative(0.2),
    "iso_derivative-origin": lambda: iso_derivative(0.0),
    "iso_direct": lambda: iso_direct(0.2),
}


@pytest.mark.parametrize("name", list(PUBLIC_CALLS))
def test_each_public_call_builds_one_certified_value(monkeypatch, name):
    built = []

    def counted(*args):
        built.append(args)
        return CertifiedValue(*args)

    monkeypatch.setattr(num, "CertifiedValue", counted)
    assert isinstance(PUBLIC_CALLS[name](), CertifiedValue)
    assert len(built) == 1


@pytest.mark.parametrize("name", [n for n in PUBLIC_CALLS if not n.startswith("eval_2f1")])
def test_evaluators_sum_through_the_kernel_not_eval_2f1(monkeypatch, name):
    # eval_2f1 is the checked public entry; the package never calls it
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called eval_2f1")

    monkeypatch.setattr(num, "eval_2f1", refuse)
    PUBLIC_CALLS[name]()


# -- scan verdicts on crafted values -------------------------------------------------

def _feed(monkeypatch, name, values, bound=0.0):
    """Make the scans' pair function ``numerics.<name>`` return the pairs
    (v, ``bound``) for ``values``, in call order."""
    fed = iter((v, bound) for v in values)
    monkeypatch.setattr(num, name, lambda *args, **kwargs: next(fed))


def test_scan_monotonicity_violation_witness(monkeypatch):
    _feed(monkeypatch, "_iso_from_t", [1.0, 2.0, 3.0, 2.5, 4.0], bound=0.1)
    report = scan_monotonicity("iso", grid=5)
    assert [row[3] for row in report.rows] == ["", "ok", "ok", "violation", "ok"]
    assert (report.violations, report.inconclusive) == (1, 0)
    assert report.witnesses == [report.rows[3][0]]
    assert not report.passed


def test_scan_monotonicity_inconclusive_pair(monkeypatch):
    _feed(monkeypatch, "_iso_from_t", [1.0, 1.05, 2.0], bound=0.1)
    report = scan_monotonicity("iso", grid=3)
    assert [row[3] for row in report.rows] == ["", "inconclusive", "ok"]
    assert (report.violations, report.inconclusive) == (0, 1)
    assert report.witnesses == []
    assert report.passed


def test_scan_monotonicity_constant_w_conclusive_change(monkeypatch):
    # a = 1 expects a constant w: any conclusive difference is a violation
    _feed(monkeypatch, "_w", [1.0, 1.0, 1.5, 1.5 + 1e-3], bound=1e-3)
    report = scan_monotonicity("w", grid=4, a=rat(1))
    assert [row[3] for row in report.rows] == ["", "ok", "violation", "ok"]
    assert report.witnesses == [report.rows[2][0]]
    assert not report.passed


def test_scan_convexity_wrong_sign_second_difference(monkeypatch):
    # second differences 0, -0.2 and +0.4: undecided, concave, then convex
    _feed(monkeypatch, "_iso_from_t", [0.5, 1.0, 1.5, 1.8, 2.5])
    report = scan_convexity("iso_sqrt", grid=5)
    assert [row[3] for row in report.rows] == ["", "inconclusive", "ok", "violation", ""]
    assert (report.violations, report.inconclusive) == (1, 1)
    assert not report.passed
    assert report.sign_change_detected is None


def test_scan_convexity_one_sign_only(monkeypatch):
    _feed(monkeypatch, "_iso_from_t", [1.0, 1.1, 1.3, 1.6, 2.0], bound=1e-3)
    report = scan_convexity("iso", grid=5)
    assert [row[3] for row in report.rows] == ["", "positive", "positive", "positive", ""]
    assert report.sign_change_detected is False
    assert report.witnesses == [report.rows[1][0]]
    assert not report.passed
    summary = report.to_summary()
    assert summary["sign_change_detected"] is False
    assert summary["witnesses"] == report.witnesses
