"""Exact power-series layer: ring operations, calculus, special series,
error conditions, and randomized algebraic-law checks."""

import itertools
import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isotorus import series as series_module
from isotorus.series import (
    CompositionRequiresZeroConstant,
    DifferentialOperator,
    DivisionByNonUnit,
    HypergeometricSpec,
    InvalidLowerParameter,
    OrderTooLow,
    PowerSeries,
    Rational,
    SeriesError,
    _int_mul,
    _schoolbook,
    binomial_series,
    parse_rational,
    perturbed,
    power_product,
    rat,
    series_pow,
)

ORDER = 12


def one_minus_x_to(alpha, order):
    """(1-x)^alpha: series_pow of 1 - x."""
    return series_pow(PowerSeries.from_polynomial((1, -1), order), alpha)


def geometric(order=ORDER):
    # 1/(1-x)
    return PowerSeries.from_polynomial((1,), order) / PowerSeries.from_polynomial((1, -1), order)


# -- rationals ---------------------------------------------------------------

def test_rat_and_parse():
    assert rat(3, 6) == rat(1, 2)
    assert parse_rational("7") == 7
    assert parse_rational(" -3/9 ") == rat(-1, 3)


# -- construction and views ---------------------------------------------------

def test_constructors_and_order():
    s = PowerSeries.from_polynomial((1, 2), 4)
    assert s.order == 4
    assert s.coefficients == (1, 2, 0, 0, 0)
    assert PowerSeries.zero(3).is_zero()
    assert PowerSeries.one(3)[0] == 1
    assert PowerSeries.identity(3)[1] == 1
    with pytest.raises(SeriesError):
        PowerSeries(())
    with pytest.raises(SeriesError, match="constant term"):
        PowerSeries.from_integers((), 1)
    with pytest.raises(ZeroDivisionError):
        PowerSeries.from_integers((1, 2), 0)


# every constructor and generator that takes an order, from that order alone
ORDER_TAKERS = {
    "zero": PowerSeries.zero,
    "one": PowerSeries.one,
    "from_polynomial": partial(PowerSeries.from_polynomial, (1, 2)),
    "hypergeometric": HypergeometricSpec(1, 1, 1).series,
    "binomial": partial(binomial_series, rat(1, 2)),
    "one_minus_x_power": partial(one_minus_x_to, rat(-3, 2)),  # series_pow of 1 - x
    "power_product": partial(power_product, (((1, -6, 1), rat(1, 2)), ((1, 1), -3))),
    "series_solution": partial(DifferentialOperator(((-1,), (1,))).series_solution, 1),
    "truncate": PowerSeries.from_polynomial((1, 2), 3).truncate,
}


@pytest.mark.parametrize("order, error", [
    (-1, OrderTooLow), (-5, OrderTooLow),
    (2.5, TypeError), (3.0, TypeError), (True, TypeError), ("5", TypeError), (None, TypeError),
])
@pytest.mark.parametrize("taker", sorted(ORDER_TAKERS))
def test_bad_order_is_refused_before_any_work(monkeypatch, taker, order, error):
    # one error per cause, raised before any recurrence is solved
    def refuse(*args):
        raise AssertionError("a recurrence was solved before the order was checked")

    monkeypatch.setattr(series_module, "_recurrence", refuse)
    with pytest.raises(error, match=r"^order must be"):
        ORDER_TAKERS[taker](order)


def test_truncate_and_order_too_low():
    s = PowerSeries.from_polynomial((1, 2, 3), 5)
    assert s.truncate(2).coefficients == (1, 2, 3)
    assert s.truncate(0).coefficients == (1,)
    with pytest.raises(OrderTooLow):
        s.truncate(9)


def test_min_order_propagation():
    a = PowerSeries.from_polynomial((1, 1), 10)
    b = PowerSeries.from_polynomial((1, 1), 4)
    assert (a + b).order == 4
    assert (a * b).order == 4
    assert (a - b).order == 4
    assert (a / b).order == 4


# -- arithmetic against hand oracles ------------------------------------------

def test_geometric_series_division():
    assert geometric().coefficients == (1,) * (ORDER + 1)


def test_mul_oracle():
    # (1+x)^2 = 1 + 2x + x^2
    s = PowerSeries.from_polynomial((1, 1), 4)
    assert (s * s).coefficients == (1, 2, 1, 0, 0)


def test_division_errors():
    unit = PowerSeries.one(3)
    nonunit = PowerSeries.identity(3)
    with pytest.raises(DivisionByNonUnit):
        unit / nonunit


def test_derivative_and_compose():
    s = PowerSeries.from_polynomial((5, 0, 3), 4)  # 5 + 3x^2
    assert s.derivative().coefficients == (0, 6, 0, 0)
    inner = PowerSeries.from_polynomial((0, 2), 4)  # 2x
    assert s.compose(inner).coefficients == (5, 0, 12, 0, 0)
    with pytest.raises(CompositionRequiresZeroConstant):
        s.compose(PowerSeries.one(4))
    with pytest.raises(OrderTooLow):
        PowerSeries.from_polynomial((1,), 0).derivative()


def test_evaluate_horner():
    s = PowerSeries.from_polynomial((1, 2, 3), 2)
    assert s.evaluate(rat(1, 2)) == rat(1) + 1 + rat(3, 4)


# -- special series ------------------------------------------------------------

def test_binomial_square_root_squares_back():
    # (1+x)^(1/2) squared reproduces 1+x
    half = binomial_series(rat(1, 2), ORDER)
    assert (half * half).coefficients == PowerSeries.from_polynomial((1, 1), ORDER).coefficients
    assert half.coefficients[:3] == (1, rat(1, 2), rat(-1, 8))


def test_binomial_inverse_pair():
    prod = binomial_series(rat(2, 3), ORDER) * binomial_series(rat(-2, 3), ORDER)
    assert prod.coefficients == PowerSeries.one(ORDER).coefficients


def test_one_minus_x_power_geometric():
    assert one_minus_x_to(-1, 6).coefficients == (1,) * 7


def test_series_pow_matches_binomial():
    # binomial_series is series_pow of 1 + x, so compare with the Fraction
    # recurrence C(alpha, n+1) = C(alpha, n) (alpha - n) / (n + 1)
    base = PowerSeries.from_polynomial((1, 1), ORDER)
    for alpha in (rat(1, 2), rat(-3, 2), rat(5), rat(-2, 7)):
        assert series_pow(base, alpha).coefficients == ref_binomial(alpha, ORDER)


def test_series_pow_dense_base():
    base = geometric()  # 1/(1-x), constant term 1
    got = series_pow(base, rat(-2))
    want = PowerSeries.from_polynomial((1, -2, 1), ORDER)
    assert got.coefficients == want.coefficients
    with pytest.raises(DivisionByNonUnit):
        series_pow(PowerSeries.from_polynomial((2, 1), 4), rat(1, 2))


# -- hypergeometric specs --------------------------------------------------------

def term_ratio(spec, n):
    """Exact ratio t_{n+1}/t_n of consecutive Gauss-series coefficients."""
    return (spec.a + n) * (spec.b + n) / ((spec.c + n) * (n + 1))


def rising_factorial_coefficient(spec, n):
    """Direct rising-factorial evaluation (a)_n (b)_n / ((c)_n n!)."""
    num = den = Fraction(1)
    for k in range(n):
        num *= (spec.a + k) * (spec.b + k)
        den *= (spec.c + k) * (k + 1)
    return num / den


def test_hypergeometric_series_oracle():
    # 2F1(-1/2,-1/2;1;x): rising-factorial evaluation for n <= 5
    spec = HypergeometricSpec(rat(-1, 2), rat(-1, 2), rat(1))
    s = spec.series(5)
    assert s.coefficients[0] == 1
    assert s.coefficients[1] == rat(1, 4)
    assert s.coefficients[2] == rat(1, 64)
    for n in range(6):
        assert s.coefficients[n] == rising_factorial_coefficient(spec, n)


def test_term_ratio_consistent_with_coefficient():
    # the two references agree, and series() with them, at a triple with a != b
    spec = HypergeometricSpec(rat(1, 3), rat(-2, 5), rat(7, 2))
    coeffs = [rising_factorial_coefficient(spec, n) for n in range(11)]
    assert spec.series(10).coefficients == tuple(coeffs)
    for n in range(10):
        assert coeffs[n + 1] == coeffs[n] * term_ratio(spec, n)


def test_invalid_lower_parameter():
    with pytest.raises(InvalidLowerParameter):
        HypergeometricSpec(rat(1), rat(1), rat(0))
    with pytest.raises(InvalidLowerParameter):
        HypergeometricSpec(rat(1), rat(1), rat(-3))
    HypergeometricSpec(rat(1), rat(1), rat(-1, 2))  # non-integer negatives are fine


def test_geometric_is_2f1_1_1_1():
    spec = HypergeometricSpec(rat(1), rat(1), rat(1))
    assert spec.series(8).coefficients == (1,) * 9


# -- differential operators -------------------------------------------------------

def test_operator_annihilates_exponential_like():
    # (d/dx - 1) applied to the truncated exp series is zero through order-1
    order = 10
    coeffs = [rat(1)]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] / n)
    e = PowerSeries(tuple(coeffs))
    op = DifferentialOperator(((-1,), (1,)))
    assert op.apply(e).is_zero()


def test_operator_order_and_errors():
    op = DifferentialOperator(((1,), (0, 1), (1, 2)))
    assert op.operator_order == 2
    with pytest.raises(OrderTooLow):
        op.apply(PowerSeries.from_polynomial((1,), 1))
    with pytest.raises(SeriesError):
        DifferentialOperator(((1,), (0,)))


def test_recurrence_keeps_only_the_denominator_the_coefficients_need():
    # c_0(n) y_n = sum_k d_k(n) y_(n-k) solved in Fractions, against the
    # kernel's integers: the same values, over a positive denominator that
    # divides w prod |c_0(n)|, with leads of both signs, steps where the sum
    # is 0 and up to three terms reaching back five steps
    rng = random.Random(5)
    for _ in range(60):
        order = rng.randrange(0, 30)
        lead = [0] + [rng.choice((1, -1)) * rng.randrange(1, 50) for _ in range(order)]
        terms = [(k, [rng.randrange(-3, 4) * rng.randrange(0, 8) for _ in range(order + 1)])
                 for k in sorted(rng.sample(range(1, 6), rng.randrange(1, 4)))]
        y0 = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        y = [y0]
        for n in range(1, order + 1):
            y.append(sum((d[n] * y[n - k] for k, d in terms if k <= n), Fraction(0)) / lead[n])
        s = series_module._recurrence(lead, terms, y0)
        assert s.coefficients == tuple(y)
        assert s._den > 0 and y0.denominator * math.prod(map(abs, lead[1:])) % s._den == 0


def test_tables_by_differences_match_horner():
    # _at_each builds each table from forward differences: the values of _at
    # at every point, for degrees 0 to 6, ranges shorter than the degree and
    # ranges that start below 0
    rng = random.Random(11)
    for _ in range(300):
        poly = [rng.randrange(-50, 51) for _ in range(rng.randrange(0, 7))]
        start = rng.randrange(-5, 5)
        ns = range(start, start + rng.randrange(0, 30))
        assert series_module._at_each(poly, ns) == [series_module._at(poly, n) for n in ns], (poly, ns)


def test_series_solution_from_the_recurrence():
    # y' - y = 0: exp, coefficient k is 1/k!
    exp = DifferentialOperator(((-1,), (1,))).series_solution(rat(3, 2), 12)
    assert canonical(exp).coefficients == tuple(rat(3, 2) / math.factorial(k) for k in range(13))
    # (1 - z) y' - y/2 = 0 with rational operator coefficients: (1-z)^(-1/2)
    op = DifferentialOperator(((rat(-1, 2),), (1, -1)))
    assert canonical(op.series_solution(1, 20)).coefficients == ref_binomial(rat(-1, 2), 20, -1)
    # z y' + y = 0: the leading coefficient n + 1 is nonzero at 0, so only
    # the zero series solves it
    assert DifferentialOperator(((1,), (0, 1))).series_solution(0, 5) == PowerSeries.zero(5)
    assert exp.order == 12 and DifferentialOperator(((-1,), (1,))).series_solution(1, 0).order == 0


def test_series_solution_refuses_a_vanishing_leading_coefficient():
    # z y'' - y' = 0: leading coefficient n(n-2), so y = 1 + c z^2 for any c
    op = DifferentialOperator(((), (-1,), (0, 1)))
    assert op.series_solution(1, 1) == PowerSeries.one(1)
    with pytest.raises(SeriesError, match="vanishes at n = 2"):
        op.series_solution(1, 2)
    # z y' + y = 0 has no power-series solution with y(0) != 0
    with pytest.raises(SeriesError, match="nonzero constant term"):
        DifferentialOperator(((1,), (0, 1))).series_solution(1, 5)
    with pytest.raises(OrderTooLow):
        op.series_solution(1, -1)


def test_perturbed():
    s = PowerSeries.from_polynomial((1, 2, 3), 2)
    p = perturbed(s, 1, rat(1, 2))
    assert p.coefficients == (1, rat(5, 2), 3)
    assert s.coefficients == (1, 2, 3)  # original untouched


# -- randomized algebraic laws ------------------------------------------------------

small_rat = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def to_series(fracs, order=8):
    return PowerSeries.from_polynomial([rat(f.numerator, f.denominator) for f in fracs], order)


series_strategy = st.lists(small_rat, min_size=1, max_size=9).map(to_series)


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_ring_axioms(a, b, c):
    assert (a + b).coefficients == (b + a).coefficients
    assert ((a + b) + c).coefficients == (a + (b + c)).coefficients
    assert (a * b).coefficients == (b * a).coefficients
    assert ((a * b) * c).coefficients == (a * (b * c)).coefficients
    assert (a * (b + c)).coefficients == (a * b + a * c).coefficients
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy)
def test_div_mul_roundtrip(a, b):
    if b.coefficients[0] == 0:
        with pytest.raises(DivisionByNonUnit):
            a / b
    else:
        assert ((a / b) * b).coefficients == a.coefficients


@settings(max_examples=40, deadline=None)
@given(series_strategy)
def test_compose_with_identity(a):
    assert a.compose(PowerSeries.identity(a.order)).coefficients == a.coefficients


@settings(max_examples=40, deadline=None)
@given(series_strategy, series_strategy)
def test_product_rule(a, b):
    lhs = (a * b).derivative()
    rhs = a.derivative() * b.truncate(b.order - 1) + a.truncate(a.order - 1) * b.derivative()
    n = min(lhs.order, rhs.order)
    assert lhs.truncate(n).coefficients == rhs.truncate(n).coefficients


# -- integer kernel against plain rational loops --------------------------------------

coefficient = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(rat, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 30)),
)
kernel_series = st.one_of(
    st.lists(coefficient, min_size=1, max_size=30).map(
        lambda cs: PowerSeries(tuple(rat(c.numerator, c.denominator) for c in cs))
    ),
    st.integers(0, 30).map(PowerSeries.zero),
)
points = st.one_of(
    st.just(0),
    st.fractions(min_value=-3, max_value=3, max_denominator=50),
    st.builds(rat, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20)),
)


def rational_convolution(a, b):
    n = min(a.order, b.order)
    out = []
    for m in range(n + 1):
        acc = Rational(0)
        for k in range(m + 1):
            acc += a[k] * b[m - k]
        out.append(acc)
    return tuple(out)


def rational_horner(s, point):
    acc = Rational(0)
    for c in reversed(s.coefficients):
        acc = acc * point + c
    return acc


@settings(max_examples=150, deadline=None)
@given(kernel_series, kernel_series)
def test_mul_matches_rational_convolution(a, b):
    assert (a * b).coefficients == rational_convolution(a, b)


BIT_SHAPES = {
    "rising": lambda k, n: k,
    "falling": lambda k, n: n - 1 - k,
    "v": lambda k, n: abs(2 * k - (n - 1)),
}


def extremal_operand(length, shape, base, step, signs, rng):
    """Coefficients +-(2^(b_k) - 1), the largest magnitudes of their bit
    lengths b_k = base + step * shape(k), with signs all +, alternating or
    random."""
    out = []
    for k in range(length):
        v = (1 << (base + step * BIT_SHAPES[shape](k, length))) - 1
        sign = {"+": 1, "alt": (-1) ** k, "random": rng.choice((1, -1))}[signs]
        out.append(sign * v)
    return out


@pytest.mark.parametrize("shape_a", BIT_SHAPES)
@pytest.mark.parametrize("shape_b", BIT_SHAPES)
def test_int_mul_matches_fraction_convolution_on_extremal_operands(shape_a, shape_b):
    # the digit width follows the kept coefficients, so operands whose
    # coefficient sizes rise, fall or dip are the ones that could overflow it.
    # Rising times rising with all signs + puts n+1 equal-size terms in
    # coefficient n, which meets the width bound; a's eight consecutive bases
    # meet it at every bit residue of the whole-byte digit.
    rng = random.Random(f"{shape_a}-{shape_b}")
    lengths = ((1, 1), (1, 60), (60, 1), (2, 3), (7, 13), (31, 32), (45, 17), (24, 60))
    cases = [(base, 1, "+") for base in range(1, 9)] + [(5, 3, "alt"), (33, 1, "random")]
    for (la, lb), (base, step, signs) in itertools.product(lengths, cases):
        a = extremal_operand(la, shape_a, base, step, signs, rng)
        b = extremal_operand(lb, shape_b, 3, step, signs, rng)
        full = la + lb - 2
        expected = [sum((Fraction(a[i]) * b[m - i] for i in range(max(0, m - lb + 1), min(m, la - 1) + 1)),
                        Fraction(0)) for m in range(full + 2)]
        for n in sorted({0, min(la, lb) - 1, max(la, lb) - 1, full, full + 1}):
            assert _int_mul(a, b, n) == expected[: n + 1], (la, lb, base, step, signs, n)


def test_int_mul_ks2_recombines_even_and_odd_coefficients():
    # KS2 takes the even coefficients from the half sum of the products at
    # +2^w and -2^w and the odd ones from the half difference: check n = 0,
    # n = 1 and odd and even n, on operands of odd and even length whose
    # coefficients are the largest of their bit lengths, with signs all +,
    # alternating, random and all -
    rng = random.Random(7)
    for la, lb in ((1, 1), (2, 2), (3, 2), (2, 5), (8, 8), (9, 9), (16, 17), (41, 41)):
        for base, step, signs in ((1, 1, "+"), (6, 3, "alt"), (90, 1, "random"), (200, 0, "+")):
            for sign in (1, -1):
                a = [sign * v for v in extremal_operand(la, "rising", base, step, signs, rng)]
                b = [sign * v for v in extremal_operand(lb, "falling", base, step, signs, rng)]
                ns = sorted({0, 1, 2, 3, la - 1, lb - 1, la + lb - 2, la + lb - 1})
                expected = [sum((Fraction(a[i]) * b[m - i] for i in range(la) if 0 <= m - i < lb),
                                Fraction(0)) for m in range(ns[-1] + 1)]
                for n in ns:
                    assert _int_mul(a, b, n) == expected[: n + 1], (la, lb, base, signs, sign, n)


def test_schoolbook_matches_ks2_on_extremal_operands():
    # a product through fewer than 16 powers is the double loop: the same
    # coefficients as KS2, with zero coefficients skipped and signs mixed
    rng = random.Random(16)
    for la, lb in ((1, 1), (2, 9), (9, 2), (16, 16), (5, 11)):
        for base, step, signs in ((1, 1, "+"), (6, 3, "alt"), (90, 1, "random")):
            a = extremal_operand(la, "rising", base, step, signs, rng)
            b = extremal_operand(lb, "v", base, step, signs, rng)
            a[la // 2] = 0
            for n in sorted({0, 1, la - 1, lb - 1, la + lb - 2}):
                assert _schoolbook(a, b, n) == _int_mul(a, b, n), (la, lb, base, signs, n)


def test_short_products_take_the_double_loop(monkeypatch):
    # through z^15 no KS2 product is taken; from z^16 on one is
    calls = []
    monkeypatch.setattr(series_module, "_int_mul", lambda *args: calls.append(args[2]) or _int_mul(*args))
    for order in (8, 15, 16):
        a, b = (PowerSeries([rat(k + 1, k + 2 + s) for k in range(order + 1)]) for s in (0, 3))
        assert (a * b).coefficients == tuple(
            sum((a[i] * b[m - i] for i in range(m + 1)), Rational(0)) for m in range(order + 1))
    assert calls == [16]


def test_short_factors_match_rational_convolution():
    # a factor with at most four nonzero coefficients, on either side of the
    # product and whatever the other's length, by the double loop or by KS2
    dense = PowerSeries([rat(3 * k - 7, k + 2) for k in range(14)])
    shorts = ((1, -1), (0, 1), (rat(-5, 3), rat(2, 7)), (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9),
              (1, 0, -6, 0, 1), (2, -6, 6, -2), (0,), (-1, 0, 0, 4))
    for coeffs in shorts:
        for order in (0, 3, 13, 20):
            short = PowerSeries.from_polynomial(coeffs, order)
            assert canonical(short * dense).coefficients == rational_convolution(short, dense)
            assert canonical(dense * short).coefficients == rational_convolution(dense, short)


def test_results_are_reduced_only_at_the_edge():
    # an operation keeps the common factor of its integers; the public form,
    # == and hash reduce it
    s = PowerSeries.from_integers((2, 4), 6)
    assert (s.nums, s.den) == ((1, 2), 3)
    tripled = s.scale(3)
    assert tripled._den == 3 and (tripled.nums, tripled.den) == ((1, 2), 1)
    assert tripled == PowerSeries((1, 2)) and hash(tripled) == hash(PowerSeries((1, 2)))
    assert tripled != s and s.scale(1) == s
    with pytest.raises(AttributeError):
        s.den = 1


@settings(max_examples=150, deadline=None)
@given(kernel_series, points)
def test_evaluate_matches_rational_horner(s, point):
    p = rat(point.numerator, point.denominator)
    assert s.evaluate(p) == rational_horner(s, p)


# -- integer storage against plain Fraction references ------------------------------

def canonical(s):
    """Assert the stored form invariant and return the series."""
    assert s.den > 0
    assert math.gcd(s.den, *s.nums) == 1
    assert len(s.nums) == len(s.coefficients)
    return s


def ref_div(a, b):
    n = min(len(a), len(b))
    q = []
    for m in range(n):
        acc = a[m] - sum((b[k] * q[m - k] for k in range(1, m + 1)), Fraction(0))
        q.append(acc / b[0])
    return tuple(q)


def ref_pow(s, alpha):
    p = [Fraction(1)]
    for n in range(1, len(s)):
        acc = sum((((alpha + 1) * k - n) * s[k] * p[n - k] for k in range(1, n + 1)), Fraction(0))
        p.append(acc / n)
    return tuple(p)


def ref_binomial(alpha, order, sign=1):
    out = [Fraction(1)]
    for n in range(1, order + 1):
        out.append(out[-1] * (alpha - (n - 1)) / n * sign)
    return tuple(out)


def ref_hyp(a, b, c, order):
    out = [Fraction(1)]
    for k in range(order):
        out.append(out[-1] * (a + k) * (b + k) / ((c + k) * (k + 1)))
    return tuple(out)


huge = st.builds(Fraction, st.integers(-10 ** 60, 10 ** 60), st.integers(1, 10 ** 45))
exact_series = st.one_of(
    st.lists(st.one_of(coefficient, huge), min_size=1, max_size=25).map(PowerSeries),
    st.integers(0, 25).map(PowerSeries.zero),
)
unit_series = st.lists(st.one_of(coefficient, huge), min_size=0, max_size=20).map(
    lambda cs: PowerSeries([1] + cs)
)
parameter = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=40),
    st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 12)),
)
lower_parameter = parameter.filter(lambda c: not (c <= 0 and c.denominator == 1))


@settings(max_examples=150, deadline=None)
@given(exact_series, exact_series, parameter)
def test_ring_operations_match_fraction_reference(a, b, factor):
    x, y = a.coefficients, b.coefficients
    assert canonical(a + b).coefficients == tuple(p + q for p, q in zip(x, y))
    assert canonical(a - b).coefficients == tuple(p - q for p, q in zip(x, y))
    assert canonical(-a).coefficients == tuple(-p for p in x)
    assert canonical(a.scale(factor)).coefficients == tuple(factor * p for p in x)
    if a.order >= 1:
        assert canonical(a.derivative()).coefficients == tuple(k * x[k] for k in range(1, len(x)))
    for order in range(a.order + 1):
        assert canonical(a.truncate(order)).coefficients == x[: order + 1]
    if y[0] != 0:
        assert canonical(a / b).coefficients == ref_div(x, y)


@settings(max_examples=100, deadline=None)
@given(unit_series, parameter.filter(lambda f: abs(f.numerator) < 10 ** 6))
def test_series_pow_matches_fraction_reference(s, alpha):
    assert canonical(series_pow(s, alpha)).coefficients == ref_pow(s.coefficients, alpha)


def ref_product(x, y):
    return tuple(sum((x[k] * y[m - k] for k in range(m + 1)), Fraction(0)) for m in range(min(len(x), len(y))))


@pytest.mark.parametrize("exponents", [
    (rat(-1, 2), rat(1, 2), rat(-3, 2)),
    (rat(-2), rat(5, 2), rat(0)),
    (rat(7, 3), rat(-9, 4), rat(-1)),
    (rat(1), rat(1), rat(1)),
])
def test_power_product_matches_fraction_reference(exponents):
    # prod f_i^alpha_i, each power from the Fraction recurrence of ref_pow and
    # the powers multiplied as Fractions, at negative and half-integer exponents
    polys = ((1, -6, 1), (1, -1), (1, 3, 0, -2))
    for order in (0, 1, 2, 17):
        want = (Fraction(1),) + (Fraction(0),) * order
        for poly, alpha in zip(polys, exponents):
            base = tuple(Fraction(c) for c in poly[: order + 1]) + (Fraction(0),) * (order + 1 - len(poly))
            want = ref_product(want, ref_pow(base, alpha))
        got = power_product(tuple(zip(polys, exponents)), order)
        assert canonical(got).coefficients == want, (exponents, order)
        # and one factor alone is series_pow
        alone = series_pow(PowerSeries.from_polynomial(polys[0], order), exponents[0])
        assert power_product(((polys[0], exponents[0]),), order) == alone
    assert power_product((), 3) == PowerSeries.one(3)
    with pytest.raises(DivisionByNonUnit):
        power_product((((2, 1), rat(1, 2)),), 4)


@settings(max_examples=100, deadline=None)
@given(parameter, st.integers(0, 40))
def test_binomial_generators_match_fraction_reference(alpha, order):
    assert canonical(binomial_series(alpha, order)).coefficients == ref_binomial(alpha, order)
    assert canonical(one_minus_x_to(alpha, order)).coefficients == ref_binomial(alpha, order, -1)


@settings(max_examples=150, deadline=None)
@given(parameter, parameter, lower_parameter, st.integers(0, 40))
def test_hypergeometric_series_matches_fraction_reference(a, b, c, order):
    s = HypergeometricSpec(a, b, c).series(order)
    assert canonical(s).coefficients == ref_hyp(a, b, c, order)


def test_generators_on_edge_parameters():
    # terminating series (a a negative integer), negative c numerators, alpha = 0
    for a, b, c in ((-3, rat(1, 2), rat(-5, 2)), (-1, -1, rat(-7, 3)), (0, 5, 1), (rat(-9, 4), 2, rat(-1, 2))):
        s = HypergeometricSpec(a, b, c).series(12)
        assert canonical(s).coefficients == ref_hyp(Fraction(a), Fraction(b), Fraction(c), 12)
    assert HypergeometricSpec(-3, 1, 1).series(10).nums[4:] == (0,) * 7
    assert binomial_series(0, 5) == PowerSeries.one(5)
    assert one_minus_x_to(3, 6).coefficients == (1, -3, 3, -1, 0, 0, 0)


@settings(max_examples=150, deadline=None)
@given(exact_series, st.integers(-10 ** 30, 10 ** 30).filter(bool))
def test_equal_series_have_equal_integer_forms(s, k):
    canonical(s)
    same = PowerSeries.from_integers([k * v for v in s.nums], k * s.den)
    assert (same.nums, same.den) == (s.nums, s.den)
    assert same == s and hash(same) == hash(s)
    assert PowerSeries(s.coefficients) == s
    assert PowerSeries.from_integers(s.nums, s.den) == s
    bumped = PowerSeries(s.coefficients[:-1] + (s.coefficients[-1] + 1,))
    assert bumped != s and (bumped.nums, bumped.den) != (s.nums, s.den)
    if s.is_zero():
        assert s.den == 1


# -- balanced-splitting evaluation against a plain Fraction Horner ------------------

eval_points = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=50),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)),
)


def random_coefficients(rng, n):
    """n coefficients, each zero, a small fraction or an 80-digit one, in
    proportions drawn per list."""
    kinds = (
        lambda: Fraction(0),
        lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 12)),
        lambda: Fraction(rng.randint(-10 ** 80, 10 ** 80), rng.choice((1, 2 ** 70, 3 ** 40))),
    )
    weights = [rng.random() for _ in kinds]
    return [kind() for kind in rng.choices(kinds, weights, k=n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.randoms(use_true_random=False), eval_points)
def test_evaluate_matches_fraction_horner_across_orders(n, rng, point):
    cs = random_coefficients(rng, n)
    expected = Fraction(0)
    for c in reversed(cs):
        expected = expected * point + c
    assert PowerSeries(cs).evaluate(point) == expected


# -- operator action from the coefficient recurrence ---------------------------------

def ref_apply(op, s):
    """sum_i p_i s^(i) through z^(order(s) - operator order), on Fractions by
    repeated differentiation and polynomial products."""
    out_order = s.order - op.operator_order
    out = [Fraction(0)] * (out_order + 1)
    deriv = list(s.coefficients)
    for i, poly in enumerate(op.poly_coeffs):
        if i:
            deriv = [k * deriv[k] for k in range(1, len(deriv))]
        for j, c in enumerate(poly):
            for p in range(j, out_order + 1):
                out[p] += c * deriv[p - j]
    return tuple(out)


operator_row = st.lists(st.one_of(st.just(0), coefficient), max_size=5)
operators = st.builds(
    lambda rows, lead: DifferentialOperator(tuple(rows) + (lead,)),
    st.lists(operator_row, max_size=3),
    st.lists(coefficient, min_size=1, max_size=5).filter(any),
)


@settings(max_examples=150, deadline=None)
@given(operators, st.lists(st.one_of(coefficient, huge), min_size=4, max_size=25).map(PowerSeries))
# rational coefficients, a zero row, and h = -2 below the operator order 2
@example(DifferentialOperator(((0, 0, rat(1, 3)), (0, 0), (0, 0, 0, 0, rat(-3, 2)))),
         PowerSeries([rat(k + 1, 7) for k in range(12)]))
# an empty row, and h = 1 below the operator order 3
@example(DifferentialOperator(((rat(5, 4),), (), (0, rat(2, 9)), (0, 0, 1, 1))),
         PowerSeries([(-2) ** k for k in range(10)]))
def test_apply_matches_the_derivative_chain(op, s):
    residual = op.apply(s)
    assert canonical(residual).order == s.order - op.operator_order
    assert residual.coefficients == ref_apply(op, s)


@settings(max_examples=60, deadline=None)
@given(parameter, parameter, lower_parameter, st.integers(2, 30))
def test_apply_annihilates_the_operator_solution(a, b, c, order):
    # z(1-z) y'' + (c - (a+b+1) z) y' - ab y = 0 is solved by 2F1(a, b; c; z)
    op = DifferentialOperator(((-a * b,), (c, -(a + b + 1)), (0, 1, -1)))
    y = op.series_solution(1, order)
    assert y == HypergeometricSpec(a, b, c).series(order)
    assert op.apply(y) == PowerSeries.zero(order - 2)
