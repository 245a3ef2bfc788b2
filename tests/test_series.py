"""Exact power-series layer: ring operations, calculus, special series,
error conditions, and randomized algebraic-law checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    binomial_series,
    format_rational,
    hypergeometric_series,
    one_minus_x_power,
    parse_rational,
    perturbed,
    poly_mul,
    rat,
    sample_parameters,
    series_pow,
)

ORDER = 12


def geometric(order=ORDER):
    # 1/(1-x)
    return PowerSeries.from_polynomial((1,), order) / PowerSeries.from_polynomial((1, -1), order)


# -- rationals ---------------------------------------------------------------

def test_rat_and_parse():
    assert rat(3, 6) == rat(1, 2)
    assert parse_rational("7") == 7
    assert parse_rational(" -3/9 ") == rat(-1, 3)
    assert format_rational(rat(4, 2)) == "2"
    assert format_rational(rat(-5, 10)) == "-1/2"
    assert parse_rational(format_rational(rat(451625, 16))) == rat(451625, 16)


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


def test_truncate_and_order_too_low():
    s = PowerSeries.from_polynomial((1, 2, 3), 5)
    assert s.truncate(2).coefficients == (1, 2, 3)
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


def test_poly_mul():
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert poly_mul((2,), (3, 4)) == (6, 8)


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
    assert one_minus_x_power(-1, 6).coefficients == (1,) * 7


def test_series_pow_matches_binomial():
    base = PowerSeries.from_polynomial((1, 1), ORDER)
    for alpha in (rat(1, 2), rat(-3, 2), rat(5), rat(-2, 7)):
        assert series_pow(base, alpha).coefficients == binomial_series(alpha, ORDER).coefficients


def test_series_pow_dense_base():
    base = geometric()  # 1/(1-x), constant term 1
    got = series_pow(base, rat(-2))
    want = PowerSeries.from_polynomial(poly_mul((1, -1), (1, -1)), ORDER)
    assert got.coefficients == want.coefficients
    with pytest.raises(DivisionByNonUnit):
        series_pow(PowerSeries.from_polynomial((2, 1), 4), rat(1, 2))


# -- hypergeometric specs --------------------------------------------------------

def test_hypergeometric_series_oracle():
    # 2F1(-1/2,-1/2;1;x): rising-factorial evaluation for n <= 5
    spec = HypergeometricSpec(rat(-1, 2), rat(-1, 2), rat(1))
    s = hypergeometric_series(spec, 5)
    assert s.coefficients[0] == 1
    assert s.coefficients[1] == rat(1, 4)
    assert s.coefficients[2] == rat(1, 64)
    for n in range(6):
        assert s.coefficients[n] == spec.coefficient(n)


def test_term_ratio_consistent_with_coefficient():
    spec = HypergeometricSpec(rat(1, 3), rat(-2, 5), rat(7, 2))
    for n in range(10):
        assert spec.coefficient(n + 1) == spec.coefficient(n) * spec.term_ratio(n)


def test_invalid_lower_parameter():
    with pytest.raises(InvalidLowerParameter):
        HypergeometricSpec(rat(1), rat(1), rat(0))
    with pytest.raises(InvalidLowerParameter):
        HypergeometricSpec(rat(1), rat(1), rat(-3))
    HypergeometricSpec(rat(1), rat(1), rat(-1, 2))  # non-integer negatives are fine


def test_geometric_is_2f1_1_1_1():
    spec = HypergeometricSpec(rat(1), rat(1), rat(1))
    assert hypergeometric_series(spec, 8).coefficients == (1,) * 9


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


def test_perturbed():
    s = PowerSeries.from_polynomial((1, 2, 3), 2)
    p = perturbed(s, 1, rat(1, 2))
    assert p.coefficients == (1, rat(5, 2), 3)
    assert s.coefficients == (1, 2, 3)  # original untouched


def test_sample_parameters_distinct_and_excluding():
    samples = sample_parameters(50, exclude=(rat(1),))
    assert len(set(samples)) == 50
    assert rat(1) not in samples
    assert all(s != 0 for s in samples)


def test_sample_parameters_rejects_counts_below_one(time_limit):
    time_limit(2.0)  # a count below 1 used to loop forever
    for count in (0, -1):
        with pytest.raises(ValueError):
            sample_parameters(count)
    assert sample_parameters(1) == [rat(1)]


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


@settings(max_examples=150, deadline=None)
@given(kernel_series, points)
def test_evaluate_matches_rational_horner(s, point):
    p = rat(point.numerator, point.denominator)
    assert s.evaluate(p) == rational_horner(s, p)
