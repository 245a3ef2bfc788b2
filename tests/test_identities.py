"""Identity layer: golden coefficients, ODE residuals, flux positivity, the
free-parameter identity suite, and mutation sensitivity."""

import copy
import hashlib
import inspect
import json
import math
import os
from functools import partial

import pytest

from isotorus import contiguity
from isotorus import identities as ident
from isotorus import series as series_module
from isotorus.contiguity import A, B, C, N, X, Rat, Reduction
from isotorus.series import (HypergeometricSpec, PowerSeries, binomial_series, parse_rational, perturbed,
                             power_product, rat, series_pow)

ORDER = 24  # fast unit-test order; the acceptance suite runs the pinned orders
SAMPLES = [rat(-1), rat(2), rat(-2), rat(1, 2), rat(-1, 2), rat(3), rat(-3), rat(1, 3)]


def inner_argument(order):
    """4z/(1-z)^2 = sum 4n z^n as an exact series."""
    return PowerSeries([4 * n for n in range(order + 1)])


def one_minus_x_to(alpha, order):
    """(1-x)^alpha as an exact series."""
    return series_pow(PowerSeries.from_polynomial((1, -1), order), alpha)


def test_expand_abar_golden():
    ab = ident.expand_abar(5)
    assert ab.coefficients == ident.ABAR_LEADING


def test_expand_vbar_golden():
    vb = ident.expand_vbar(5)
    assert vb.coefficients == ident.VBAR_LEADING


# sha256 digests of exact results, computed with the Fraction-per-coefficient
# series layer that preceded integer storage; f200, the input of the default
# positivity window, with the integer layer that preceded composition by
# prefix sums; verify12 and verify40, the reports of ``verify_all`` at those
# orders (40 is the order ``isotorus verify --order 40`` runs), since
# id_hyp too is reduced for all parameters, with the Euler transform as its
# lemma, and since f_positivity names its flux-operator lemma: each time the
# earlier reports with that one report changed, the other ten byte for byte
# the same.  Any change to an exact result changes its digest.
GOLDEN_DIGESTS = {
    "abar250": "43cbaa1f6cffb7bb4d74d099bffbb8381e89eb8fdf47a1eb7a5a203113e5aeb7",
    "vbar250": "78db2b07b70e6554cc9c40ddd2d58f43e62f69c282a261fa2ee021f78e75fef9",
    "f120": "ecdafdc2a7f049f30f6a0105fe711e7b8296abec33faa305b7c33d442788a17a",
    "f200": "79cfc1dce692025a0bedddba23db0cea5c17b3d027b83e50d0756af755165563",
    "verify12": "c38b4d03b9c085c469593491318d7cfe7e0a4356d39eaaed6716301a8450f5c0",
    "verify40": "cad63d984eeb15bce425a03a19bec7d6fd1162901f65faccab3b1bc9ca7535e5",
}


def test_exact_results_match_golden_digests():
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    got = {
        "abar250": digest("\n".join(ident.expand_abar(250).to_strings())),
        "vbar250": digest("\n".join(ident.expand_vbar(250).to_strings())),
        "f120": digest("\n".join(ident.expand_f(120).to_strings())),
        "f200": digest("\n".join(ident.expand_f(200).to_strings())),
        "verify12": digest(json.dumps([r.to_dict() for r in ident.verify_all(12)])),
        "verify40": digest(json.dumps([r.to_dict() for r in ident.verify_all(40)])),
    }
    assert got == GOLDEN_DIGESTS


def test_operator_solutions_match_golden_digests():
    # the recurrences of the printed operators, from a_0 alone, give the
    # closed-form expansions exactly
    def digest(series):
        return hashlib.sha256("\n".join(series.to_strings()).encode()).hexdigest()

    abar = ident.ABAR_OPERATOR.series_solution(4, 250)
    vbar = ident.VBAR_OPERATOR.series_solution(2, 250)
    assert digest(abar) == GOLDEN_DIGESTS["abar250"]
    assert digest(vbar) == GOLDEN_DIGESTS["vbar250"]
    assert ident.verify_odes(40, abar.truncate(40), vbar.truncate(40)).verified


def test_poly_expands_factored_products():
    assert ident._poly((1, 1), (1, -1)) == (1, 0, -1)
    assert ident._poly((2,), (3, 4)) == (6, 8)
    assert ident._poly() == (1,)


def test_report_formats_rationals_as_parse_rational_reads_them():
    samples = (rat(4, 2), rat(-5, 10), rat(451625, 16))
    out = ident.IdentityReport("id_war", 4, "degree-bound", samples).to_dict()["samples"]
    assert out == ["2", "-1/2", "451625/16"]
    assert [parse_rational(s) for s in out] == list(samples)


def test_first_mismatch_on_integer_forms():
    # equal through order 1, different denominators beyond it
    lhs = PowerSeries((1, rat(1, 2), rat(1, 3)))
    assert ident._first_mismatch(lhs, PowerSeries((1, rat(1, 2))), 1) is None
    assert ident._first_mismatch(lhs, PowerSeries((1, rat(1, 2), rat(1, 5))), 2) == (2, rat(2, 15))
    assert ident._first_mismatch(lhs, PowerSeries((1, rat(3, 2), rat(1, 3))), 2) == (1, rat(-1))


def test_expansion_prefactor_constant_terms():
    # constant terms of the closed forms: 4 and 2
    assert ident.expand_abar(0).coefficients == (4,)
    assert ident.expand_vbar(0).coefficients == (2,)


def test_inner_argument_expansion():
    # 4z/(1-z)^2 = sum 4n z^n, the inner series the composition tests use
    num = PowerSeries.from_polynomial((0, 4), 6)
    den = PowerSeries.from_polynomial((1, -2, 1), 6)
    assert (num / den).coefficients == inner_argument(6).coefficients


def test_fast_composition_matches_generic():
    hyp = HypergeometricSpec(rat(-3, 2), rat(1, 3), rat(2)).series(18)
    fast = ident._compose_with_inner_argument(hyp, 18)
    slow = hyp.compose(inner_argument(18))
    assert fast.coefficients == slow.coefficients


def test_fast_composition_matches_generic_id_war_order():
    # the compositions verify_id_war builds, at the order it runs them
    for a in (rat(1, 2), rat(-2, 3), rat(3)):
        w = ident._w_series(a, 41)
        fast = ident._compose_with_inner_argument(w, 41)
        slow = w.compose(inner_argument(41))
        assert fast.coefficients == slow.coefficients


def test_fast_composition_matches_generic_at_low_and_truncated_orders():
    # orders 0-2, outer series exactly that long and longer (outer.order > order)
    hyp = HypergeometricSpec(rat(-3, 2), rat(1, 3), rat(2)).series(9)
    for order in (0, 1, 2):
        slow = hyp.truncate(order).compose(inner_argument(order))
        for outer in (hyp.truncate(order), hyp):
            fast = ident._compose_with_inner_argument(outer, order)
            assert (fast.nums, fast.den) == (slow.nums, slow.den)
    # an order past the outer series stops at the outer's order
    fast = ident._compose_with_inner_argument(hyp.truncate(2), 6)
    assert fast.order == 2 and fast.coefficients == hyp.truncate(2).compose(inner_argument(2)).coefficients


def test_verify_golden_coefficients():
    assert ident.verify_golden_coefficients().verified


def test_verify_odes():
    report = ident.verify_odes(ORDER)
    assert report.verified
    assert report.verified_order == ORDER - 2


def test_ode_fails_on_perturbed_abar():
    bad = perturbed(ident.expand_abar(ORDER), 3, 1)
    report = ident.verify_odes(ORDER, abar=bad)
    assert not report.verified
    assert report.failure_detail["series"] == "abar"


def test_ode_fails_on_perturbed_vbar():
    bad = perturbed(ident.expand_vbar(ORDER), 5, rat(1, 7))
    report = ident.verify_odes(ORDER, vbar=bad)
    assert not report.verified
    assert report.failure_detail["series"] == "vbar"


def test_verify_odes_refuses_short_series():
    with pytest.raises(ValueError, match="abar series has order 10"):
        ident.verify_odes(40, abar=ident.expand_abar(10), vbar=ident.expand_vbar(5))
    with pytest.raises(ValueError, match="vbar series has order 5"):
        ident.verify_odes(40, vbar=ident.expand_vbar(5))


def test_verify_odes_checks_longer_series_through_order():
    # a fault past the checked order is not looked at
    bad = perturbed(ident.expand_abar(20), 15, 1)
    report = ident.verify_odes(10, abar=bad, vbar=ident.expand_vbar(20))
    assert report.verified
    assert report.verified_order == 8
    assert not ident.verify_odes(20, abar=bad).verified


def test_f_positivity_refuses_small_window():
    for window in (0, 2):
        with pytest.raises(ValueError, match="at least 3"):
            ident.verify_f_positivity(window)
    assert ident.verify_f_positivity(3).verified


@pytest.mark.parametrize("order", [-2, 3.5, True, "5"])
@pytest.mark.parametrize("name", ["expand_abar", "expand_vbar", "expand_f", "verify_f_positivity"])
def test_expansions_refuse_a_bad_order(name, order):
    # with the expansions of order 1 cached, True must still be refused
    for expand in (ident.expand_abar, ident.expand_vbar, ident.expand_f):
        expand(1)
    with pytest.raises(ValueError, match=r"^(order|window) must be"):
        getattr(ident, name)(order)


def test_f_leading_coefficients():
    f = ident.expand_f(3)
    assert f.coefficients[0] == 72
    assert f.coefficients[1] == 1932
    assert f.coefficients[2] == 31248
    assert f.coefficients[3] == rat(790101, 2)


def test_f_positivity_window():
    report = ident.verify_f_positivity(window=60)
    assert report.verified
    # the printed cubic coefficient actually sits at z^2
    assert report.failure_detail["display_matches_d2"] is True
    assert report.failure_detail["d3_matches_display"] is False
    assert report.failure_detail["lemmas"] == ["flux_operator"]


def flux_by_products(order):
    """2*Vbar'*Abar - 3*Vbar*Abar' from the closed-form expansions, by two
    products: the reference for FLUX_OPERATOR's solution."""
    ab, vb = ident.expand_abar(order + 1), ident.expand_vbar(order + 1)
    f = (vb.derivative() * ab.truncate(order)).scale(2) - (vb.truncate(order) * ab.derivative()).scale(3)
    return f.reduced()


@pytest.mark.parametrize("order", [0, 1, 3, 40, 200])
def test_flux_operator_solution_matches_the_products(order):
    assert ident.expand_f(order).to_strings() == flux_by_products(order).to_strings()


def test_flux_operator_is_proved_and_its_recurrence_fixes_d0():
    assert ident._flux_operator_failures() == []
    # c_0(n) = -3n(n+1)^2: 0 at n = 0 only, so d_0 fixes the series
    assert ident.FLUX_OPERATOR.recurrence[0] == (-3, -6, -3, 0)
    assert ident._flux_constant() == 72


@pytest.mark.parametrize("window", [3, 4, 60, 201])
def test_f_positivity_reads_signs_against_the_unreduced_denominator(window):
    # the stored denominator is positive and divides prod c_0(n), whose sign
    # (-1)^window the recurrence never takes on, so each numerator's sign is
    # its coefficient's, at odd and even windows alike
    f = ident._flux_series(window)
    assert f._den > 0 and math.prod(-3 * n * (n + 1) ** 2 for n in range(1, window + 1)) % f._den == 0
    assert all((v > 0) == (f[n] > 0) for n, v in enumerate(f._nums))
    assert ident.verify_f_positivity(window).verified


def _mutated_operator():
    polys = [list(p) for p in ident.FLUX_OPERATOR.poly_coeffs]
    polys[0][0] += 1
    return ident.DifferentialOperator(tuple(map(tuple, polys)))


_BETA_DOWN = contiguity.RULES["beta_down"]


def _mutated_beta_down(al, be, ga):
    # the step rule with one coefficient of its F term changed
    shift, divisors, c0, c1 = _BETA_DOWN(al, be, ga)
    return shift, divisors, c0 + X, c1


@pytest.mark.parametrize("mutant, failed", [
    ("operator", ["flux_operator"]),
    ("contiguity_step", ["beta_down", "flux_operator"]),
    ("abar_gauge", ["flux_operator"]),
])
def test_f_positivity_fails_on_a_wrong_proof_input(monkeypatch, mutant, failed):
    if mutant == "operator":
        monkeypatch.setattr(ident, "FLUX_OPERATOR", _mutated_operator())
    elif mutant == "contiguity_step":
        monkeypatch.setitem(contiguity.RULES, "beta_down", _mutated_beta_down)
    else:  # Abar's gauge Q^-2 changed to Q^-3
        monkeypatch.setattr(ident, "_ABAR", ident._ABAR[:2] + (3,))
    report = ident.verify_f_positivity(10)
    assert not report.verified
    assert report.failure_detail == {"lemmas": ["flux_operator"], "failed": failed}


def test_f_positivity_fails_on_a_wrong_d0(monkeypatch):
    monkeypatch.setattr(ident, "_flux_constant", lambda: rat(73))
    report = ident.verify_f_positivity(10)
    assert not report.verified
    assert report.failure_detail["coefficient_index"] == 0


# -- the reduced identities ---------------------------------------------------

def series_sides(name, params, order):
    """The two sides of a reduced identity as exact series at one parameter
    point: the reference that ties each reduced statement to the identity
    it stands for."""
    hyp = ident._hyp
    if name == "lemma1":
        (a,) = params
        lhs = (hyp(a + 1, a + 2, rat(2), order) * PowerSeries.from_polynomial((1, -1), order)).scale(a + 1)
        rhs = (hyp(a + 1, a + 1, rat(2), order) * PowerSeries.from_polynomial((1, 1), order)).scale(a)
        return lhs, rhs + hyp(a, a, rat(1), order)
    if name == "adjoint_form":
        (a,) = params
        w = ident._w_series(a, order + 2)
        ratio = power_product((((1, 1), 2 * a), ((1, -1), -2 * a)), order + 1)
        lhs = (PowerSeries.identity(order + 1) * ratio * w.derivative()).derivative()
        rhs = power_product((((1, 1), 2 * a - 2), ((1, -1), -2 * a)), order) * w.truncate(order)
        return lhs, rhs.scale(a * (a - 1))
    if name == "id_hyp":
        (a,) = params
        lhs = ident._w_series(a, order + 1).derivative() * binomial_series(a + 1, order)
        return lhs, (hyp(a + 1, a, rat(2), order) * one_minus_x_to(2 * a, order)).scale(a * (a - 1))
    if name == "remark1_derivative":
        (a,) = params
        lhs = (hyp(a + 1, a, rat(2), order + 1) * one_minus_x_to(2 * a, order + 1)).derivative()
        term1 = hyp(a, a + 1, rat(3), order).scale(a * (3 - a) / 2)
        term2 = (hyp(a + 1, a + 2, rat(4), order) * PowerSeries.identity(order)).scale(a * (a + 1) / 6)
        return lhs, ((term1 + term2) * one_minus_x_to(2 * a - 1, order)).scale(-1)
    a, b, c = params
    if name == "cont1":
        lhs = hyp(a + 1, b + 1, c + 1, order) * PowerSeries.from_polynomial((0, b), order)
        return lhs, (hyp(a + 1, b, c, order) - hyp(a, b, c, order)).scale(c)
    if name == "cont2":
        f = hyp(a, b, c, order)
        lhs = ((hyp(a + 1, b, c, order) - f) * PowerSeries.from_polynomial((1, -1), order)).scale(a)
        return lhs, hyp(a, b - 1, c, order).scale(c - b) + f * PowerSeries.from_polynomial((b - c, a), order)
    assert name == "euler_transform"
    return hyp(a, b, c, order), one_minus_x_to(c - a - b, order) * hyp(c - a, c - b, c, order)


REDUCED = ("lemma1", "cont1", "cont2", "euler_transform", "id_hyp", "remark1_derivative", "adjoint_form")
ONE_PARAMETER_REDUCED = ("lemma1", "id_hyp", "remark1_derivative", "adjoint_form")
REDUCED_CHECKS = {
    "lemma1": ident.verify_lemma1,
    "cont1": partial(ident.verify_contiguous, "cont1"),
    "cont2": partial(ident.verify_contiguous, "cont2"),
    "euler_transform": ident.verify_euler_transform,
    "id_hyp": ident.verify_id_hyp,
    "remark1_derivative": ident.verify_remark1_derivative,
    "adjoint_form": ident.verify_adjoint_form,
}


def holds_in_series(name, params, order=ORDER):
    lhs, rhs = series_sides(name, tuple(map(rat, params)), order)
    return ident._first_mismatch(lhs, rhs, order) is None


@pytest.mark.parametrize("name", REDUCED)
def test_reduced_identity_is_its_series_statement(name):
    # each reduced statement, as a series identity, at two rational points
    # with c not an integer
    points = [(rat(1, 3),), (rat(-5, 2),)] if name in ONE_PARAMETER_REDUCED else [
        (rat(1, 3), rat(-2, 5), rat(7, 2)), (rat(-3, 2), rat(5, 3), rat(1, 2))]
    report = REDUCED_CHECKS[name](ORDER)
    assert report.verified and report.certificate == "all-parameters"
    assert all(holds_in_series(name, p) for p in points)


def test_lemma1():
    report = ident.verify_lemma1(ORDER)
    assert report.verified
    assert report.failure_detail == {"domain": "all a", "axioms": ["all_up", "alpha_up", "equation"],
                                     "excluded": ["a = 0", "a + 1 = 0"]}


def test_lemma1_at_unit_sample():
    # a = 1 and the two values the reduction divided by, which continuity
    # covers: each coefficient of either side is a polynomial in a
    assert all(holds_in_series("lemma1", [a]) for a in (1, 0, -1))


def test_contiguous_both():
    for which, step, excluded in (("cont1", "all_up", ["a = 0", "b = 0"]),
                                  ("cont2", "beta_down", ["a = 0", "c - b = 0"])):
        report = ident.verify_contiguous(which, ORDER)
        assert report.verified and report.parameter_samples == ()
        assert report.failure_detail == {"domain": "all a, b; c not in {0, -1, -2, ...}",
                                         "axioms": sorted([step, "alpha_up", "equation"]),
                                         "excluded": excluded}
    with pytest.raises(ValueError):
        ident.verify_contiguous("cont3")


def test_cont1_at_ones():
    # (1, 1, 1), and points on the excluded a = 0 and b = 0
    for params in ((1, 1, 1), (0, rat(1, 2), rat(3, 2)), (rat(2, 3), 0, rat(5, 2))):
        assert holds_in_series("cont1", params)


def test_cont1_mutated_lower_parameter_fails():
    # replacing c by c+1 on the right-hand side must break the relation
    mutant = [(B * X, (A + 1, B + 1, C + 1)), (-C, (A + 1, B, C + 1)), (C, (A, B, C + 1))]
    report = ident._reduced_report("cont1_mutated", ORDER, Reduction(A, B, C), lambda r: r.reduce(mutant), "")
    assert not report.verified
    assert report.failure_detail["failed"] == ["F", "F'"]


# id_hyp's mutants, each one module attribute set to a changed statement:
# a*a for the coefficient a(a-1), (1-x)^(2a+1) for (1-x)^(2a), and the
# Euler lemma's exponent c - a - b + 1, which fails euler_transform too
ID_HYP_MUTANTS = {
    "id_hyp": ("_ID_HYP_RIGHT", (A * A, 2 * A, (A + 1, A, 2))),
    "id_hyp-exponent": ("_ID_HYP_RIGHT", (A * (A - 1), 2 * A + 1, (A + 1, A, 2))),
    "id_hyp-euler": ("_euler", lambda al, be, ga: (ga - al - be + 1, (ga - al, ga - be, ga))),
}


def reduced_mutant(name):
    """The reduction and difference of a reduced identity with one
    coefficient, shift or exponent changed."""
    if name == "lemma1":  # a + 1 for a + 2 in F(a+1, a+2; 2)
        terms = [((A + 1) * (1 - X), (A + 1, A + 1, 2)), (-A * (1 + X), (A + 1, A + 1, 2)), (-1, (A, A, 1))]
        return Reduction(A, A, 1), lambda r: r.reduce(terms)
    if name == "cont1":  # the coefficient c of F(a+1,b;c) becomes c + 1
        terms = [(B * X, (A + 1, B + 1, C + 1)), (-(C + 1), (A + 1, B, C)), (C, (A, B, C))]
        return Reduction(A, B, C), lambda r: r.reduce(terms)
    if name == "cont2":  # (c-b) becomes (c-b+1)
        terms = [(A * (1 - X), (A + 1, B, C)), (-A * (1 - X), (A, B, C)), (B - C - 1, (A, B - 1, C)),
                 (-(B - C + A * X), (A, B, C))]
        return Reduction(A, B, C), lambda r: r.reduce(terms)
    if name == "remark1_derivative":  # a(3-a)/3 for a(3-a)/2
        terms = [(Rat(A * (3 - A), 3, 1 - X), (A, A + 1, 3)), (Rat(A * (A + 1) * X, 6, 1 - X), (A + 1, A + 2, 4))]
        return Reduction(A - 1, A, 2), lambda r: contiguity.combine(
            (1, r.d(r.hyp(A + 1, A, 2), (2 * A, 0))), (1, r.reduce(terms)))
    if name == "adjoint_form":  # (1+x)^(-1) for (1+x)^(-2) on the right side
        return Reduction(-A, -A, 1), lambda r: contiguity.combine(
            (1, r.d(contiguity.combine((X, r.d((Rat(1), Rat(0)), (0, -A)))), (-2 * A, A))),
            (Rat(A * (1 - A), 1 + X), (Rat(1), Rat(0))))
    # the exponent c - a - b + 1
    return (Reduction(C - A, C - B, C),
            lambda r: r.apply_equation(r.hyp(C - A, C - B, C), (A, B, C), (C - A - B + 1, 0)))


@pytest.mark.parametrize("name", REDUCED + ("id_hyp-exponent", "id_hyp-euler"))
def test_reduced_mutant_fails(monkeypatch, name):
    if name in ID_HYP_MUTANTS:
        monkeypatch.setattr(ident, *ID_HYP_MUTANTS[name])
        report = ident.verify_id_hyp(ORDER)
        lemma_fails = name == "id_hyp-euler"
        assert report.failure_detail["failed"] == ["F", "F'"] + ["euler_transform"] * lemma_fails
        assert ident.verify_euler_transform(ORDER).verified != lemma_fails
    else:
        report = ident._reduced_report(name, ORDER, *reduced_mutant(name), "")
    assert not report.verified and report.failure_detail["failed"]


def test_id_hyp_refuses_sides_whose_gauges_differ_by_an_irrational_factor(monkeypatch):
    # (1-x)^a for (1-x)^(2a): the sides' gauges then differ by (1-x)^(1-a),
    # which no reduction to rational coefficients can join
    monkeypatch.setattr(ident, "_ID_HYP_RIGHT", (A * (A - 1), A, (A + 1, A, 2)))
    with pytest.raises(ValueError, match=r"is not rational in x$"):
        ident.verify_id_hyp(ORDER)


def test_engine_axioms_hold():
    assert contiguity.failed_axioms() == []


def test_substitution_and_exact_cancellation():
    # (x^2 - 1) at x = 1/(1-x) is x(2-x)/(1-x)^2, over its factors
    r = (X * X - 1).at(Rat(1, 1 - X))
    assert r.num == 2 * X - X * X and [(f, e) for f, e in r.factors.values()] == [(1 - X, 2)]
    assert ((X - 1) * (X + 2)).quotient(X - 1) == X + 2
    assert (X * X + 1).quotient(X - 1) is None
    # the factor x - 1 cancels; 1/2 over the constant 3 gathers into 6
    c = Rat((X - 1) * (X + 2) * rat(1, 2), X - 1, 3).cancel()
    assert c.num == X + 2 and [(f, e) for f, e in c.factors.values()] == [({0: 6}, 1)]


def test_rat_refuses_a_zero_denominator():
    # x/0 would add to 1 as x: the sum takes the zero factor's power and
    # multiplies nothing by it
    for dens in ((X - X,), (0,), (1 - X, X - X)):
        with pytest.raises(ZeroDivisionError):
            Rat(X, *dens)


def test_rat_refuses_zero_over_zero():
    # 0/0 would pass a proof's test that a coefficient's numerator vanishes
    with pytest.raises(ZeroDivisionError):
        Rat(0, X - X)


def test_no_rat_reaches_cancel_with_a_zero_factor():
    # cancel divided x/0's numerator by the empty polynomial, and failed
    # with "max() arg is an empty sequence"
    with pytest.raises(ZeroDivisionError, match=r"^x / 0$"):
        Rat(X, X - X).cancel()
    assert Rat(X * (1 - X), 1 - X).cancel().num == X


def test_reduction_refuses_a_zero_divisor_and_non_contiguous_targets():
    # F(1, b; c) from F(0, b; c) would divide by alpha = 0, which would make
    # every numerator over that denominator 0
    with pytest.raises(ZeroDivisionError, match="alpha_up divides by 0"):
        Reduction(0, B, C).hyp(1, B, C)
    for target in ((A + rat(1, 2), B, C), (A, B, C - 1), (A, B * B, C)):
        with pytest.raises(ValueError, match="does not reduce over the base"):
            Reduction(A, B, C).hyp(*target)


def series_at(poly, point, order):
    """The polynomial at (a, b, c) = point, as a series in x."""
    coefficients = [rat(0)] * (order + 1)
    for e, v in poly.items():
        if (e >> 24 & 255) <= order:
            a, b, c = (point[i] ** (e >> 8 * i & 255) for i in range(3))
            coefficients[e >> 24 & 255] += v * a * b * c
    return PowerSeries(coefficients)


@pytest.mark.parametrize("shift", [(1, 2, 0), (-2, 1, 1), (2, -1, 1), (0, -2, 2), (-1, -1, 0)])
def test_reduction_is_the_contiguous_series(shift):
    # F(a + da, b + db; c + dc), reduced over F(a, b; c) by steps on alpha
    # and, swapped, on beta, cleared of its denominator D and compared as
    # series at one rational point: D F(target) = n0 F + n1 F'
    point, order = (rat(1, 3), rat(-2, 5), rat(7, 2)), 12
    r0, r1 = Reduction(A, B, C).hyp(A + shift[0], B + shift[1], C + shift[2])
    factors = {**r0.factors}
    for k, (f, e) in r1.factors.items():
        factors[k] = (f, max(e, factors.get(k, (f, 0))[1]))
    den = contiguity._product(f for f, e in factors.values() for _ in range(e))
    n0, n1 = (series_at(r._over(factors), point, order) for r in (r0, r1))
    base = ident._hyp(*point, order + 1)
    target = ident._hyp(*(p + d for p, d in zip(point, shift)), order)
    lhs = series_at(den, point, order) * target
    assert ident._first_mismatch(lhs, n0 * base.truncate(order) + n1 * base.derivative(), order) is None


AXIOM_MUTANTS = {
    "alpha_up": lambda al, be, ga: ((1, 0, 0), (al,), al, 2 * X),
    "beta_down": lambda al, be, ga: ((0, -1, 0), (ga - be,), ga - be - al * X, X * (1 + X)),
    "all_up": lambda al, be, ga: ((1, 1, 1), (al, be), 0, ga + 1),
    "equation": lambda al, be, ga: (X * (1 - X), ga - (al + be) * X, -al * be),
    "gauge": lambda lam, sign: (1 - sign * X, sign * (1 - lam)),
}
USES = {"alpha_up": "lemma1", "all_up": "lemma1", "equation": "lemma1", "beta_down": "cont2",
        "gauge": "euler_transform"}


def mutate_axiom(monkeypatch, name):
    if name in contiguity.RULES:
        monkeypatch.setitem(contiguity.RULES, name, AXIOM_MUTANTS[name])
    else:
        monkeypatch.setattr(contiguity, name, AXIOM_MUTANTS[name])


@pytest.mark.parametrize("name", sorted(AXIOM_MUTANTS))
def test_engine_axiom_mutant_fails_its_check(monkeypatch, name):
    # one coefficient changed: the termwise check refutes it, and a reduced
    # check that applies the axiom reports it, alone or under verify_all
    assert not contiguity.axiom_holds(name, AXIOM_MUTANTS[name])
    mutate_axiom(monkeypatch, name)
    assert contiguity.failed_axioms() == [name]
    report = REDUCED_CHECKS[USES[name]](ORDER)
    assert not report.verified and report.failure_detail["failed"] == [name]
    (report,) = [r for r in ident.verify_all(4) if r.identity_name == USES[name]]
    assert not report.verified and report.failure_detail["failed"] == [name]


# the axioms the flux proof applies: beta_down takes F(-1/2,-1/2;1) to Vbar's
# F(-3/2,-3/2;1), and every derivative reduces F'' by the equation
FLUX_AXIOMS = ("beta_down", "equation")


def listed_axioms():
    """{report name: the axioms its verified report lists} at order 4."""
    return {r.identity_name: r.failure_detail["axioms"] for r in ident.verify_all(4)
            if r.identity_name in REDUCED}


@pytest.mark.parametrize("name", sorted(AXIOM_MUTANTS))
def test_a_wrong_axiom_fails_every_report_that_rests_on_it(monkeypatch, name):
    # within one verify_all, where each axiom is checked once, and for each
    # check called alone: the flux report too
    listed = listed_axioms()
    mutate_axiom(monkeypatch, name)
    reports = {r.identity_name: r for r in ident.verify_all(4)}
    alone = {check: REDUCED_CHECKS[check](4) for check in REDUCED}
    alone["f_positivity"] = ident.verify_f_positivity(10)
    listed["f_positivity"] = list(FLUX_AXIOMS)
    assert any(name in axioms for axioms in listed.values())
    for check, axioms in listed.items():
        for report in (reports[check], alone[check]):
            assert report.verified == (name not in axioms), (check, report)
            if name in axioms:
                assert name in report.failure_detail["failed"]


def count_calls(monkeypatch, module, attr) -> list:
    """Record the first argument of each call of module.attr."""
    calls = []
    real = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


def test_verify_all_checks_each_axiom_and_the_euler_lemma_once(monkeypatch):
    # the run's first check of each axiom is the one every later report
    # reads, and id_hyp takes the run's euler_transform report; a second
    # run carries nothing over and checks them all again
    axioms = count_calls(monkeypatch, contiguity, "axiom_holds")
    euler = count_calls(monkeypatch, ident, "verify_euler_transform")
    for runs in (1, 2):
        reports = ident.verify_all(8)
        assert sorted(axioms) == sorted(contiguity.AXIOMS * runs)
        assert euler == [8] * runs
        assert contiguity._RUN.get() is None
    assert all(r.verified for r in reports)


@pytest.mark.parametrize("check", sorted(REDUCED_CHECKS))
def test_a_check_called_alone_checks_its_own_axioms_and_lemma(monkeypatch, check):
    listed = listed_axioms()
    axioms = count_calls(monkeypatch, contiguity, "axiom_holds")
    euler = count_calls(monkeypatch, ident, "verify_euler_transform")
    assert REDUCED_CHECKS[check](4).verified
    lemma = listed["euler_transform"] if check == "id_hyp" else []
    assert sorted(axioms) == sorted(listed[check] + lemma)
    # REDUCED_CHECKS holds the function itself, so only id_hyp's call counts
    assert euler == ([4] if check == "id_hyp" else [])


def test_f_positivity_alone_checks_the_flux_axioms(monkeypatch):
    axioms = count_calls(monkeypatch, contiguity, "axiom_holds")
    assert ident.verify_f_positivity(10).verified
    assert sorted(axioms) == sorted(FLUX_AXIOMS)


def test_a_nested_run_starts_empty_and_leaves_the_outer_one_intact(monkeypatch):
    axioms = count_calls(monkeypatch, contiguity, "axiom_holds")
    count = len(contiguity.AXIOMS)
    with contiguity.run():
        assert contiguity.failed_axioms() == [] and len(axioms) == count
        assert all(r.verified for r in ident.verify_all(4))
        assert len(axioms) == 2 * count
        assert contiguity.failed_axioms() == [] and len(axioms) == 2 * count
    assert contiguity.failed_axioms() == [] and len(axioms) == 3 * count


def test_runs_in_concurrent_threads_each_check_every_axiom(monkeypatch):
    # each thread's verify_all has its own scope: with more threads than
    # cores, switching often, every run checks every axiom itself
    import sys
    import threading

    axioms = count_calls(monkeypatch, contiguity, "axiom_holds")
    count = 4
    reports, start = [], threading.Barrier(count)

    def run():
        start.wait()
        reports.append(ident.verify_all(4))

    threads = [threading.Thread(target=run) for _ in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(axioms) == sorted(contiguity.AXIOMS * count)
    assert len(reports) == count and all(r == ident.verify_all(4) for r in reports)


def test_the_run_closes_when_a_check_raises(monkeypatch):
    mutate_pairs(monkeypatch, raising=at("id_war", 0))
    with pytest.raises(ZeroDivisionError):
        ident.verify_all(ORDER8)
    assert contiguity._RUN.get() is None


def test_euler_solution_is_unique_off_nonpositive_integer_c():
    # [x^n] of the equation applied to y = sum y_m x^m: x divides p2, so no
    # y_m past m = n + 1 appears, and y_(n+1) comes with (n+1)(n+c), which
    # vanishes for some n >= 0 exactly when c is 0, -1, -2, ...
    def at_x(poly, k):  # the coefficient of x^k; x's exponent sits at bit 24
        return contiguity.Poly({e - (k << 24): v for e, v in poly.items() if e >> 24 & 255 == k})

    p2, p1, _ = contiguity.equation(A, B, C)
    assert not at_x(p2, 0)
    assert at_x(p2, 1) * N * (N + 1) + at_x(p1, 0) * (N + 1) == (N + 1) * (N + C)


def test_euler_transform():
    report = ident.verify_euler_transform(ORDER)
    assert report.verified and report.certificate == "all-parameters"


def test_euler_transform_generic_triple():
    assert holds_in_series("euler_transform", (rat(1, 3), rat(1, 5), 2), 30)


def test_id_hyp():
    # proved for every a through the Euler transform, checked in the call
    report = ident.verify_id_hyp(ORDER)
    assert report.verified and report.certificate == "all-parameters"
    assert report.failure_detail == {"domain": "all a", "axioms": ["all_up", "alpha_up", "equation", "gauge"],
                                     "excluded": ["-a = 0", "-a + 1 = 0"], "lemmas": ["euler_transform"]}
    # the excluded values, which continuity covers, and the samples
    assert all(holds_in_series("id_hyp", [a]) for a in [0, 1, *SAMPLES])


def test_id_war():
    assert ident.verify_id_war(SAMPLES, 20).verified


def test_id_war_integer_sample():
    assert ident.verify_id_war([rat(3)], 30).verified


@pytest.mark.parametrize("which", [0, 1, 2])
def test_id_war_fails_with_a_perturbed_exponent(monkeypatch, which):
    # id_war takes Q^(2a) (1-z)^(-2a-1) (1+z)^(-2a-1) as one power product;
    # shifting any one of its exponents must break the identity
    real = ident.power_product

    def perturbed_product(factors, order):
        factors = list(factors)
        poly, alpha = factors[which]
        factors[which] = (poly, alpha + rat(1, 7))
        return real(factors, order)

    monkeypatch.setattr(ident, "power_product", perturbed_product)
    report = ident.verify_id_war(SAMPLES, 12)
    assert not report.verified
    assert report.failure_detail["coefficient_index"] == 1


def test_verify_all_leaves_no_state_behind(monkeypatch):
    # two cold calls build the same series, and leave no module-level state
    # behind, the reduction engine's included
    calls = []
    real = HypergeometricSpec.series

    def counted(spec, order):
        calls.append((spec.a, spec.b, spec.c, order))
        return real(spec, order)

    monkeypatch.setattr(HypergeometricSpec, "series", counted)

    def module_state():
        state = {}
        for module in (ident, series_module, contiguity):
            for name, value in vars(module).items():
                if isinstance(value, (dict, list, set)):
                    value = copy.copy(value)
                elif hasattr(value, "cache_info"):
                    value = (value, value.cache_info())
                state[module.__name__, name] = value
        return state

    counts, states = [], []
    for _ in range(2):
        for cache in (ident.expand_abar, ident.expand_vbar, ident.expand_f):
            cache.cache_clear()
        start = len(calls)
        ident.verify_all(12)
        counts.append(len(calls) - start)
        states.append(module_state())
    assert counts[0] == counts[1]
    assert states[0] == states[1]


def test_a_cold_verify_builds_each_closed_form_once():
    # the golden check and the flux constant read the first six
    # coefficients of the expansions the ODE residuals check
    caches = (ident.expand_abar, ident.expand_vbar)
    for cache in caches:
        cache.cache_clear()
    assert all(r.verified for r in ident.verify_all(8))
    for cache in caches:
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (1, 1), cache


def test_remark1_derivative():
    report = ident.verify_remark1_derivative(20)
    assert report.verified and report.certificate == "all-parameters"
    assert report.failure_detail["excluded"] == ["a - 1 = 0", "a = 0", "a + 1 = 0"]
    # the excluded values, which continuity covers
    assert all(holds_in_series("remark1_derivative", [a]) for a in (1, 0, -1))


def test_adjoint_form():
    report = ident.verify_adjoint_form(20)
    assert report.verified and report.certificate == "all-parameters"
    assert report.failure_detail["axioms"] == ["equation", "gauge"]


def test_adjoint_form_mutated_exponent_fails():
    # raising the ratio power ((1+x)/(1-x))^(2a) on the left side by one
    # must fail: in the right side's gauge it is (1+x)/(1-x) times more
    def difference(r):
        w_prime = r.d((Rat(1), Rat(0)), (0, -A))
        lhs = r.d(contiguity.combine((Rat(X * (1 + X), 1 - X), w_prime)), (-2 * A, A))
        return contiguity.combine((1, lhs), (Rat(A * (1 - A), 1 + X, 1 + X), (Rat(1), Rat(0))))

    report = ident._reduced_report("adjoint_mutated", ORDER, Reduction(-A, -A, 1), difference, "")
    assert not report.verified


def test_report_serialization():
    report = ident.verify_id_war([rat(2)], 10)
    d = report.to_dict()
    assert d["status"] == "verified"
    assert d["samples"] == ["2"]
    assert d["certificate"] == "sampled"
    assert "id_war" in report.to_json()
    reduced = json.loads(ident.verify_lemma1(10).to_json())
    assert reduced["certificate"] == "all-parameters" and reduced["samples"] == []
    assert reduced["failure_detail"]["domain"] == "all a"


def test_failed_report_detail():
    bad = perturbed(ident.expand_abar(10), 3, 1)
    report = ident.verify_odes(10, abar=bad)
    d = report.to_dict()
    assert d["status"] == "failed"
    assert "failure_detail" in d


@pytest.mark.parametrize("samples, certificate", [
    pytest.param([1], "sampled", id="one"),
    pytest.param([2] * 19, "sampled", id="19-equal"),
    pytest.param(list(range(18)) + [rat(1, 2)], "degree-bound", id="2N+3-distinct"),
    pytest.param(list(range(18)) + [17, rat(34, 2)], "sampled", id="2N+2-distinct"),
])
def test_id_war_claims_the_degree_bound_only_at_2n_plus_3_distinct_samples(samples, certificate):
    # at N = 8 the bound needs 19 distinct values of a; fewer is a sample run
    report = ident.verify_id_war(samples, 8)
    assert report.verified and report.certificate == certificate


def test_id_war_failing_at_few_samples_names_the_weaker_certificate(monkeypatch):
    mutate_pairs(monkeypatch, fail=at("id_war", 1))
    report = ident.verify_id_war(SAMPLES8[:3], ORDER8)
    assert not report.verified and report.certificate == "sampled"


def test_verify_all_takes_only_the_order():
    # the order is the one input: id_war's sample count follows from it, so
    # its "verified" from verify_all is always the degree-bound proof
    assert list(inspect.signature(ident.verify_all).parameters) == ["order"]


def test_default_sample_count_degree_bound():
    # a degree-(2N+2) polynomial identity in the parameter needs 2N+3 zeros
    assert ident.default_sample_count(40) == 83


DEGREE_BOUND = ("id_war",)
CERTIFICATES = {
    "golden_coefficients": "exact", "ode_residuals": "through-order", "f_positivity": "window",
    **dict.fromkeys(REDUCED, "all-parameters"), **dict.fromkeys(DEGREE_BOUND, "degree-bound"),
}


def test_verify_all_proves_on_integers_and_reduces_the_rest():
    # the degree-bound proof runs on 2N+3 distinct integers, 0, 1, -1, ...;
    # the reduced checks take no sample, and every report names its certificate
    order = 8
    count = ident.default_sample_count(order)
    reports = {r.identity_name: r for r in ident.verify_all(order)}
    for name in DEGREE_BOUND:
        samples = reports[name].parameter_samples
        assert len(set(samples)) == len(samples) == count
        assert samples == tuple(ident._integer_samples(count))
    assert ident._integer_samples(5) == [0, 1, -1, 2, -2]
    for name in REDUCED:
        assert reports[name].parameter_samples == ()
        assert reports[name].verified_order == order
    assert {name: r.certificate for name, r in reports.items()} == CERTIFICATES
    assert all(r.to_dict()["certificate"] == r.certificate for r in reports.values())


@pytest.mark.parametrize("name", ONE_PARAMETER_REDUCED + DEGREE_BOUND)
def test_coefficient_degree_in_a_is_at_most_2n_plus_2(monkeypatch, name):
    # the bound the degree-bound proofs rest on: coefficient n of either
    # side, at 2N+7 consecutive integers, has a vanishing (2n+3)-th forward
    # difference wherever one is defined; at n = N that is at 4 base points.
    # For the reduced lemma1, id_hyp and remark1_derivative, coefficients
    # polynomial in a are what let continuity cover the values a division
    # excluded
    order = 6
    points = [rat(k) for k in range(-order - 3, order + 4)]
    sides = []

    def collect(_name, samples, _order, pair, *args, **kwargs):
        sides.extend(pair(a) for a in samples)

    if name in ONE_PARAMETER_REDUCED:
        sides = [series_sides(name, (a,), order) for a in points]
    else:
        monkeypatch.setattr(ident, "_sampled_report", collect)
        getattr(ident, f"verify_{name}")(points, order)
    assert len(sides) == 2 * order + 7
    for side in (0, 1):
        for n in range(order + 1):
            diff = [pair[side][n] for pair in sides]
            for _ in range(2 * n + 3):
                diff = [y - x for x, y in zip(diff, diff[1:])]
            assert len(diff) >= 4 and not any(diff), (side, n)


def test_verify_all_shape():
    reports = ident.verify_all(order=8)
    names = [r.identity_name for r in reports]
    assert names == [
        "golden_coefficients", "ode_residuals", "f_positivity", "lemma1",
        "cont1", "cont2", "euler_transform", "id_hyp", "id_war",
        "remark1_derivative", "adjoint_form",
    ]
    assert all(r.verified for r in reports)


# -- boundary checks and the one-process verify_all ---------------------------

ORDER_CHECKS = {
    "verify_all": ident.verify_all,
    "odes": ident.verify_odes,
    **REDUCED_CHECKS,
    "id_war": ident.verify_id_war,
}


@pytest.mark.parametrize("order", [-1, -5, 2.5, "8", None, True])
@pytest.mark.parametrize("check", sorted(ORDER_CHECKS))
def test_order_is_refused_before_any_work(monkeypatch, check, order):
    # a negative or non-int order is named before any series is built or
    # any axiom checked
    def refuse(*args):
        raise AssertionError("work started before the order was checked")

    monkeypatch.setattr(HypergeometricSpec, "series", refuse)
    monkeypatch.setattr(contiguity, "failed_axioms", refuse)
    with pytest.raises(ValueError, match=r"^order must be"):
        ORDER_CHECKS[check](order=order)


def refuse_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("a series was built before the samples were checked")

    monkeypatch.setattr(HypergeometricSpec, "series", refuse)


def test_empty_samples_are_refused_before_any_work(monkeypatch):
    # a check with no sample has proved nothing: it must not say verified
    refuse_series(monkeypatch)
    for check in DEGREE_BOUND:
        with pytest.raises(ValueError, match=r"needs at least one sample$"):
            ORDER_CHECKS[check]([], order=4)


@pytest.mark.parametrize("samples", [[rat(1, 10), 0.3], [True], [2, 0.5]])
def test_inexact_samples_are_refused_before_any_work(monkeypatch, samples):
    # a float sample would compare float series, and True would pass as 1
    refuse_series(monkeypatch)
    for check in DEGREE_BOUND:
        with pytest.raises(ValueError, match=r"samples must be ints or Fractions"):
            ORDER_CHECKS[check](samples, order=4)


def test_int_samples_are_exact():
    # a(3-a)/2 at an int a is a float division unless the sample is made exact
    def pair(a):
        lhs = PowerSeries.from_polynomial((a * (3 - a) / 2, 1), 3)
        return lhs, PowerSeries.from_polynomial((rat(a * (3 - a), 2), 1), 3)

    report = ident._sampled_report("probe", [1, 2, -3], 3, pair)
    assert report.verified and report.parameter_samples == (1, 2, -3)
    assert all(type(a) is type(rat(1)) for a in report.parameter_samples)
    assert all(ORDER_CHECKS[check]([1, -2], order=6).verified for check in DEGREE_BOUND)


ORDER8 = 8
SAMPLES8 = ident._integer_samples(ident.default_sample_count(ORDER8))


def at(check, *indices):
    return [(check, i) for i in indices]


def mutate_pairs(monkeypatch, fail=(), raising=()):
    """Make the degree-bound check wrong at the (check, sample index)
    entries given: the left side perturbed at fail, raising at raising."""
    real = ident._sampled_report

    def report(name, samples, order, pair_fn):
        def pair(a):
            index = SAMPLES8.index(a)
            if (name, index) in raising:
                raise ZeroDivisionError(f"at {a}")
            lhs, rhs = pair_fn(a)
            return (perturbed(lhs, 1, 1) if (name, index) in fail else lhs), rhs

        return real(name, samples, order, pair)

    monkeypatch.setattr(ident, "_sampled_report", report)


def failed_sample(reports, name):
    (report,) = [r for r in reports if r.identity_name == name]
    assert not report.verified
    return report.failure_detail["sample"]


@pytest.mark.parametrize("fail", [
    pytest.param(at("id_war", 6), id="even"),
    pytest.param(at("id_war", 3), id="odd"),
    pytest.param(at("id_war", 3, 8), id="odd-first"),
    pytest.param(at("id_war", 2, 7), id="even-first"),
    pytest.param(at("id_war", 7, 5, 8, 4), id="both"),
])
def test_lower_failing_sample_wins(monkeypatch, fail):
    # a check that fails at one sample or more, odd or even or both, names
    # the first, and no other check fails
    mutate_pairs(monkeypatch, fail=fail)
    reports = ident.verify_all(ORDER8)
    names = sorted({name for name, _ in fail})
    for name in names:
        first = min(i for check, i in fail if check == name)
        assert failed_sample(reports, name) == str(SAMPLES8[first])
    assert sorted(r.identity_name for r in reports if not r.verified) == names


@pytest.mark.parametrize("fail, raising, raised", [
    pytest.param(at("id_war", 2), at("id_war", 3), False, id="2-3"),
    pytest.param(at("id_war", 6), at("id_war", 3), True, id="6-3"),
    pytest.param(at("id_war", 3), at("id_war", 4), False, id="3-4"),
    pytest.param(at("id_war", 5), at("id_war", 4), True, id="5-4"),
])
def test_exception_propagates_only_where_no_earlier_sample_fails(monkeypatch, fail, raising, raised):
    # a check raises at one sample and fails at another: the earlier of the
    # two decides
    mutate_pairs(monkeypatch, fail=fail, raising=raising)
    ((_, raising_index),) = raising
    ((name, failing_index),) = fail
    if raised:
        with pytest.raises(ZeroDivisionError, match=f"^at {SAMPLES8[raising_index]}$"):
            ident.verify_all(ORDER8)
    else:
        assert failed_sample(ident.verify_all(ORDER8), name) == str(SAMPLES8[failing_index])


def no_process(monkeypatch):
    """Make any new process or pipe fail the test."""
    for name in ("fork", "pipe", "posix_spawn"):
        if hasattr(os, name):
            monkeypatch.setattr(os, name, lambda *args, name=name: pytest.fail(f"verify_all called os.{name}"))


def test_no_fork_or_one_cpu_gives_the_same_reports(monkeypatch):
    # verify_all runs in this process: with no fork possible and one CPU it
    # gives the reports each check gives alone
    mutate_pairs(monkeypatch, fail=at("id_war", 5))
    alone = [ident.verify_id_hyp(ORDER8), ident.verify_id_war(SAMPLES8, ORDER8)]
    before = ident.verify_all(ORDER8)
    no_process(monkeypatch)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    reports = ident.verify_all(ORDER8)
    assert reports == before
    assert reports[7:9] == alone
    assert failed_sample(reports, "id_war") == str(SAMPLES8[5])


def test_no_fork_while_other_threads_run(monkeypatch):
    # nothing is forked, so another thread running is no hazard
    import threading

    mutate_pairs(monkeypatch, fail=at("id_war", 3))
    no_process(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert failed_sample(ident.verify_all(ORDER8), "id_war") == str(SAMPLES8[3])
    finally:
        release.set()
        thread.join(5)
    assert not thread.is_alive()
