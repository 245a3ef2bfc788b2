"""Identity layer: golden coefficients, ODE residuals, flux positivity, the
free-parameter identity suite, and mutation sensitivity."""

import pytest

from isotorus import identities as ident
from isotorus.series import PowerSeries, perturbed, rat, sample_parameters

ORDER = 24  # fast unit-test order; the acceptance suite runs the pinned orders
SAMPLES = sample_parameters(8, exclude=(rat(0), rat(1)))
TRIPLES = ident._default_triples(8)


def test_expand_abar_golden():
    ab = ident.expand_abar(5)
    assert ab.coefficients == ident.ABAR_LEADING


def test_expand_vbar_golden():
    vb = ident.expand_vbar(5)
    assert vb.coefficients == ident.VBAR_LEADING


def test_expansion_prefactor_constant_terms():
    # constant terms of the closed forms: 4 and 2
    assert ident.expand_abar(0).coefficients == (4,)
    assert ident.expand_vbar(0).coefficients == (2,)


def test_inner_argument_expansion():
    # 4z/(1-z)^2 = sum 4n z^n
    inner = ident._inner_argument(6)
    assert inner.coefficients == tuple(4 * n for n in range(7))


def test_fast_composition_matches_generic():
    from isotorus.series import HypergeometricSpec, hypergeometric_series

    hyp = hypergeometric_series(HypergeometricSpec(rat(-3, 2), rat(1, 3), rat(2)), 18)
    fast = ident._compose_with_inner_argument(hyp, 18)
    slow = hyp.compose(ident._inner_argument(18))
    assert fast.coefficients == slow.coefficients


def test_fast_composition_matches_generic_id_war_order():
    # the compositions verify_id_war builds, at the order it runs them
    for a in (rat(1, 2), rat(-2, 3), rat(3)):
        w = ident._w_series(a, 41)
        fast = ident._compose_with_inner_argument(w, 41)
        slow = w.compose(ident._inner_argument(41))
        assert fast.coefficients == slow.coefficients


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


def test_lemma1():
    assert ident.verify_lemma1(SAMPLES, ORDER).verified


def test_lemma1_at_unit_sample():
    assert ident.verify_lemma1([rat(1)], ORDER).verified


def test_contiguous_both():
    assert ident.verify_contiguous("cont1", TRIPLES, ORDER).verified
    assert ident.verify_contiguous("cont2", TRIPLES, ORDER).verified
    with pytest.raises(ValueError):
        ident.verify_contiguous("cont3")


def test_cont1_at_ones():
    assert ident.verify_contiguous("cont1", [(rat(1), rat(1), rat(1))], ORDER).verified


def test_cont1_mutated_lower_parameter_fails():
    # replacing c by c+1 on the right-hand side must break the relation
    from isotorus.identities import _hyp

    def pair(t):
        a, b, c = t
        lhs = _hyp(a + 1, b + 1, c + 1, ORDER) * PowerSeries.from_polynomial((0, b), ORDER)
        rhs = (_hyp(a + 1, b, c + 1, ORDER) - _hyp(a, b, c + 1, ORDER)).scale(c)
        return lhs, rhs

    report = ident._sampled_report("cont1_mutated", TRIPLES, ORDER, pair)
    assert not report.verified


def test_euler_transform():
    assert ident.verify_euler_transform(TRIPLES, ORDER).verified


def test_euler_transform_generic_triple():
    assert ident.verify_euler_transform([(rat(1, 3), rat(1, 5), rat(2))], 30).verified


def test_id_hyp():
    assert ident.verify_id_hyp(SAMPLES, ORDER).verified


def test_id_war():
    assert ident.verify_id_war(SAMPLES, 20).verified


def test_id_war_integer_sample():
    assert ident.verify_id_war([rat(3)], 30).verified


def test_remark1_derivative():
    assert ident.verify_remark1_derivative(SAMPLES, 20).verified


def test_adjoint_form():
    assert ident.verify_adjoint_form(SAMPLES, 20).verified


def test_adjoint_form_mutated_exponent_fails():
    # doubling the ratio power on the right-hand side must fail
    from isotorus.identities import _w_series
    from isotorus.series import binomial_series, one_minus_x_power

    order = 16
    x_series = PowerSeries.identity(order + 1)

    def ratio_power(expo, n):
        return binomial_series(expo, n) * one_minus_x_power(-expo, n)

    def pair(a):
        w = _w_series(a, order + 2)
        lhs = (x_series * ratio_power(2 * a, order + 1) * w.derivative()).derivative()
        rhs = binomial_series(rat(-2), order) * ratio_power(4 * a, order) * w.truncate(order)
        return lhs, rhs.scale(a * (a - 1))

    report = ident._sampled_report("adjoint_mutated", SAMPLES, order, pair)
    assert not report.verified


def test_report_serialization():
    report = ident.verify_lemma1([rat(2)], 10)
    d = report.to_dict()
    assert d["status"] == "verified"
    assert d["samples"] == ["2"]
    assert "lemma1" in report.to_json()


def test_failed_report_detail():
    bad = perturbed(ident.expand_abar(10), 3, 1)
    report = ident.verify_odes(10, abar=bad)
    d = report.to_dict()
    assert d["status"] == "failed"
    assert "failure_detail" in d


def test_default_sample_count_degree_bound():
    # a degree-(2N+2) polynomial identity in the parameter needs 2N+3 zeros
    assert ident.default_sample_count(40) == 83


def test_verify_all_shape():
    reports = ident.verify_all(order=8, sample_count=5, ode_order=10, positivity_window=20)
    names = [r.identity_name for r in reports]
    assert names == [
        "golden_coefficients", "ode_residuals", "f_positivity", "lemma1",
        "cont1", "cont2", "euler_transform", "id_hyp", "id_war",
        "remark1_derivative", "adjoint_form",
    ]
    assert all(r.verified for r in reports)
