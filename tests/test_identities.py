"""Identity layer: golden coefficients, ODE residuals, flux positivity, the
free-parameter identity suite, and mutation sensitivity."""

import copy
import hashlib
import inspect
import json
import os
from functools import partial

import pytest

from isotorus import identities as ident
from isotorus import series as series_module
from isotorus.series import HypergeometricSpec, PowerSeries, parse_rational, perturbed, rat

ORDER = 24  # fast unit-test order; the acceptance suite runs the pinned orders
SAMPLES = [a for a in ident._sample_parameters(9) if a != 1]  # -1, 2, -2, 1/2, ..., 1/3
TRIPLES = ident._default_triples(8)


def inner_argument(order):
    """4z/(1-z)^2 = sum 4n z^n as an exact series."""
    return PowerSeries([4 * n for n in range(order + 1)])


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
# orders (40 is the order ``isotorus verify --order 40`` runs), since the
# one-parameter checks sample the integers: the earlier reports with those
# five sample lists replaced.  Any change to an exact result changes its digest.
GOLDEN_DIGESTS = {
    "abar250": "43cbaa1f6cffb7bb4d74d099bffbb8381e89eb8fdf47a1eb7a5a203113e5aeb7",
    "vbar250": "78db2b07b70e6554cc9c40ddd2d58f43e62f69c282a261fa2ee021f78e75fef9",
    "f120": "ecdafdc2a7f049f30f6a0105fe711e7b8296abec33faa305b7c33d442788a17a",
    "f200": "79cfc1dce692025a0bedddba23db0cea5c17b3d027b83e50d0756af755165563",
    "verify12": "ff17769409d363f8927533cdbcf1907a964a3bbc1be7e4049a8d8acab978dd6b",
    "verify40": "152d27093f0ddd92898a8a8d9c4774c2cfb3bb675931b84ab1335c7155efe1bd",
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
    fmt = ident.IdentityReport._fmt
    assert fmt(rat(4, 2)) == "2"
    assert fmt(rat(-5, 10)) == "-1/2"
    assert fmt((rat(1, 3), rat(-2), rat(5, 2))) == "(1/3,-2,5/2)"
    assert parse_rational(fmt(rat(451625, 16))) == rat(451625, 16)


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


def test_shared_series_last_one_call(monkeypatch):
    # verify_all shares w_a among its checks through a table that lives as
    # long as the call: two cold calls build the same series, and leave no
    # module-level state behind.  The count is of this process's builds; a
    # worker, where one runs, counts its own in its own copy of the list
    calls = []
    real = HypergeometricSpec.series

    def counted(spec, order):
        calls.append((spec.a, spec.b, spec.c, order))
        return real(spec, order)

    monkeypatch.setattr(HypergeometricSpec, "series", counted)

    def module_state():
        state = {}
        for module in (ident, series_module):
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

    # within the call, the checks that share series built each once per
    # sample: w_a and F(a+1,a;2), three builds each when the checks run alone
    samples = ident._integer_samples(ident.default_sample_count(12))
    checks = (ident.verify_id_hyp, ident.verify_id_war, ident.verify_remark1_derivative,
              ident.verify_adjoint_form)
    start = len(calls)
    for check in checks:
        check(samples, 12)
    alone = len(calls) - start
    start = len(calls)
    shared = ident._SharedW(12)
    for check in checks:
        check(samples, 12, shared)
    assert len(calls) - start == alone - 4 * len(samples)


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


def test_sample_parameters_distinct_and_nonzero():
    samples = ident._sample_parameters(50)
    assert len(set(samples)) == 50
    assert all(s != 0 for s in samples)
    assert samples[:7] == [1, -1, 2, -2, rat(1, 2), rat(-1, 2), 3]


def test_sample_parameters_rejects_counts_below_one(time_limit):
    time_limit(2.0)  # refused at once, not counted towards
    for count in (0, -1, 2.5, True):
        with pytest.raises(ValueError):
            ident._sample_parameters(count)
    assert ident._sample_parameters(1) == [rat(1)]


def test_verify_all_takes_only_the_order():
    # every count follows from the order: a one-parameter "verified" from
    # verify_all is always the degree-bound proof
    assert list(inspect.signature(ident.verify_all).parameters) == ["order"]


def test_default_sample_count_degree_bound():
    # a degree-(2N+2) polynomial identity in the parameter needs 2N+3 zeros
    assert ident.default_sample_count(40) == 83


ONE_PARAMETER = ("lemma1", "id_hyp", "id_war", "remark1_derivative", "adjoint_form")


def test_verify_all_proves_on_integers_and_samples_triples():
    # the one-parameter proofs run on 2N+3 distinct integers, 0, 1, -1, ...;
    # the three-parameter checks keep their rational triples
    order = 8
    count = ident.default_sample_count(order)
    reports = {r.identity_name: r.parameter_samples for r in ident.verify_all(order)}
    for name in ONE_PARAMETER:
        samples = reports[name]
        assert len(set(samples)) == len(samples) == count
        assert all(a.denominator == 1 for a in samples)
        assert samples == tuple(ident._integer_samples(count))
    assert ident._integer_samples(5) == [0, 1, -1, 2, -2]
    for name in ("cont1", "cont2", "euler_transform"):
        assert reports[name] == tuple(ident._default_triples(count))


@pytest.mark.parametrize("name", ONE_PARAMETER)
def test_coefficient_degree_in_a_is_at_most_2n_plus_2(monkeypatch, name):
    # the bound the proofs rest on: coefficient n of either side, at 2N+7
    # consecutive integers, has a vanishing (2n+3)-th forward difference
    # wherever one is defined; at n = N that is at 4 base points
    order = 6
    points = [rat(k) for k in range(-order - 3, order + 4)]
    sides = []

    def collect(_name, samples, _order, pair, *args, **kwargs):
        sides.extend(pair(a) for a in samples)

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


# -- boundary checks and the two-process verify_all ---------------------------

ORDER_CHECKS = {
    "verify_all": ident.verify_all,
    "odes": ident.verify_odes,
    "lemma1": ident.verify_lemma1,
    "cont1": partial(ident.verify_contiguous, "cont1"),
    "cont2": partial(ident.verify_contiguous, "cont2"),
    "euler_transform": ident.verify_euler_transform,
    "id_hyp": ident.verify_id_hyp,
    "id_war": ident.verify_id_war,
    "remark1_derivative": ident.verify_remark1_derivative,
    "adjoint_form": ident.verify_adjoint_form,
}


@pytest.mark.parametrize("order", [-1, -5, 2.5, "8", None, True])
@pytest.mark.parametrize("check", sorted(ORDER_CHECKS))
def test_order_is_refused_before_any_work(monkeypatch, check, order):
    # a negative or non-int order is named, before any series is built or
    # any worker forked
    def refuse(*args):
        raise AssertionError("work started before the order was checked")

    monkeypatch.setattr(HypergeometricSpec, "series", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    with pytest.raises(ValueError, match=r"^order must be"):
        ORDER_CHECKS[check](order=order)


SAMPLED_CHECKS = sorted(set(ORDER_CHECKS) - {"verify_all", "odes"})


def test_empty_samples_are_refused_before_any_work(monkeypatch):
    # a check with no sample has proved nothing: it must not say verified
    def refuse(*args):
        raise AssertionError("a series was built before the samples were checked")

    monkeypatch.setattr(HypergeometricSpec, "series", refuse)
    assert len(SAMPLED_CHECKS) == 8
    for check in SAMPLED_CHECKS:
        with pytest.raises(ValueError, match=r"needs at least one sample$"):
            ORDER_CHECKS[check]([], order=4)


WORKER_ORDER = 8
WORKER_SAMPLES = ident._integer_samples(ident.default_sample_count(WORKER_ORDER))


def serial_reports():
    """verify_all's reports, each check called alone in this process."""
    order = WORKER_ORDER
    count = ident.default_sample_count(order)
    a_samples, triples = ident._integer_samples(count), ident._default_triples(count)
    return [
        ident.verify_golden_coefficients(),
        ident.verify_odes(ident.DEFAULT_ORDER),
        ident.verify_f_positivity(200),
        ident.verify_lemma1(a_samples, order),
        ident.verify_contiguous("cont1", triples, order),
        ident.verify_contiguous("cont2", triples, order),
        ident.verify_euler_transform(triples, order),
        ident.verify_id_hyp(a_samples, order),
        ident.verify_id_war(a_samples, order),
        ident.verify_remark1_derivative(a_samples, order),
        ident.verify_adjoint_form(a_samples, order),
    ]


def outcome(run):
    """The reports run returns, or the repr of the ZeroDivisionError it raises."""
    try:
        return run()
    except ZeroDivisionError as exc:
        return repr(exc)


def same_outcome():
    """verify_all's outcome, checked against the checks called alone."""
    got = outcome(partial(ident.verify_all, WORKER_ORDER))
    assert got == outcome(serial_reports)
    return got


def open_fds():
    """This process's open file descriptors, where Linux lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture
def forks(monkeypatch):
    """verify_all takes the worker path on any host; the list of its forks.
    After the test no child is left and no pipe end is open."""
    monkeypatch.setattr(ident, "_usable_cpus", lambda: 2)
    calls = []
    real = os.fork

    def counted():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counted)
    fds = open_fds()
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


REAL_HYP = ident._hyp


def built_for(a, b, c):
    """The (pair, sample s) that builds F(a, b; c; x): lemma1's
    F(s+1, s+1; 2), remark1_derivative's F(s+1, s+2; 4), or the F(s+1, s; 2)
    that id_hyp, id_war and remark1_derivative share; else None.  No other
    check builds a series of these shapes.  The first is scaled by a and the
    second by a(a+1)/6, so a fault in them does not show at s = 0 (index 0),
    nor in the second at s = -1 (index 2): the fault indices below avoid
    those."""
    if (b, c) == (a, 2):
        return "lemma1", a - 1
    if (b, c) == (a + 1, 4):
        return "remark1", a - 1
    if (b, c) == (a - 1, 2):
        return "F(s+1,s;2)", a - 1
    return None


def at(pair, *indices):
    return [(pair, WORKER_SAMPLES[i]) for i in indices]


def mutate_hyp(monkeypatch, fail=(), raising=(), exit_in_worker=()):
    """Make ident._hyp wrong for the (pair, sample) entries given: perturbed
    at fail, raising at raising, and ending the worker process at
    exit_in_worker.  Each call replaces the mutation before."""
    caller = os.getpid()

    def hyp(a, b, c, order):
        built = built_for(a, b, c)
        if built in exit_in_worker and os.getpid() != caller:
            os._exit(1)
        if built in raising:
            raise ZeroDivisionError(f"at {built[1]}")
        out = REAL_HYP(a, b, c, order)
        return perturbed(out, 1, 1) if built in fail else out

    monkeypatch.setattr(ident, "_hyp", hyp)


def failed_sample(reports, name):
    (report,) = [r for r in reports if r.identity_name == name]
    assert not report.verified
    return report.failure_detail["sample"]


CHECK_OF = {"lemma1": "lemma1", "remark1": "remark1_derivative"}


@pytest.mark.parametrize("fail", [
    pytest.param(at("lemma1", 6), id="even"),
    pytest.param(at("lemma1", 3), id="odd"),
    pytest.param(at("lemma1", 3, 8), id="odd-first"),
    pytest.param(at("lemma1", 2, 7), id="even-first"),
    pytest.param(at("remark1", 6), id="worker"),
    pytest.param(at("remark1", 4, 7), id="worker-first"),
    pytest.param(at("lemma1", 7, 5) + at("remark1", 8, 3), id="both"),
])
def test_lower_failing_sample_wins(monkeypatch, forks, fail):
    # lemma1, which the caller runs, and remark1_derivative, which the
    # worker runs, fail at one sample or more: each report names the first
    mutate_hyp(monkeypatch, fail=fail)
    reports = same_outcome()
    for pair in {pair for pair, _ in fail}:
        first = min(WORKER_SAMPLES.index(sample) for p, sample in fail if p == pair)
        assert failed_sample(reports, CHECK_OF[pair]) == str(WORKER_SAMPLES[first])
    assert len(forks) == 1


@pytest.mark.parametrize("fail, raising, raised", [
    pytest.param(at("lemma1", 2), at("lemma1", 3), False, id="2-3"),
    pytest.param(at("lemma1", 6), at("lemma1", 3), True, id="6-3"),
    pytest.param(at("lemma1", 3), at("lemma1", 4), False, id="3-4"),
    pytest.param(at("lemma1", 5), at("lemma1", 4), True, id="5-4"),
    pytest.param(at("remark1", 3), at("remark1", 4), False, id="worker-3-4"),
    pytest.param(at("remark1", 5), at("remark1", 4), True, id="worker-5-4"),
    pytest.param(at("lemma1", 2), at("remark1", 4), True, id="caller-fails-worker-raises"),
    pytest.param(at("remark1", 3), at("lemma1", 6), True, id="worker-fails-caller-raises"),
])
def test_exception_propagates_only_where_no_earlier_sample_fails(monkeypatch, forks, fail, raising, raised):
    # a check raises at one sample and fails at another: the earlier of the
    # two decides, as in the serial loop.  An exception in any check ends
    # the call, whichever process ran it and whatever an earlier check found
    mutate_hyp(monkeypatch, fail=fail, raising=raising)
    got = same_outcome()
    ((_, raising_sample),) = raising
    ((pair, failing_sample),) = fail
    if raised:
        assert got == repr(ZeroDivisionError(f"at {raising_sample}"))
    else:
        assert failed_sample(got, CHECK_OF[pair]) == str(failing_sample)
    assert len(forks) == 1


def test_no_fork_or_one_cpu_gives_the_same_reports(monkeypatch, forks):
    mutate_hyp(monkeypatch, fail=at("lemma1", 3, 6) + at("remark1", 5))

    def no_fork():
        raise OSError("fork refused")

    def failures(reports):
        return failed_sample(reports, "lemma1"), failed_sample(reports, "remark1_derivative")

    want = (str(WORKER_SAMPLES[3]), str(WORKER_SAMPLES[5]))
    monkeypatch.setattr(os, "fork", no_fork)
    assert failures(same_outcome()) == want
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
    monkeypatch.setattr(ident, "_usable_cpus", lambda: 1)
    assert failures(same_outcome()) == want
    assert len(forks) == 0


@pytest.mark.skipif(ident._threads_and_cpu() is None, reason="thread count read from Linux's /proc")
def test_no_fork_while_other_threads_run(monkeypatch, forks):
    # a forked child can deadlock on a lock another thread held at the fork
    import threading

    mutate_hyp(monkeypatch, fail=at("lemma1", 3))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert failed_sample(same_outcome(), "lemma1") == str(WORKER_SAMPLES[3])
    finally:
        release.set()
        thread.join(5)
    assert not thread.is_alive()
    assert len(forks) == 0


def caller_builds_of_shared_hyp(monkeypatch):
    """The samples at which this process builds F(s+1, s; 2), the series
    the worker's checks share, in order, on top of the mutation in place."""
    caller, mutated, built = os.getpid(), ident._hyp, []

    def recorded(a, b, c, order):
        pair = built_for(a, b, c)
        if os.getpid() == caller and pair is not None and pair[0] == "F(s+1,s;2)":
            built.append(pair[1])
        return mutated(a, b, c, order)

    monkeypatch.setattr(ident, "_hyp", recorded)
    return built


def test_worker_that_exits_partway_leaves_its_samples_to_the_caller(monkeypatch, forks):
    # the worker ends in remark1_derivative, the third of its four checks,
    # with id_hyp and id_war done: it sends no reports, so the caller runs
    # all four checks itself, each at every sample, and finds
    # remark1_derivative's fault
    mutate_hyp(monkeypatch, fail=at("remark1", 5), exit_in_worker=at("remark1", 3))
    built = caller_builds_of_shared_hyp(monkeypatch)
    reports = ident.verify_all(WORKER_ORDER)
    assert built == WORKER_SAMPLES
    assert reports == serial_reports()
    assert failed_sample(reports, "remark1_derivative") == str(WORKER_SAMPLES[5])
    assert [r.identity_name for r in reports if not r.verified] == ["remark1_derivative"]
    assert len(forks) == 1


@pytest.mark.parametrize("keep, caller_runs_them", [
    pytest.param(lambda n: n, False, id="whole"),
    pytest.param(lambda n: n - 1, True, id="no-newline"),
    pytest.param(lambda n: n // 2, True, id="half"),
])
def test_worker_message_cut_short_leaves_its_checks_to_the_caller(monkeypatch, forks, keep, caller_runs_them):
    # a whole message spares the caller the worker's checks; one without its
    # final newline counts as none, and the caller runs them all itself
    real = ident._Worker._message

    def cut(reports):
        message = real(reports)
        return message[: keep(len(message))]

    monkeypatch.setattr(ident._Worker, "_message", staticmethod(cut))
    mutate_hyp(monkeypatch, fail=at("remark1", 5))
    built = caller_builds_of_shared_hyp(monkeypatch)
    reports = ident.verify_all(WORKER_ORDER)
    assert built == (WORKER_SAMPLES if caller_runs_them else [])
    assert reports == serial_reports()
    assert failed_sample(reports, "remark1_derivative") == str(WORKER_SAMPLES[5])
    assert len(forks) == 1


@pytest.mark.parametrize("case", ["verified", "failed", "raised"])
def test_one_fork_per_call_and_no_child_left(monkeypatch, forks, case):
    # the forks fixture checks, after the test, that no child is left
    if case == "failed":
        mutate_hyp(monkeypatch, fail=at("lemma1", 5))
    elif case == "raised":
        mutate_hyp(monkeypatch, raising=at("lemma1", 4))
    got = outcome(partial(ident.verify_all, WORKER_ORDER))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if case == "raised":
        assert got == repr(ZeroDivisionError(f"at {WORKER_SAMPLES[4]}"))
    else:
        assert all(r.verified for r in got) == (case == "verified")
