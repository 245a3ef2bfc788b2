"""Exact machine checks of the hypergeometric identities behind the torus ratio.

Every check here runs in exact rational arithmetic on truncated power series
and reports through which order the identity was verified.  The identities
with one free parameter a are checked at enough distinct values of a that
the per-coefficient polynomial degree bound turns the sample run into a
proof for all values of a through the stated order.  Any distinct values
will do; the integers 0, 1, -1, 2, -2, ... keep the exact numbers smallest
(``_integer_samples``).  The three-parameter checks (``cont1``, ``cont2``,
``euler_transform``) run on as many rational (a, b, c) triples
(``_default_triples``); for them the run is sampled evidence, not a proof.
``verify_all`` takes one input, the order, and derives every count from it,
so a one-parameter "verified" from it is always the degree-bound proof.

Where it may use a second CPU, ``verify_all`` runs its checks in two
processes: a forked worker runs the last four (``id_hyp``, ``id_war``,
``remark1_derivative``, ``adjoint_form``, which share one table of series)
while the caller runs the first seven, and the reports are the ones a single
process gives (``_Worker``).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache

from .series import (
    ONE,
    DifferentialOperator,
    HypergeometricSpec,
    PowerSeries,
    binomial_series,
    one_minus_x_power,
    power_product,
    rat,
)

__all__ = [
    "IdentityReport",
    "ABAR_OPERATOR",
    "VBAR_OPERATOR",
    "ABAR_LEADING",
    "VBAR_LEADING",
    "F_LEADING",
    "F_DISPLAYED_Z3",
    "expand_abar",
    "expand_vbar",
    "expand_f",
    "verify_odes",
    "verify_f_positivity",
    "verify_golden_coefficients",
    "verify_lemma1",
    "verify_contiguous",
    "verify_euler_transform",
    "verify_id_hyp",
    "verify_id_war",
    "verify_remark1_derivative",
    "verify_adjoint_form",
    "verify_all",
    "default_sample_count",
]


# --------------------------------------------------------------------------
# Printed constants: the two second-order operators annihilating the area and
# volume generating series, and the leading coefficients of their expansions.
# Operator polynomials are stored in factored form and expanded exactly.
# --------------------------------------------------------------------------

def _poly(*factors):
    """The product of the factors, each a coefficient list (ascending)."""
    out = (1,)
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = tuple(prod)
    return out


_Z = (0, 1)
_Z_MINUS_1 = (-1, 1)
_Z_PLUS_1 = (1, 1)
_Q = (1, -6, 1)  # z^2 - 6z + 1, ascending

# z(z-1)(z^2-6z+1)(z+1)^2 * y'' + (z+1)(5z^4-8z^3-32z^2+28z-1) * y'
#   + (4z^4+11z^3-z^2-43z+13) * y
ABAR_OPERATOR = DifferentialOperator(
    (
        (13, -43, -1, 11, 4),
        _poly(_Z_PLUS_1, (-1, 28, -32, -8, 5)),
        _poly(_Z, _Z_MINUS_1, _Q, _Z_PLUS_1, _Z_PLUS_1),
    )
)

# z(z-1)(z+1)(z^2-6z+1)^2 * y'' + (z^2-6z+1)(7z^4-22z^3-18z^2+26z-1) * y'
#   + 3(3z^5-24z^4-2z^3+56z^2-25z+8) * y
VBAR_OPERATOR = DifferentialOperator(
    (
        tuple(3 * c for c in (8, -25, 56, -2, -24, 3)),
        _poly(_Q, (-1, 26, -18, -22, 7)),
        _poly(_Z, _Z_MINUS_1, _Z_PLUS_1, _Q, _Q),
    )
)

ABAR_LEADING = (rat(4), rat(52), rat(477), rat(3809), rat(451625, 16), rat(3195333, 16))
VBAR_LEADING = (rat(2), rat(48), rat(1269, 2), rat(6600), rat(1928025, 32), rat(2026101, 4))
F_LEADING = (rat(72), rat(1932))
F_DISPLAYED_Z3 = rat(31248)

DEFAULT_ORDER = 64


def _checked_order(order, name: str = "order", least: int = 0) -> int:
    """order, where it is an int of at least ``least``; else a ValueError
    naming it, before any series is built."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError(f"{name} must be an int, not {order!r}")
    if order < least:
        raise ValueError(f"{name} must be at least {least}, not {order}")
    return order


def default_sample_count(order: int) -> int:
    """Samples needed so the degree bound proves a one-parameter identity for
    all values of its parameter through the order; the three-parameter checks
    take as many triples, as sampled evidence."""
    return 2 * order + 3


def _integer_samples(count: int) -> list:
    """The first count of 0, 1, -1, 2, -2, ..., as rationals: the samples of
    the one-parameter checks.  Coefficient n of either side of each is a
    polynomial in a of degree at most 2n + 2 (each check says why), so any
    2N + 3 distinct values prove it through z^N."""
    return [rat((k + 1) // 2 if k % 2 else -(k // 2)) for k in range(count)]


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    verified_order: int
    parameter_samples: tuple = ()
    status: str = "verified"  # "verified" | "failed"
    failure_detail: dict | None = None

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_dict(self) -> dict:
        out = {
            "name": self.identity_name,
            "verified_order": self.verified_order,
            "samples": [self._fmt(s) for s in self.parameter_samples],
            "status": self.status,
        }
        if self.failure_detail is not None:
            out["failure_detail"] = self.failure_detail
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def _fmt(sample) -> str:
        if isinstance(sample, tuple):
            return "(" + ",".join(str(v) for v in sample) + ")"
        return str(sample)


def _first_mismatch(lhs: PowerSeries, rhs: PowerSeries, order: int):
    """(index, lhs - rhs there) at the first coefficient through order where
    the two differ, else None: compared on their stored integers, by
    cross-multiplying, so that neither needs reducing."""
    a, da, b, db = lhs._nums[: order + 1], lhs._den, rhs._nums[: order + 1], rhs._den
    same = a == b if da == db else [v * db for v in a] == [v * da for v in b]
    if same:
        return None
    for n in range(order + 1):
        if a[n] * db != b[n] * da:
            return n, lhs[n] - rhs[n]
    return None


def _failure(name, order, index, difference, samples=(), **detail) -> IdentityReport:
    """The failed report: the detail entries, then the first failing
    coefficient index and the difference found there."""
    detail.update(coefficient_index=index, difference=str(difference))
    return IdentityReport(name, order, tuple(samples), "failed", detail)


def _sampled_report(name, samples, order, pair_fn, default=_integer_samples) -> IdentityReport:
    """Run a per-sample LHS/RHS expansion and compare exactly through order;
    samples None means default(default_sample_count(order)), and an empty
    list is refused before any series is built.  The report names the first
    sample that fails; an exception at a sample propagates."""
    samples = tuple(default(default_sample_count(order)) if samples is None else samples)
    if not samples:
        raise ValueError(f"{name} needs at least one sample")
    for sample in samples:
        mismatch = _first_mismatch(*pair_fn(sample), order)
        if mismatch is not None:
            return _failure(name, order, *mismatch, samples, sample=IdentityReport._fmt(sample))
    return IdentityReport(name, order, samples)


# --------------------------------------------------------------------------
# Expansions of the area/volume series and their flux combination
# --------------------------------------------------------------------------

def _compose_with_inner_argument(outer: PowerSeries, order: int) -> PowerSeries:
    """outer(4z/(1-z)^2) mod z^(N+1), N = min(order, outer.order), exactly.

    Horner's rule in u = z/(1-z)^2 on the integer numerators 4^n t_n of the
    outer coefficients over their common denominator, with no series product:
    multiplying by u is a shift by one power and two prefix sums (dividing by
    1 - z twice).  The accumulator at step n is multiplied by u n more times,
    so only its terms through z^(N-n) are kept.
    """
    order = min(outer.order, order)
    nums = outer._nums
    acc = [nums[order] << (2 * order)]
    for n in range(order - 1, -1, -1):
        acc = [nums[n] << (2 * n), *itertools.accumulate(itertools.accumulate(acc))]
    return PowerSeries._of(acc, outer._den)


def _closed_form(a, prefactor: tuple, q_power: int, order: int) -> PowerSeries:
    """prefactor/Q^q_power * 2F1(a,a;1;4z/(1-z)^2) through z^order, Q = z^2-6z+1: one
    product with the short prefactor, one long division by Q^q_power (constant term 1).
    Reduced, like ``expand_f``, as the cached expansions are factors of later products."""
    comp = _compose_with_inner_argument(_hyp(a, a, ONE, order), order)
    num = PowerSeries.from_polynomial(prefactor, order) * comp
    return (num / PowerSeries.from_polynomial(_poly(*[_Q] * q_power), order)).reduced()


# typed, so that True or 3.0 reaches the order check and is not served the
# cached expansion of 1 or 3
@lru_cache(maxsize=None, typed=True)
def expand_abar(order: int) -> PowerSeries:
    """Closed-form expansion 4(1-z^2)/(z^2-6z+1)^2 * 2F1(-1/2,-1/2;1;4z/(1-z)^2)."""
    return _closed_form(rat(-1, 2), (4, 0, -4), 2, _checked_order(order))


@lru_cache(maxsize=None, typed=True)
def expand_vbar(order: int) -> PowerSeries:
    """Closed-form expansion 2(1-z)^3/(z^2-6z+1)^3 * 2F1(-3/2,-3/2;1;4z/(1-z)^2)."""
    return _closed_form(rat(-3, 2), (2, -6, 6, -2), 3, _checked_order(order))


@lru_cache(maxsize=None, typed=True)
def expand_f(order: int) -> PowerSeries:
    """Coefficients d_n of the flux series, via F = 2*Vbar'*Abar - 3*Vbar*Abar'."""
    ab = expand_abar(_checked_order(order) + 1)
    vb = expand_vbar(order + 1)
    f = (vb.derivative() * ab.truncate(order)).scale(2) - (vb.truncate(order) * ab.derivative()).scale(3)
    return f.reduced()


# --------------------------------------------------------------------------
# ODE residuals, golden coefficients, positivity
# --------------------------------------------------------------------------

def verify_odes(order: int = DEFAULT_ORDER, abar=None, vbar=None) -> IdentityReport:
    """Apply the printed operators to the closed-form expansions.

    abar/vbar may be supplied explicitly (the fault-injection suite passes
    perturbed series); by default the closed-form expansions are used.  A
    supplied series must reach ``order`` and is checked only through it.
    """
    _checked_order(order, least=3)
    abar = abar if abar is not None else expand_abar(order)
    vbar = vbar if vbar is not None else expand_vbar(order)
    for name, op, series in (("abar", ABAR_OPERATOR, abar), ("vbar", VBAR_OPERATOR, vbar)):
        if series.order < order:
            raise ValueError(f"{name} series has order {series.order}, below the checked order {order}")
        residual = op.apply(series.truncate(order))
        mismatch = _first_mismatch(residual, PowerSeries.zero(residual.order), residual.order)
        if mismatch is not None:
            return _failure("ode_residuals", order - 2, *mismatch, series=name)
    return IdentityReport("ode_residuals", order - 2)


def verify_golden_coefficients() -> IdentityReport:
    """Exact regression of the printed leading coefficients of Abar and Vbar."""
    ab = expand_abar(5)
    vb = expand_vbar(5)
    for name, series, golden in (("abar", ab, ABAR_LEADING), ("vbar", vb, VBAR_LEADING)):
        mismatch = _first_mismatch(series, PowerSeries(golden), 5)
        if mismatch is not None:
            return _failure("golden_coefficients", 5, *mismatch, series=name)
    return IdentityReport("golden_coefficients", 5)


def verify_f_positivity(window: int = 200) -> IdentityReport:
    """d_0 = 72, d_1 = 1932 exactly; d_n > 0 on the desk-scale window.

    Also compares the computed coefficient of z^3 against the displayed 31248
    and reports (not fails on) any discrepancy, plus the computed d_2, which
    the display elides; d_2 must still be positive.
    """
    f = expand_f(_checked_order(window, "window", 3))  # the report reads d_2 and d_3
    detail = {
        "d2": str(f[2]),
        "d3": str(f[3]),
        "d3_matches_display": f[3] == F_DISPLAYED_Z3,
        "display_matches_d2": f[2] == F_DISPLAYED_Z3,
    }
    mismatch = _first_mismatch(f, PowerSeries(F_LEADING), len(F_LEADING) - 1)
    if mismatch is not None:
        return _failure("f_positivity", window, *mismatch)
    # expand_f is reduced, so its denominator is positive: each sign is its numerator's
    for n, num in enumerate(f.nums):
        if num <= 0:
            return _failure("f_positivity", window, n, f[n])
    return IdentityReport("f_positivity", window, (), "verified", detail)


# --------------------------------------------------------------------------
# Identity suite (free-parameter identities via degree-bound sampling)
#
# The degree in a of a coefficient, from which each one-parameter check's
# bound follows.  [x^k] F(alpha, beta; gamma; x), alpha and beta each a or -a
# plus a constant and gamma a constant, is (alpha)_k (beta)_k / ((gamma)_k k!):
# degree 2k.  [x^k] of p(x)^e, p a polynomial with constant term 1 and e
# affine in a, is a sum of binomials C(e, j) times constants, j <= k: degree
# at most k, and so for a product of such powers (``power_product``).
# Degrees add in a product, so [x^n] of one is at most the largest sum over
# i + j = n.  Composing with r(z) = 4z/(1-z)^2, which starts at z^1, keeps
# [z^m] at degree 2m where the outer series has degree 2k at x^k, k <= m.  A
# derivative takes [x^n] from [x^(n+1)].
# --------------------------------------------------------------------------

def _hyp(a, b, c, order):
    return HypergeometricSpec(a, b, c).series(order)


def _w_series(a, order: int) -> PowerSeries:
    """w_a(x) = 2F1(-a,-a;1;x) * (1+x)^(-a) as an exact series: [x^m] has
    degree at most 2m in a, and [x^n] w_a' at most 2n + 2."""
    return _hyp(-a, -a, ONE, order) * binomial_series(-a, order)


def verify_lemma1(a_samples=None, order: int = 40) -> IdentityReport:
    """(a+1)(1-x) F(a+1,a+2;2;x) = a(1+x) F(a+1,a+1;2;x) + F(a,a;1;x).

    Degree in a at x^n: the F of each side has degree 2n there and 2n - 2 at
    x^(n-1), so its product with 1 -/+ x has degree 2n, and the factor a + 1
    or a makes 2n + 1; F(a,a;1) has 2n."""
    _checked_order(order)

    def pair(a):
        lhs = _hyp(a + 1, a + 2, rat(2), order) * PowerSeries.from_polynomial((1, -1), order)
        lhs = lhs.scale(a + 1)
        rhs = (_hyp(a + 1, a + 1, rat(2), order) * PowerSeries.from_polynomial((1, 1), order)).scale(a)
        rhs = rhs + _hyp(a, a, ONE, order)
        return lhs, rhs

    return _sampled_report("lemma1", a_samples, order, pair)


def _sample_parameters(count: int) -> list:
    """The first count of 1, -1, 2, -2, 1/2, -1/2, 3, ...: the distinct
    nonzero rationals p/q in lowest terms, by |p| + q, then by q."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"sample count must be an int of at least 1, got {count!r}")
    values = (rat(sign * (h - q), q) for h in itertools.count(2) for q in range(1, h)
              if math.gcd(h - q, q) == 1 for sign in (1, -1))
    return list(itertools.islice(values, count))


def _default_triples(count: int):
    """count deterministic (a, b, c) triples for the three-parameter checks:
    a and b from ``_sample_parameters``, and c positive, so that every lower
    parameter is valid."""
    a_vals = _sample_parameters(count)
    c_vals = (ONE, rat(2), rat(3), rat(1, 2), rat(5, 2))
    triples = []
    for i, a in enumerate(a_vals):
        b = a_vals[(i * 7 + 3) % len(a_vals)]
        c = c_vals[i % len(c_vals)]
        triples.append((a, b, c))
    return triples


def verify_contiguous(which: str = "cont1", samples=None, order: int = 40) -> IdentityReport:
    """Gauss contiguous relations, checked in multiplied-through form.

    cont1: b*x*F(a+1,b+1;c+1;x) = c*(F(a+1,b;c;x) - F(a,b;c;x))
    cont2: a(1-x)(F(a+1,b;c;x) - F(a,b;c;x))
           = (c-b) F(a,b-1;c;x) + (b-c+a*x) F(a,b;c;x)
    """
    if which not in ("cont1", "cont2"):
        raise ValueError(f"unknown contiguous relation {which!r}")
    _checked_order(order)

    def pair_cont1(t):
        a, b, c = t
        lhs = _hyp(a + 1, b + 1, c + 1, order) * PowerSeries.from_polynomial((0, b), order)
        rhs = (_hyp(a + 1, b, c, order) - _hyp(a, b, c, order)).scale(c)
        return lhs, rhs

    def pair_cont2(t):
        a, b, c = t
        f = _hyp(a, b, c, order)
        lhs = ((_hyp(a + 1, b, c, order) - f) * PowerSeries.from_polynomial((1, -1), order)).scale(a)
        rhs = _hyp(a, b - 1, c, order).scale(c - b) + f * PowerSeries.from_polynomial((b - c, a), order)
        return lhs, rhs

    pair = pair_cont1 if which == "cont1" else pair_cont2
    return _sampled_report(which, samples, order, pair, _default_triples)


def verify_euler_transform(samples=None, order: int = 40) -> IdentityReport:
    """F(a,b;c;x) = (1-x)^(c-a-b) F(c-a,c-b;c;x)."""
    _checked_order(order)

    def pair(t):
        a, b, c = t
        lhs = _hyp(a, b, c, order)
        rhs = one_minus_x_power(c - a - b, order) * _hyp(c - a, c - b, c, order)
        return lhs, rhs

    return _sampled_report("euler_transform", samples, order, pair, _default_triples)


class _SharedW:
    """The series that several one-parameter checks at ``order`` use, built
    once per sample and kept for the call: w_a through order + 2, reduced, as
    it is a factor of several products, for ``id_hyp``, ``id_war`` and
    ``adjoint_form``; F(a+1,a;2;x) through order + 1 for ``id_war``, and its
    product with (1-x)^(2a) for ``id_hyp`` and ``remark1_derivative``, each
    check truncating what it needs less of.  ``verify_all`` makes one table
    in whichever process runs those four checks and hands it to them
    (``_Worker``).  The other series the checks use are each used once, and
    cost more memory to hold than time to rebuild."""

    def __init__(self, order: int):
        self.order = order
        self._built = {}

    @staticmethod
    def serving(shared, order: int) -> "_SharedW":
        """``shared`` if it serves this order, else a table for one check."""
        return shared if shared is not None and shared.order == order else _SharedW(order)

    def _kept(self, key, build) -> PowerSeries:
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def w(self, a) -> PowerSeries:
        """w_a through order + 2."""
        return self._kept(("w", a), lambda: _w_series(a, self.order + 2).reduced())

    def hyp(self, a) -> PowerSeries:
        """F(a+1,a;2;x) through order + 1."""
        return self._kept(("hyp", a), lambda: _hyp(a + 1, a, rat(2), self.order + 1))

    def hyp_power(self, a) -> PowerSeries:
        """F(a+1,a;2;x) (1-x)^(2a) through order + 1."""
        return self._kept(("hyp_power", a),
                          lambda: self.hyp(a) * one_minus_x_power(2 * a, self.order + 1))


def verify_id_hyp(a_samples=None, order: int = 40, shared=None) -> IdentityReport:
    """Cleared form: w_a'(x) (1+x)^(a+1) = a(a-1)(1-x)^(2a) F(a+1,a;2;x).

    Degree in a at x^n: w_a' has 2i + 2 at x^i and (1+x)^(a+1) has j, so the
    left side has 2n + 2; F has 2i and the power j, so their product has 2n,
    and a(a-1) makes 2n + 2.

    ``shared``, here and in the other checks that take it, is the table of
    series that ``verify_all`` hands to its checks (``_SharedW``)."""
    _checked_order(order)
    table = _SharedW.serving(shared, order)

    def pair(a):
        lhs = table.w(a).derivative() * binomial_series(a + 1, order)
        rhs = table.hyp_power(a).truncate(order).scale(a * (a - 1))
        return lhs, rhs

    return _sampled_report("id_hyp", a_samples, order, pair)


def verify_id_war(a_samples=None, order: int = 30, shared=None) -> IdentityReport:
    """Warped derivative identity: with r(z) = 4z/(1-z)^2,

    d/dz w_a(r(z)) = 4a(a-1) F(a+1,a;2;r(z))
                     * (1-6z+z^2)^(2a) / (1-z)^(4a)
                     * (1-z)^(2a-1) / (1+z)^(2a+1),

    the three powers taken as one series (``power_product``).

    Degree in a at z^n: w_a(r(z)) has 2m at z^m, so its derivative has
    2n + 2; F(r(z)) has 2i at z^i and the power product j, so their product
    has 2n, and 4a(a-1) makes 2n + 2."""
    _checked_order(order)
    table = _SharedW.serving(shared, order)

    def pair(a):
        lhs = _compose_with_inner_argument(table.w(a), order + 1).derivative()
        rhs = _compose_with_inner_argument(table.hyp(a), order)
        powers = power_product(((_Q, 2 * a), ((1, -1), -4 * a + 2 * a - 1), ((1, 1), -2 * a - 1)), order)
        return lhs, (rhs * powers).scale(4 * a * (a - 1))

    return _sampled_report("id_war", a_samples, order, pair)


def verify_remark1_derivative(a_samples=None, order: int = 30, shared=None) -> IdentityReport:
    """d/dx [F(a+1,a;2;x)(1-x)^(2a)] =
    -(a(3-a)/2 F(a,a+1;3;x) + a(a+1)x/6 F(a+1,a+2;4;x)) (1-x)^(2a-1).

    Degree in a at x^n: the bracket has 2m at x^m, so the left side has
    2n + 2.  a(3-a)/2 F(a,a+1;3) has 2i + 2 at x^i, and a(a+1)/6 x F(a+1,a+2;4)
    has 2(i - 1) + 2; with (1-x)^(2a-1) at j, the right side has 2n + 2."""
    _checked_order(order)
    table = _SharedW.serving(shared, order)

    def pair(a):
        lhs = table.hyp_power(a).derivative()
        term1 = _hyp(a, a + 1, rat(3), order).scale(a * (3 - a) / 2)
        term2 = (_hyp(a + 1, a + 2, rat(4), order) * PowerSeries.identity(order)).scale(
            a * (a + 1) / 6
        )
        rhs = ((term1 + term2) * one_minus_x_power(2 * a - 1, order)).scale(-1)
        return lhs, rhs

    return _sampled_report("remark1_derivative", a_samples, order, pair)


def verify_adjoint_form(a_samples=None, order: int = 30, shared=None) -> IdentityReport:
    """Self-adjoint (Sturm-Liouville) form of the ODE satisfied by w_a:

    d/dx [ x ((1+x)/(1-x))^(2a) w_a'(x) ] =
        a(a-1) (1+x)^(-2) ((1+x)/(1-x))^(2a) w_a(x).

    Derived directly from the hypergeometric equation for 2F1(-a,-a;1;x)
    under the substitution w = 2F1 * (1+x)^(-a).  Note the right-hand side
    equals a(a-1) at x = 0, matching w_a'(0); a variant with an extra factor
    of x (and squared ratio power) would vanish there and cannot hold.  Each
    side's powers of 1 + x and 1 - x are one series (``power_product``).

    Degree in a at x^n: the ratio power has j at x^j and w_a' has 2i + 2 at
    x^i, so the bracket, shifted by x, has 2(m - 1) + 2 = 2m at x^m and the
    left side 2n + 2; the power product has j and w_a 2i, so the right side
    has 2n, and a(a-1) makes 2n + 2.
    """
    _checked_order(order)
    x_series = PowerSeries.identity(order + 1)
    table = _SharedW.serving(shared, order)

    def pair(a):
        w = table.w(a)
        ratio = power_product((((1, 1), 2 * a), ((1, -1), -2 * a)), order + 1)
        lhs = (x_series * ratio * w.derivative()).derivative()
        rhs = power_product((((1, 1), 2 * a - 2), ((1, -1), -2 * a)), order) * w.truncate(order)
        return lhs, rhs.scale(a * (a - 1))

    return _sampled_report("adjoint_form", a_samples, order, pair)


# --------------------------------------------------------------------------
# Whole-suite driver
# --------------------------------------------------------------------------

def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads_and_cpu():
    """This process's thread count and the CPU it runs on now, where Linux
    tells both (``/proc/self/stat``), else None."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            fields = stat.read().rsplit(b")", 1)[1].split()
        return int(fields[17]), int(fields[36])
    except (OSError, ValueError, IndexError):
        return None


class _Worker:
    """The forked second process of one ``verify_all`` call, as the caller
    holds it.

    The worker runs the checks it is given and writes their reports to the
    pipe as one JSON line; where one of them raises, it writes nothing.  The
    caller runs its own checks meanwhile and then reads the line
    (``reports``).  Where no worker runs (``pid`` None), or the line does not
    come whole, the caller runs the worker's checks itself, so every report
    and exception is the one a single process gives.  Leaving the ``with``
    block, the caller kills the worker if an exception cut the call short,
    and reaps it.
    """

    def __init__(self, pid=None, fd=None):
        self.pid = pid
        self._pipe = open(fd, "rb") if pid else None

    @classmethod
    def start(cls, run) -> "_Worker":
        """Fork a worker that writes the reports ``run()`` returns and leaves
        by ``os._exit``, where this process may run on two or more CPUs; the
        caller's handle, with pid None where no worker runs: one CPU, no
        ``os.fork``, other threads running where Linux reports the count (a
        forked child can deadlock on a lock one of them held), or a fork that
        failed."""
        if not hasattr(os, "fork") or _usable_cpus() < 2:
            return cls()
        stat = _threads_and_cpu()
        if stat is not None and stat[0] > 1:
            return cls()
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            return cls()
        if pid == 0:
            try:
                os.close(read_end)
                if stat is not None:
                    cls._leave_cpu(stat[1])
                message = cls._message(run())
                with open(write_end, "wb") as pipe:
                    pipe.write(message)
            finally:
                os._exit(0)
        os.close(write_end)
        return cls(pid, read_end)

    @staticmethod
    def _leave_cpu(cpu: int):
        """Run the worker on the CPUs it may use other than the caller's:
        left to itself, the kernel kept it on the caller's CPU for most of
        the call in most runs on a two-vCPU host."""
        try:
            os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
        except OSError:
            pass  # no other CPU after all: run beside the caller

    @staticmethod
    def _message(reports) -> bytes:
        """The reports as one line: each one's name, order, status and
        failure detail, whose values are str and int, which JSON keeps
        exactly.  The samples are the caller's own, and are not sent."""
        return json.dumps([[r.identity_name, r.verified_order, r.status, r.failure_detail]
                           for r in reports]).encode() + b"\n"

    def reports(self, run, samples) -> list:
        """The worker's reports, each with ``samples``, where its line came
        whole; else the reports of ``run()``, run here."""
        message = self._pipe.read() if self._pipe else b""
        if not message.endswith(b"\n"):  # no worker, or it raised or died
            return run()
        return [IdentityReport(name, order, tuple(samples), status, detail)
                for name, order, status, detail in json.loads(message)]

    def __enter__(self) -> "_Worker":
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.pid is None:
            return
        self._pipe.close()
        try:
            if exc_type is not None:
                import signal  # loaded only on this path, not on every call

                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already reaped: the host ignores SIGCHLD


def verify_all(order: int = 40) -> list:
    """Run every exact check; returns the list of IdentityReports.

    The order is the one input, and every count follows from it: each
    sampled check runs through z^order at ``default_sample_count(order)``
    samples, so each one-parameter "verified" is the degree-bound proof; the
    ODE residuals run at ``DEFAULT_ORDER`` and positivity on a window of 200.

    Where this process may run on two or more CPUs, a forked worker runs the
    last four checks, which share one table of series (``_SharedW``), while
    this process runs the first seven (``_Worker``).  Where no worker runs,
    or it sends no whole line, this process runs the four itself, so the
    reports, failure details and exceptions are the ones one process gives.
    The order is checked before any series is built or any process forked."""
    count = default_sample_count(_checked_order(order))
    a_samples = _integer_samples(count)
    triples = _default_triples(count)

    def shared_checks():
        shared = _SharedW(order)
        return [
            verify_id_hyp(a_samples, order, shared),
            verify_id_war(a_samples, order, shared),
            verify_remark1_derivative(a_samples, order, shared),
            verify_adjoint_form(a_samples, order, shared),
        ]

    with _Worker.start(shared_checks) as worker:
        return [
            verify_golden_coefficients(),
            verify_odes(),
            verify_f_positivity(),
            verify_lemma1(a_samples, order),
            verify_contiguous("cont1", triples, order),
            verify_contiguous("cont2", triples, order),
            verify_euler_transform(triples, order),
            *worker.reports(shared_checks, a_samples),
        ]
