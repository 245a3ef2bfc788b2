"""Exact machine checks of the hypergeometric identities behind the torus ratio.

Each report says what its "verified" rests on (``IdentityReport.certificate``):
``all-parameters`` for ``lemma1``, ``cont1``, ``cont2``, ``euler_transform``,
``id_hyp``, ``remark1_derivative`` and ``adjoint_form``, proved for every
value of their parameters at every order by contiguity reduction
(``contiguity``), the order only labelling the report; ``id_hyp`` takes
Euler's transform as a lemma, checked in the same call or once per run;
``degree-bound`` for ``id_war``, whose series agree through the order at
enough distinct values of a, 2N+3 at order N, that the per-coefficient
degree bound makes the sample run a proof for all a through that order;
``sampled`` for ``id_war`` at fewer distinct caller-supplied values, where
the series agree at those values alone;
``through-order`` for the ODE residuals, ``window`` for flux positivity,
whose lemma, ``FLUX_OPERATOR``, is proved in the same call, and ``exact``
for the printed leading coefficients.  ``verify_all`` takes one
input, the order, and runs every check in this process, in one
``contiguity.run`` scope: each axiom is checked once, and the report of
``euler_transform`` is ``id_hyp``'s lemma.  A check called alone checks its
own axioms and lemma.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import contiguity
from .contiguity import A, B, C, X, Rat, Reduction, combine
from .series import (
    ONE,
    DifferentialOperator,
    HypergeometricSpec,
    PowerSeries,
    binomial_series,
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

# The flux F = 2*Vbar'*Abar - 3*Vbar*Abar' is D-finite, as a sum of products
# of derivatives of D-finite series (Stanley 1980): F and its first three
# derivatives lie in span{G^2, G G', G'^2} over Q(z), G = 2F1(-1/2,-1/2;1;x)
# at x = 4z/(1-z)^2, so one combination of them vanishes.  It was found by
# linear algebra over Q(z) and ``verify_f_positivity`` proves it.  Its
# recurrence has c_0(n) = -3n(n+1)^2, nonzero for n >= 1, so d_0 fixes the
# series:
#   z^2(z-1)^3(z+1)^2(z^2-6z+1)^2(3z^4-164z^3+370z^2-164z+3) * y'''
#   + z(z-1)^2(z+1)(z^2-6z+1)(66z^8-3943z^7+...-15) * y''
#   + 2(z-1)(210z^12-13761z^11+...+6) * y' + 2(378z^12-25452z^11+...+161) * y
FLUX_OPERATOR = DifferentialOperator(
    (
        _poly((2,), (161, -10178, 228041, -1142836, 2348092, -1822124, -506446, 1565968, -639207, -143106,
                     145173, -25452, 378)),
        _poly((2,), _Z_MINUS_1, (6, -649, 24144, -267421, 794998, -694834, -446064, 930590, -248334, -178437,
                                 101088, -13761, 210)),
        _poly(_Z, _Z_MINUS_1, _Z_MINUS_1, _Z_PLUS_1, _Q,
              (-15, 971, -17577, 47123, -30383, -16759, 18981, -3943, 66)),
        _poly(_Z, _Z, _Z_MINUS_1, _Z_MINUS_1, _Z_MINUS_1, _Z_PLUS_1, _Z_PLUS_1, _Q, _Q, (3, -164, 370, -164, 3)),
    )
)

# The closed forms prefactor/Q^q_power * 2F1(a,a;1;4z/(1-z)^2), as
# (a, prefactor, q_power): what ``expand_abar`` and ``expand_vbar`` expand
# and the flux proof reduces
_ABAR = (rat(-1, 2), (4, 0, -4), 2)
_VBAR = (rat(-3, 2), (2, -6, 6, -2), 3)

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
    all values of its parameter through the order."""
    return 2 * order + 3


def _integer_samples(count: int) -> list:
    """The first count of 0, 1, -1, 2, -2, ..., as rationals: the samples of
    the degree-bound check.  Coefficient n of either side is a polynomial in
    a of degree at most 2n + 2 (``verify_id_war`` says why), so any 2N + 3
    distinct values prove it through z^N."""
    return [rat((k + 1) // 2 if k % 2 else -(k // 2)) for k in range(count)]


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    verified_order: int
    # what a "verified" rests on: "all-parameters", "degree-bound",
    # "sampled", "through-order", "window" or "exact"
    certificate: str
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
            "certificate": self.certificate,
            "samples": [str(s) for s in self.parameter_samples],
            "status": self.status,
        }
        if self.failure_detail is not None:
            out["failure_detail"] = self.failure_detail
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


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


def _failure(name, order, certificate, index, difference, samples=(), **detail) -> IdentityReport:
    """The failed report: the detail entries, then the first failing
    coefficient index and the difference found there."""
    detail.update(coefficient_index=index, difference=str(difference))
    return IdentityReport(name, order, certificate, tuple(samples), "failed", detail)


def _sampled_report(name, samples, order, pair_fn) -> IdentityReport:
    """Run a per-sample LHS/RHS expansion and compare exactly through order;
    samples None means ``_integer_samples(default_sample_count(order))``.
    Ints become exact rationals; an empty list, or a sample that is a bool,
    a float or anything else but an int or a Fraction, is refused before any
    series is built.  The report names the first sample that fails; an
    exception at a sample propagates.  Its certificate is ``degree-bound``
    where the samples hold at least ``default_sample_count(order)`` distinct
    values, else ``sampled``."""
    samples = tuple(_integer_samples(default_sample_count(order)) if samples is None else samples)
    if not samples:
        raise ValueError(f"{name} needs at least one sample")
    for a in samples:
        if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
            raise ValueError(f"{name} samples must be ints or Fractions, not {a!r}")
    samples = tuple(map(rat, samples))
    certificate = "degree-bound" if len(set(samples)) >= default_sample_count(order) else "sampled"
    for sample in samples:
        mismatch = _first_mismatch(*pair_fn(sample), order)
        if mismatch is not None:
            return _failure(name, order, certificate, *mismatch, samples, sample=str(sample))
    return IdentityReport(name, order, certificate, samples)


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
    return _closed_form(*_ABAR, _checked_order(order))


@lru_cache(maxsize=None, typed=True)
def expand_vbar(order: int) -> PowerSeries:
    """Closed-form expansion 2(1-z)^3/(z^2-6z+1)^3 * 2F1(-3/2,-3/2;1;4z/(1-z)^2)."""
    return _closed_form(*_VBAR, _checked_order(order))


def _flux_constant():
    """d_0 = 2 Vbar_1 Abar_0 - 3 Vbar_0 Abar_1, from the closed forms'
    expansions through z^DEFAULT_ORDER, which the golden check and the ODE
    residuals read too: ``verify_all`` builds each once."""
    ab, vb = expand_abar(DEFAULT_ORDER), expand_vbar(DEFAULT_ORDER)
    return 2 * vb[1] * ab[0] - 3 * vb[0] * ab[1]


def _flux_series(order: int) -> PowerSeries:
    """FLUX_OPERATOR's solution from d_0 through z^order, unreduced: over the
    positive denominator the recurrence keeps (``series._recurrence``), a
    divisor of the product of c_0(n) = -3n(n+1)^2 for n = 1..order."""
    return FLUX_OPERATOR.series_solution(_flux_constant(), _checked_order(order))


@lru_cache(maxsize=None, typed=True)
def expand_f(order: int) -> PowerSeries:
    """Coefficients d_n of the flux series F = 2*Vbar'*Abar - 3*Vbar*Abar',
    as FLUX_OPERATOR's solution from d_0, reduced: ``verify_f_positivity``
    proves that the operator annihilates F, and c_0(n) != 0 for n >= 1
    makes the series solution with that d_0 unique."""
    return _flux_series(order).reduced()


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
            return _failure("ode_residuals", order - 2, "through-order", *mismatch, series=name)
    return IdentityReport("ode_residuals", order - 2, "through-order")


def verify_golden_coefficients() -> IdentityReport:
    """Exact regression of the printed leading coefficients of Abar and Vbar,
    the first six of the expansions through z^DEFAULT_ORDER that the ODE
    residuals check."""
    ab = expand_abar(DEFAULT_ORDER)
    vb = expand_vbar(DEFAULT_ORDER)
    for name, series, golden in (("abar", ab, ABAR_LEADING), ("vbar", vb, VBAR_LEADING)):
        mismatch = _first_mismatch(series, PowerSeries(golden), 5)
        if mismatch is not None:
            return _failure("golden_coefficients", 5, "exact", *mismatch, series=name)
    return IdentityReport("golden_coefficients", 5, "exact")


def _derivative(form, dr, e0, e1) -> list:
    """d/dz of the form sum_j form[j] u^(k-j) v^j, k = len(form) - 1, in
    u = G(r) and v = G'(r), by u' = r' v and v' = e0 u + e1 v."""
    k = len(form) - 1
    out = [s.dx() for s in form]
    for j, s in enumerate(form):
        if j < k:
            out[j + 1] = out[j + 1] + s * dr * (k - j)
        if j:
            out[j - 1] = out[j - 1] + s * e0 * j
            out[j] = out[j] + s * e1 * j
    return out


def _form_product(p, q) -> list:
    out = [Rat(0)] * (len(p) + len(q) - 1)
    for i, s in enumerate(p):
        for j, t in enumerate(q):
            out[i + j] = out[i + j] + s * t
    return out


def _flux_operator_failures() -> list:
    """What fails of the proof that FLUX_OPERATOR annihilates the flux: []
    where it holds.  Over G = 2F1(a,a;1;x), a of ``_ABAR``, each closed form
    is prefactor/Q^q_power times its 2F1 at x = r = 4z/(1-z)^2, which
    ``contiguity`` reduces to r0 G + r1 G' by its checked steps (for Vbar,
    (5x+3)/3 G + 4x(1-x)/3 G'); these are read at x = r, with x then read
    as z.  By the chain rule d/dz G(r) = r' G'(r) and d/dz G'(r) =
    r' G''(r), with G'' reduced by the hypergeometric equation at x = r.  So
    the flux and its derivatives are forms in G(r)^2, G(r) G'(r) and G'(r)^2,
    and the operator applied to the flux must have all three coefficients 0.
    Returns the axioms of the steps that fail their check, and
    ``flux_operator`` where a coefficient is not 0."""
    a = _ABAR[0]
    reduction = Reduction(a, a, 1)
    r = Rat(4 * X, 1 - X, 1 - X)
    dr = r.dx()
    e0, e1 = ((t.at(r) * dr).cancel() for t in reduction.f2)
    q = contiguity.in_x(_Q)
    abar, vbar = ([t.at(r) * Rat(contiguity.in_x(prefactor), *[q] * q_power) for t in reduction.hyp(b, b, 1)]
                  for b, prefactor, q_power in (_ABAR, _VBAR))
    # cancelled once, as its numerators share powers of 1 - x and x with their
    # denominators, which each derivative below would carry
    flux = [(s * 2 + t * -3).cancel() for s, t in zip(_form_product(_derivative(vbar, dr, e0, e1), abar),
                                                      _form_product(vbar, _derivative(abar, dr, e0, e1)))]
    total = [Rat(0)] * 3
    for i, p in enumerate(FLUX_OPERATOR.poly_coeffs):
        if i:
            flux = _derivative(flux, dr, e0, e1)
        total = [s + t * contiguity.in_x(p) for s, t in zip(total, flux)]
    return contiguity.failed_axioms(reduction.used) + ["flux_operator"] * any(t.num for t in total)


def verify_f_positivity(window: int = 200) -> IdentityReport:
    """d_0 = 72, d_1 = 1932 exactly; d_n > 0 on the desk-scale window.

    The d_n are FLUX_OPERATOR's solution from d_0 (``expand_f``), and each
    call proves the operator (``_flux_operator_failures``), a lemma the
    detail names.  The solution is read unreduced, over a positive
    denominator, so each sign is its numerator's.  Also
    compares the computed coefficient of z^3 against the displayed 31248
    and reports (not fails on) any discrepancy, plus the computed d_2,
    which the display elides; d_2 must still be positive.
    """
    _checked_order(window, "window", 3)  # the report reads d_2 and d_3
    failed = _flux_operator_failures()
    if failed:
        return IdentityReport("f_positivity", window, "window", (), "failed",
                              {"lemmas": ["flux_operator"], "failed": failed})
    f = _flux_series(window)
    detail = {
        "d2": str(f[2]),
        "d3": str(f[3]),
        "d3_matches_display": f[3] == F_DISPLAYED_Z3,
        "display_matches_d2": f[2] == F_DISPLAYED_Z3,
        "lemmas": ["flux_operator"],
    }
    mismatch = _first_mismatch(f, PowerSeries(F_LEADING), len(F_LEADING) - 1)
    if mismatch is not None:
        return _failure("f_positivity", window, "window", *mismatch, **detail)
    for n, num in enumerate(f._nums):
        if num <= 0:
            return _failure("f_positivity", window, "window", n, f[n], **detail)
    return IdentityReport("f_positivity", window, "window", (), "verified", detail)


# --------------------------------------------------------------------------
# Identities for every parameter value at every order, by contiguity
# reduction.  The order does no work in these proofs: it is checked and
# only labels the report, so that ``verify_all`` prints one order for all.
# --------------------------------------------------------------------------

_ALL_C = "all a, b; c not in {0, -1, -2, ...}"


def _reduced_report(name, order, reduction, difference, domain, lemmas=()) -> IdentityReport:
    """Reduce difference(reduction), the two sides' difference as a pair
    (r0, r1) over the reduction's base, and check termwise each axiom the
    reduction applied: verified when they hold, both coefficients vanish
    and each lemma, a report of an identity the reduction took as given,
    is verified; else the detail names the failed axioms, coefficients or
    lemmas.  It states the domain, the axioms, the lemmas and each value a
    division excluded, which continuity covers: coefficient n of either
    side is a polynomial in a and b over (c)_n."""
    _checked_order(order)
    rest = difference(reduction)
    failed = contiguity.failed_axioms(reduction.used) or [n for n, r in zip(("F", "F'"), rest) if r.num]
    failed += [lemma.identity_name for lemma in lemmas if not lemma.verified]
    detail = {"domain": domain, "axioms": sorted(reduction.used),
              "excluded": [f"{p} = 0" for p in dict.fromkeys(reduction.excluded)]}
    if lemmas:
        detail["lemmas"] = [lemma.identity_name for lemma in lemmas]
    if failed:
        detail["failed"] = failed
    return IdentityReport(name, order, "all-parameters", (), "failed" if failed else "verified", detail)


def verify_lemma1(order: int = 40) -> IdentityReport:
    """(a+1)(1-x) F(a+1,a+2;2;x) = a(1+x) F(a+1,a+1;2;x) + F(a,a;1;x) for
    every a, reduced over F(a,a;1); the order only labels the report."""
    return _reduced_report("lemma1", order, Reduction(A, A, 1), lambda r: r.reduce([
        ((A + 1) * (1 - X), (A + 1, A + 2, 2)), (-A * (1 + X), (A + 1, A + 1, 2)), (-1, (A, A, 1))]), "all a")


_CONTIGUOUS = {
    "cont1": [(B * X, (A + 1, B + 1, C + 1)), (-C, (A + 1, B, C)), (C, (A, B, C))],
    "cont2": [(A * (1 - X), (A + 1, B, C)), (-A * (1 - X), (A, B, C)), (B - C, (A, B - 1, C)),
              (-(B - C + A * X), (A, B, C))],
}


def verify_contiguous(which: str = "cont1", order: int = 40) -> IdentityReport:
    """Gauss contiguous relations in multiplied-through form, for every a, b
    and c not in {0, -1, -2, ...}, reduced over F(a,b;c); the order only
    labels the report:

    cont1: b*x*F(a+1,b+1;c+1;x) = c*(F(a+1,b;c;x) - F(a,b;c;x))
    cont2: a(1-x)(F(a+1,b;c;x) - F(a,b;c;x))
           = (c-b) F(a,b-1;c;x) + (b-c+a*x) F(a,b;c;x)
    """
    if which not in _CONTIGUOUS:
        raise ValueError(f"unknown contiguous relation {which!r}")
    return _reduced_report(which, order, Reduction(A, B, C), lambda r: r.reduce(_CONTIGUOUS[which]), _ALL_C)


def _euler(al, be, ga):
    """Euler's transform F(α,β;γ;x) = (1-x)^(γ-α-β) F(γ-α,γ-β;γ;x) as
    (γ-α-β, (γ-α, γ-β, γ)): the statement ``verify_euler_transform`` proves
    and ``verify_id_hyp`` applies."""
    return ga - al - be, (ga - al, ga - be, ga)


def verify_euler_transform(order: int = 40) -> IdentityReport:
    """F(a,b;c;x) = (1-x)^(c-a-b) F(c-a,c-b;c;x) for every a, b and c not in
    {0, -1, -2, ...}: the right side, reduced over F(c-a,c-b;c), satisfies
    the equation of F(a,b;c), and is 1 at x = 0.  Coefficient n of that
    equation applied to a series y has y_(n+1) times (n+1)(n+c) and no later
    y_m, so there the analytic solution with y(0) = 1 is unique.  The order
    only labels the report."""
    exponent, params = _euler(A, B, C)
    return _reduced_report("euler_transform", order, Reduction(*params), lambda r: r.apply_equation(
        r.hyp(*params), (A, B, C), (exponent, 0)), _ALL_C)


def _euler_lemma(order: int) -> IdentityReport:
    """``verify_euler_transform(order)``, run once per ``contiguity.run``
    scope: ``verify_all`` reports it and ``verify_id_hyp`` takes it as its
    lemma."""
    return contiguity.once(("euler_transform", order), lambda: verify_euler_transform(order))


# id_hyp's right side a(a-1) (1-x)^(2a) F(a+1,a;2;x), as its coefficient,
# its exponent of 1 - x and the parameters of its 2F1
_ID_HYP_RIGHT = (A * (A - 1), 2 * A, (A + 1, A, 2))


def _one_minus_x_to(exponent) -> Rat:
    """(1-x)^exponent, for an exponent that is an integer constant; else a
    ValueError, as no rational factor then joins the two gauges."""
    k = exponent.get(0, 0)
    if set(exponent) - {0} or type(k) is not int:
        raise ValueError(f"(1-x)^({exponent}) is not rational in x")
    return Rat(math.prod([1 - X] * k), *[1 - X] * -k)


def verify_id_hyp(order: int = 40) -> IdentityReport:
    """w_a'(x) (1+x)^(a+1) = a(a-1) (1-x)^(2a) F(a+1,a;2;x) for every a,
    w_a = (1+x)^(-a) F(-a,-a;1;x), reduced over F(-a,-a;1): w_a' in the
    gauge (1+x)^(-a), times 1 + x.  Euler's transform at (a+1, a, 2) gives
    F(a+1,a;2;x) = (1-x)^(1-2a) F(1-a,2-a;2;x), so the right side is
    a(a-1) (1-x) F(1-a,2-a;2;x), which reduces.  ``verify_euler_transform``
    runs in this call, or once per ``contiguity.run`` scope, and the report
    names it as a lemma and fails where it fails.  The order only labels the
    report."""
    lemma = _euler_lemma(_checked_order(order))
    coefficient, exponent, params = _ID_HYP_RIGHT
    euler_exponent, transformed = _euler(*params)
    right = _one_minus_x_to(exponent + euler_exponent) * -coefficient

    def difference(r):
        w_prime = r.d((Rat(1), Rat(0)), (0, -A))
        return combine((1 + X, w_prime), (right, r.hyp(*transformed)))

    return _reduced_report("id_hyp", order, Reduction(-A, -A, 1), difference, "all a", (lemma,))


def verify_remark1_derivative(order: int = 30) -> IdentityReport:
    """d/dx [F(a+1,a;2;x)(1-x)^(2a)] = -(a(3-a)/2 F(a,a+1;3;x) + a(a+1)x/6
    F(a+1,a+2;4;x)) (1-x)^(2a-1) for every a, reduced over F(a-1,a;2), both
    sides in the gauge (1-x)^(2a); the order only labels the report."""
    rhs = [(Rat(A * (3 - A), 2, 1 - X), (A, A + 1, 3)), (Rat(A * (A + 1) * X, 6, 1 - X), (A + 1, A + 2, 4))]
    return _reduced_report("remark1_derivative", order, Reduction(A - 1, A, 2), lambda r: combine(
        (1, r.d(r.hyp(A + 1, A, 2), (2 * A, 0))), (1, r.reduce(rhs))), "all a")


def verify_adjoint_form(order: int = 30) -> IdentityReport:
    """Self-adjoint (Sturm-Liouville) form of the ODE satisfied by
    w_a = (1+x)^(-a) F(-a,-a;1;x):

    d/dx [ x ((1+x)/(1-x))^(2a) w_a'(x) ] =
        a(a-1) (1+x)^(-2) ((1+x)/(1-x))^(2a) w_a(x)

    for every a, reduced over F(-a,-a;1): w_a' in the gauge (1+x)^(-a), and
    both sides in the gauge (1+x)^(-a) ((1+x)/(1-x))^(2a).  The right side
    equals a(a-1) at x = 0, matching w_a'(0); a variant with an extra factor
    of x (and squared ratio power) would vanish there and cannot hold.  The
    order only labels the report."""

    def difference(r):
        w_prime = r.d((Rat(1), Rat(0)), (0, -A))
        lhs = r.d(combine((X, w_prime)), (-2 * A, A))
        return combine((1, lhs), (Rat(A * (1 - A), 1 + X, 1 + X), (Rat(1), Rat(0))))

    return _reduced_report("adjoint_form", order, Reduction(-A, -A, 1), difference, "all a")


# --------------------------------------------------------------------------
# The warped identity, proved through the order by degree-bound sampling
#
# The degree in a of a coefficient, from which the check's bound follows.
# [x^k] F(alpha, beta; gamma; x), alpha and beta each a or -a plus a
# constant and gamma a constant, is (alpha)_k (beta)_k / ((gamma)_k k!):
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


def verify_id_war(a_samples=None, order: int = 30) -> IdentityReport:
    """Warped derivative identity: with r(z) = 4z/(1-z)^2,

    d/dz w_a(r(z)) = 4a(a-1) F(a+1,a;2;r(z))
                     * (1-6z+z^2)^(2a) / (1-z)^(4a)
                     * (1-z)^(2a-1) / (1+z)^(2a+1),

    the three powers taken as one series (``power_product``).

    Degree in a at z^n: w_a(r(z)) has 2m at z^m, so its derivative has
    2n + 2; F(r(z)) has 2i at z^i and the power product j, so their product
    has 2n, and 4a(a-1) makes 2n + 2."""
    _checked_order(order)

    def pair(a):
        lhs = _compose_with_inner_argument(_w_series(a, order + 1), order + 1).derivative()
        rhs = _compose_with_inner_argument(_hyp(a + 1, a, rat(2), order), order)
        powers = power_product(((_Q, 2 * a), ((1, -1), -4 * a + 2 * a - 1), ((1, 1), -2 * a - 1)), order)
        return lhs, (rhs * powers).scale(4 * a * (a - 1))

    return _sampled_report("id_war", a_samples, order, pair)


# --------------------------------------------------------------------------
# Whole-suite driver
# --------------------------------------------------------------------------

def verify_all(order: int = 40) -> list:
    """Every exact check, run in this process, from one input: the order,
    checked first.  ``id_war`` runs through it at 2*order+3 integer
    samples, and the reduced checks, which hold at every order, are
    labelled with it.  The ODE residuals always run at their default order
    64 and flux positivity at its default window 200, and the golden
    coefficients are fixed.  The checks run in one ``contiguity.run`` scope:
    each axiom is checked once, and the Euler transform's report is
    ``id_hyp``'s lemma."""
    a_samples = _integer_samples(default_sample_count(_checked_order(order)))
    with contiguity.run():
        return [verify_golden_coefficients(), verify_odes(), verify_f_positivity(), verify_lemma1(order),
                verify_contiguous("cont1", order), verify_contiguous("cont2", order), _euler_lemma(order),
                verify_id_hyp(order), verify_id_war(a_samples, order), verify_remark1_derivative(order),
                verify_adjoint_form(order)]
