"""Certified floating-point evaluation of the torus ratio and its ingredients.

Every evaluation returns a value together with a rigorous absolute error
bound covering series truncation, argument rounding, and accumulated
floating-point rounding.  The exact-series layer serves as the oracle tier;
nothing here is trusted without a bound.

Supported hypergeometric family for evaluation up to and including x = 1:
a = b = -a0 with a0 in {1/2, 3/2} and c in {1, 2, 3, 4}.  For these, all
series terms are nonnegative (squared Pochhammer symbols) and the term ratio
satisfies t_{n+1}/t_n <= x * n/(n + sigma) with sigma = c + 2*a0, which gives
the finite tail majorant t_m * (m + sigma - 1)/(sigma - 1) even at x = 1.
Other parameter triples are summed with a plain geometric tail bound and
refuse arguments too close to 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .identities import expand_abar, expand_vbar
from .series import HypergeometricSpec, Rational, rat

__all__ = [
    "CertifiedValue",
    "NumericsError",
    "Divergent",
    "BoundNotAchieved",
    "DomainError",
    "Z_MAX",
    "T_MAX",
    "ISO_AT_ZERO",
    "eval_2f1",
    "eval_w",
    "eval_h",
    "iso",
    "iso_squared",
    "iso_direct",
    "iso_derivative",
    "scan_monotonicity",
    "scan_convexity",
    "ScanReport",
    "SPEC_AREA",
    "SPEC_VOLUME",
]

EPS = sys.float_info.epsilon
SQRT2 = math.sqrt(2.0)
Z_MAX = SQRT2 - 1.0                 # right end of the torus-parameter domain
T_MAX = 3.0 - 2.0 * SQRT2           # = Z_MAX**2, domain of the sqrt-substituted maps
ISO_AT_ZERO = 1.5 * (2.0 * math.pi ** 2) ** -0.25
_K_RATIO = 9.0 * SQRT2 / (8.0 * math.pi)   # constant in the closed form of iso**2
_C_DIRECT = 6.0 / (math.sqrt(math.pi) * 2.0 ** 0.25)

SPEC_AREA = HypergeometricSpec(rat(-1, 2), rat(-1, 2), rat(1))
SPEC_VOLUME = HypergeometricSpec(rat(-3, 2), rat(-3, 2), rat(1))

_FAMILY_A0 = (rat(1, 2), rat(3, 2))
_FAMILY_C = (rat(1), rat(2), rat(3), rat(4))


class NumericsError(Exception):
    """Base class for certified-evaluation errors."""


class Divergent(NumericsError):
    """Series does not converge at the requested argument."""


class BoundNotAchieved(NumericsError):
    """A certified bound cannot be produced under the configured limits."""


class DomainError(NumericsError):
    """Argument outside the function's certified domain."""


@dataclass(frozen=True)
class CertifiedValue:
    """A float paired with a rigorous absolute error bound.

    The true mathematical value lies in [value - abs_error_bound,
    value + abs_error_bound].  ``flag`` marks degraded results ("bound_not_
    achieved") whose bound is still honest but larger than requested.
    """

    value: float
    abs_error_bound: float
    flag: str | None = None

    @property
    def lo(self) -> float:
        return self.value - self.abs_error_bound

    @property
    def hi(self) -> float:
        return self.value + self.abs_error_bound

    def disjoint_from(self, other: "CertifiedValue") -> bool:
        return self.hi < other.lo or other.hi < self.lo


# --------------------------------------------------------------------------
# Conservative interval helpers on CertifiedValue
# --------------------------------------------------------------------------

def _pad(v: float) -> float:
    return 2.0 * EPS * abs(v)


def _merge_flags(*cvs):
    for c in cvs:
        if c.flag:
            return c.flag
    return None


def cv_exact(v: float) -> CertifiedValue:
    return CertifiedValue(v, 0.0)


def cv_const(v: float) -> CertifiedValue:
    """A constant computed in floats (e.g. with pi, sqrt): a few ulps of slop."""
    return CertifiedValue(v, 4.0 * EPS * abs(v))


def cv_add(u: CertifiedValue, v: CertifiedValue) -> CertifiedValue:
    w = u.value + v.value
    return CertifiedValue(w, u.abs_error_bound + v.abs_error_bound + _pad(w), _merge_flags(u, v))


def cv_sub(u: CertifiedValue, v: CertifiedValue) -> CertifiedValue:
    w = u.value - v.value
    return CertifiedValue(w, u.abs_error_bound + v.abs_error_bound + _pad(w), _merge_flags(u, v))


def cv_scale(u: CertifiedValue, k: float) -> CertifiedValue:
    w = u.value * k
    return CertifiedValue(w, abs(k) * u.abs_error_bound + _pad(w), u.flag)


def cv_mul(u: CertifiedValue, v: CertifiedValue) -> CertifiedValue:
    w = u.value * v.value
    b = (
        abs(u.value) * v.abs_error_bound
        + abs(v.value) * u.abs_error_bound
        + u.abs_error_bound * v.abs_error_bound
        + _pad(w)
    )
    return CertifiedValue(w, b, _merge_flags(u, v))


def cv_div(u: CertifiedValue, v: CertifiedValue) -> CertifiedValue:
    denom_lo = abs(v.value) - v.abs_error_bound
    if denom_lo <= 0.0:
        raise BoundNotAchieved("division by an interval containing zero")
    w = u.value / v.value
    b = (u.abs_error_bound + abs(w) * v.abs_error_bound) / denom_lo + _pad(w)
    return CertifiedValue(w, b, _merge_flags(u, v))


def cv_pow(u: CertifiedValue, p: float) -> CertifiedValue:
    """u**p for an interval with positive lower end; monotone in the base."""
    lo = u.lo
    if lo <= 0.0:
        raise BoundNotAchieved("power base interval not strictly positive")
    w = u.value ** p
    ends = (lo ** p, u.hi ** p)
    b = max(abs(ends[0] - w), abs(ends[1] - w)) + 4.0 * EPS * abs(w)
    return CertifiedValue(w, b, u.flag)


def cv_sqrt(u: CertifiedValue) -> CertifiedValue:
    return cv_pow(u, 0.5)


# --------------------------------------------------------------------------
# Certified 2F1 evaluation
# --------------------------------------------------------------------------

def _check_target(target: float):
    if not 0.0 < target < math.inf:
        raise DomainError(f"target {target} is not a positive finite bound")


def _in_family(spec: HypergeometricSpec) -> bool:
    return spec.a == spec.b and -spec.a in _FAMILY_A0 and spec.c in _FAMILY_C


@lru_cache(maxsize=None)
def _family_derivative_cap(a0: float, c: float) -> float:
    # F'(x) = (a0^2/c) * 2F1(1-a0, 1-a0; c+1; x), increasing on [0,1]; cap at
    # its Gauss value times a 1% cushion.
    g = math.gamma(c + 1.0) * math.gamma(c - 1.0 + 2.0 * a0) / math.gamma(c + a0) ** 2
    return (a0 * a0 / c) * g * 1.01


def eval_2f1(
    spec: HypergeometricSpec,
    x: float,
    max_terms: int = 10 ** 6,
    target: float = 1e-10,
    x_abs_err: float = 0.0,
) -> CertifiedValue:
    """Certified partial sum of the Gauss series at x in [0, 1].

    ``x_abs_err`` is an a-priori bound on the rounding error of the argument
    itself; its effect is folded into the returned bound through a bound on
    the derivative of the series.
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"argument {x} outside [0, 1]")
    _check_target(target)
    af, bf, cf = float(spec.a), float(spec.b), float(spec.c)
    sigma = cf - af - bf
    if x == 1.0 and sigma <= 0.0:
        raise Divergent(f"series diverges at x = 1 for c - a - b = {sigma}")
    if _in_family(spec):
        return _eval_family(spec, x, max_terms, target, x_abs_err)
    return _eval_generic(spec, x, max_terms, target, x_abs_err)


def _eval_family(spec, x, max_terms, target, x_abs_err):
    af = float(spec.a)
    cf = float(spec.c)
    sigma = cf - 2.0 * af  # c + 2*a0 >= 2
    deriv_cap = _family_derivative_cap(-af, cf) if x_abs_err > 0.0 else 0.0
    s = 1.0
    s_max = 1.0
    t = 1.0
    n = 0
    flag = None
    while True:
        m = n + 1
        t_next = t * ((af + n) * (af + n)) / ((cf + n) * m) * x
        # t_next is the first unsummed term, so the geometric branch sums
        # t_next * (1 + x + x^2 + ...) = t_next / (1 - x)
        tail = t_next * (m + sigma - 1.0) / (sigma - 1.0)
        if x < 1.0:
            tail = min(tail, t_next / (1.0 - x))
        rounding = 3.0 * EPS * m * s_max
        if tail + rounding <= target or t_next == 0.0 or m >= max_terms:
            if tail + rounding > target:
                flag = "bound_not_achieved"
            bound = tail + rounding + deriv_cap * x_abs_err + _pad(s)
            return CertifiedValue(s, bound, flag)
        s += t_next
        s_max = max(s_max, s)
        t = t_next
        n = m


def _eval_generic(spec, x, max_terms, target, x_abs_err):
    if x >= 1.0 - 1e-3:
        raise BoundNotAchieved(
            "generic parameter triples are only certified for x < 0.999"
        )
    af, bf, cf = float(spec.a), float(spec.b), float(spec.c)
    alpha = abs(af + bf - cf - 1.0)
    beta = abs(af * bf - cf)
    n_star = int(max(abs(af), abs(bf), abs(cf))) + 1
    s = 1.0
    s_max = 1.0
    abs_t = 1.0
    dsum = 0.0  # running bound on |d/dx| of the partial sum
    t = 1.0
    n = 0
    flag = None
    while True:
        m = n + 1
        ratio = (af + n) * (bf + n) / ((cf + n) * m)
        t_next = t * ratio * x
        abs_t_next = abs(t_next)
        tail = math.inf
        dtail = math.inf
        if m >= n_star:
            f_bar = 1.0 + (alpha + beta / m) / (m + cf)
            q_bar = x * f_bar
            if q_bar < 1.0:
                tail = abs_t_next / (1.0 - q_bar)
                dtail = (abs_t_next / max(x, EPS)) * (
                    m / (1.0 - q_bar) + q_bar / (1.0 - q_bar) ** 2
                )
        rounding = 3.0 * EPS * m * s_max
        if tail + rounding <= target or t_next == 0.0 or m >= max_terms:
            if not (tail + rounding <= target) and t_next != 0.0:
                flag = "bound_not_achieved"
                if not math.isfinite(tail):
                    raise BoundNotAchieved(
                        "geometric tail bound unavailable within max_terms"
                    )
            deriv_bound = dsum + (dtail if math.isfinite(dtail) else 0.0)
            if x == 0.0:
                deriv_bound = abs(af * bf / cf) * 2.0
            bound = tail + rounding + deriv_bound * x_abs_err + _pad(s)
            if not math.isfinite(bound):
                bound = rounding + deriv_bound * x_abs_err + _pad(s)
                flag = "bound_not_achieved"
            return CertifiedValue(s, bound, flag)
        s += t_next
        s_max = max(s_max, abs(s))
        if x > 0.0:
            dsum += m * abs_t_next / x
        abs_t = abs_t_next
        t = t_next
        n = m


def eval_w(a, x: float, target: float = 1e-10, x_abs_err: float = 0.0) -> CertifiedValue:
    """w_a(x) = 2F1(-a,-a;1;x) / (1+x)^a with a certified bound."""
    a = Rational(a) if not hasattr(a, "denominator") else a
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"argument {x} outside [0, 1]")
    if a == 0 or a == 1:
        return CertifiedValue(1.0, 0.0)
    f = eval_2f1(HypergeometricSpec(-a, -a, rat(1)), x, target=target, x_abs_err=x_abs_err)
    af = float(a)
    denom = (1.0 + x) ** af
    # pow() plus the float(a) conversion: a few ulps of relative slop, plus
    # sensitivity to the argument rounding through d/dx (1+x)^-a.
    pow_rel = 8.0 * EPS + abs(math.log1p(x)) * EPS * abs(af)
    d = CertifiedValue(denom, abs(denom) * pow_rel + abs(af) * denom / (1.0 + x) * x_abs_err)
    return cv_div(f, d)


def eval_h(x: float, target: float = 1e-10) -> CertifiedValue:
    """h(x) = 2F1(-3/2,-3/2;1;x)^2 / 2F1(-1/2,-1/2;1;x)^3 * (1+x)^(-3/2)."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"argument {x} outside [0, 1]")
    f1 = eval_2f1(SPEC_AREA, x, target=target / 4.0)
    f2 = eval_2f1(SPEC_VOLUME, x, target=target / 4.0)
    base = CertifiedValue(1.0 + x, _pad(1.0 + x))
    num = cv_mul(f2, f2)
    den = cv_mul(cv_mul(f1, f1), f1)
    return cv_div(cv_div(num, den), cv_pow(base, 1.5))


# --------------------------------------------------------------------------
# The ratio function: closed-form path, direct-definition path, derivative
# --------------------------------------------------------------------------

def _check_domain(z: float):
    if not (0.0 <= z < Z_MAX):
        raise DomainError(f"z = {z} outside [0, {Z_MAX})")


def _iso_squared_from_t(t: float, t_abs_err: float, target: float) -> CertifiedValue:
    """Closed form of iso^2 as a function of t = z^2, certified."""
    one_minus = 1.0 - t
    x = 4.0 * t / (one_minus * one_minus)
    # x rounds in <= ~5 operations with no cancellation (t <= 0.18), plus the
    # sensitivity to t_abs_err through dx/dt = 4(1+t)/(1-t)^3.
    dx_dt = 4.0 * (1.0 + t) / one_minus ** 3
    x_err = 8.0 * EPS * x + dx_dt * t_abs_err
    if x > 1.0:
        x = 1.0
    f1 = eval_2f1(SPEC_AREA, x, target=target / 4.0, x_abs_err=x_err)
    f2 = eval_2f1(SPEC_VOLUME, x, target=target / 4.0, x_abs_err=x_err)
    w = CertifiedValue(
        one_minus / (1.0 + t),
        4.0 * EPS * abs(one_minus / (1.0 + t)) + 2.0 / (1.0 + t) ** 2 * t_abs_err,
    )
    out = cv_mul(cv_div(cv_mul(f2, f2), cv_mul(cv_mul(f1, f1), f1)), cv_pow(w, 3.0))
    return cv_mul(out, cv_const(_K_RATIO))


def iso_squared(z: float, target: float = 1e-10) -> CertifiedValue:
    """iso(z)^2 via the hypergeometric closed form."""
    _check_domain(z)
    _check_target(target)
    t = z * z
    return _iso_squared_from_t(t, EPS * t, target)


def iso(z: float, target: float = 1e-10) -> CertifiedValue:
    """The isoperimetric ratio of the torus with parameter z, certified."""
    return cv_sqrt(iso_squared(z, target))


def _iso_from_t(t: float, target: float = 1e-10) -> CertifiedValue:
    """iso evaluated as a function of t = z^2 (for the sqrt-substituted scans)."""
    if not (0.0 <= t < T_MAX):
        raise DomainError(f"t = {t} outside [0, {T_MAX})")
    return cv_sqrt(_iso_squared_from_t(t, EPS * t, target))


@lru_cache(maxsize=None)
def _direct_series(order: int):
    """Exact expansions plus a geometric tail majorant for the direct path.

    Returns (abar, vbar, ratio_cap), each expansion as a pair: its partial-sum
    polynomial through ``order`` and its next coefficient.  The polynomial is
    kept, not truncated per call, so its integer form for
    ``PowerSeries.evaluate`` is computed once.  Coefficient
    ratios over the last window are checked positive and decreasing, then
    capped with a 5% cushion; the cap majorizes all later ratios for a tail
    bound.
    """
    extra = 10
    parts = []
    caps = []
    for series in (expand_abar(order + extra), expand_vbar(order + extra)):
        ratios = [
            series.coefficients[n + 1] / series.coefficients[n]
            for n in range(order - 1, order + extra - 1)
        ]
        if any(r <= 0 for r in ratios) or any(
            ratios[i + 1] > ratios[i] for i in range(len(ratios) - 1)
        ):
            raise BoundNotAchieved("coefficient ratios not positive-decreasing")
        caps.append(float(ratios[0]) * 1.05)
        parts.append((series.truncate(order), series.coefficients[order + 1]))
    return parts[0], parts[1], max(caps)


def iso_direct(z: float, order: int = 240) -> CertifiedValue:
    """Direct-definition evaluation via exact partial sums of the area and
    volume expansions; cross-validation path for the closed form."""
    _check_domain(z)
    t_exact = Fraction(z) ** 2
    t_rat = Rational(t_exact.numerator, t_exact.denominator)
    ab, vb, ratio_cap = _direct_series(order)
    q = float(t_exact) * ratio_cap
    if q >= 1.0:
        raise BoundNotAchieved(f"tail ratio {q:.3f} >= 1 at z = {z}; raise the order")

    def enclose(part):
        partial_sum, next_coefficient = part
        # multiply in exact arithmetic first: the coefficient alone can
        # overflow float while the product is tiny
        head = float(next_coefficient * t_rat ** (order + 1))
        tail = head / (1.0 - q)
        v = float(partial_sum.evaluate(t_rat))
        return CertifiedValue(v + tail / 2.0, tail / 2.0 + _pad(v) + _pad(tail))

    a_val = enclose(ab)
    v_val = enclose(vb)
    out = cv_div(v_val, cv_pow(a_val, 1.5))
    return cv_mul(out, cv_const(_C_DIRECT))


def iso_derivative(z: float, target: float = 1e-10) -> CertifiedValue:
    """d(iso)/dz, certified; assembled from the warped derivative identity."""
    _check_domain(z)
    _check_target(target)
    if z == 0.0:
        # even function of z: the derivative vanishes identically at 0
        return CertifiedValue(0.0, 0.0)
    t = z * z
    one_minus = 1.0 - t
    x = 4.0 * t / (one_minus * one_minus)
    if x >= 1.0 - 1e-3:
        raise BoundNotAchieved("derivative path needs x < 0.999; z too close to the endpoint")
    dx_dt = 4.0 * (1.0 + t) / one_minus ** 3
    x_err = 8.0 * EPS * x + dx_dt * (EPS * t)
    w1 = eval_w(rat(1, 2), x, target=target / 8.0, x_abs_err=x_err)
    w2 = eval_w(rat(3, 2), x, target=target / 8.0, x_abs_err=x_err)
    g1 = eval_2f1(HypergeometricSpec(rat(3, 2), rat(1, 2), rat(2)), x,
                  target=target / 8.0, x_abs_err=x_err)
    g2 = eval_2f1(HypergeometricSpec(rat(5, 2), rat(3, 2), rat(2)), x,
                  target=target / 8.0, x_abs_err=x_err)

    def prefactor(a: float) -> CertifiedValue:
        q_poly = 1.0 - 6.0 * t + t * t
        v = (
            q_poly ** (2.0 * a)
            * one_minus ** (2.0 * a - 1.0 - 4.0 * a)
            * (1.0 + t) ** (-2.0 * a - 1.0)
        )
        # crude but generous slop: a handful of pow/mul roundings plus the
        # sensitivity of the (bounded-exponent) powers to the rounding of t
        rel = 64.0 * EPS + 50.0 * (EPS * t)
        return CertifiedValue(v, abs(v) * rel)

    dw1 = cv_scale(cv_mul(g1, prefactor(0.5)), 4.0 * 0.5 * (0.5 - 1.0))
    dw2 = cv_scale(cv_mul(g2, prefactor(1.5)), 4.0 * 1.5 * (1.5 - 1.0))
    # iso^2 = K * w2^2 / w1^3; differentiate in t, then chain through t = z^2
    inner = cv_sub(cv_scale(cv_mul(dw2, w1), 2.0), cv_scale(cv_mul(w2, dw1), 3.0))
    d_iso2_dt = cv_scale(cv_div(cv_mul(w2, inner), cv_pow(w1, 4.0)), _K_RATIO)
    iso_val = iso(z, target=target)
    return cv_div(cv_scale(d_iso2_dt, z), iso_val)


# --------------------------------------------------------------------------
# Certified scans
# --------------------------------------------------------------------------

@dataclass
class ScanReport:
    """Outcome of a certified grid scan.

    rows: (grid point, value, bound, verdict) per point; the verdict at index
    i describes the pair (i-1, i) for monotonicity scans and the centered
    second difference at i for convexity scans.
    """

    name: str
    grid_size: int
    violations: int
    inconclusive: int
    witnesses: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    sign_change_detected: bool | None = None

    @property
    def passed(self) -> bool:
        if self.sign_change_detected is not None:
            return self.violations == 0 and self.sign_change_detected
        return self.violations == 0

    def to_summary(self) -> dict:
        out = {
            "name": self.name,
            "grid_size": self.grid_size,
            "violations": self.violations,
            "inconclusive": self.inconclusive,
        }
        if self.sign_change_detected is not None:
            out["sign_change_detected"] = self.sign_change_detected
            out["witnesses"] = self.witnesses
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_summary())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["z", "value", "bound", "verdict"])
        for row in self.rows:
            writer.writerow([repr(row[0]), repr(row[1]), repr(row[2]), row[3]])
        return buf.getvalue()


def _grid(lo: float, hi: float, n: int) -> list:
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def scan_monotonicity(
    target: str,
    grid: int = 1000,
    a=None,
    eval_target: float | None = None,
) -> ScanReport:
    """Certified monotonicity scan of iso, w_a, or h over their domains.

    A consecutive pair counts as conclusive only when the certified intervals
    are disjoint; overlapping intervals are reported as inconclusive, never as
    violations.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    if target == "iso":
        pts = _grid(0.0, Z_MAX - 1e-4, grid)
        tgt = eval_target if eval_target is not None else 1e-10
        values = [iso(z, target=tgt) for z in pts]
        direction = "nondecreasing"
        name = "mono-iso"
    elif target == "w":
        if a is None:
            raise ValueError("w scan needs the parameter a")
        a = Rational(a) if not hasattr(a, "denominator") else a
        # only the family parameters are certified all the way to x = 1
        hi = 1.0 if a in (rat(1, 2), rat(3, 2), rat(0), rat(1)) else 0.99
        pts = _grid(0.0, hi, grid)
        tgt = eval_target if eval_target is not None else 1e-9
        values = [eval_w(a, x, target=tgt) for x in pts]
        if a == 0 or a == 1:
            direction = "constant"
        elif 0 < a < 1:
            direction = "nonincreasing"
        else:
            direction = "nondecreasing"
        name = f"mono-w[{a}]"
    elif target == "h":
        pts = _grid(0.0, 1.0, grid)
        tgt = eval_target if eval_target is not None else 1e-9
        values = [eval_h(x, target=tgt) for x in pts]
        direction = "nondecreasing"
        name = "mono-h"
    else:
        raise ValueError(f"unknown monotonicity target {target!r}")

    violations = 0
    inconclusive = 0
    witnesses = []
    rows = [(pts[0], values[0].value, values[0].abs_error_bound, "")]
    for i in range(1, grid):
        prev, cur = values[i - 1], values[i]
        if direction == "constant":
            verdict = "violation" if prev.disjoint_from(cur) else "ok"
        elif not prev.disjoint_from(cur):
            verdict = "inconclusive"
        else:
            increased = cur.lo > prev.hi
            if direction == "nondecreasing":
                verdict = "ok" if increased else "violation"
            else:
                verdict = "ok" if not increased else "violation"
        if verdict == "violation":
            violations += 1
            witnesses.append(pts[i])
        elif verdict == "inconclusive":
            inconclusive += 1
        rows.append((pts[i], cur.value, cur.abs_error_bound, verdict))
    return ScanReport(name, grid, violations, inconclusive, witnesses, rows)


def scan_convexity(
    which: str,
    grid: int = 300,
    eval_target: float = 1e-10,
) -> ScanReport:
    """Certified second-difference scan.

    iso_sqrt expects concavity, inv_iso_sqrt convexity (all conclusive second
    differences of the matching sign); iso and inv_iso expect a detected sign
    change, with the witness grid points recorded.
    """
    if grid < 3:
        raise ValueError("grid must have at least 3 points")
    if which in ("iso_sqrt", "inv_iso_sqrt"):
        pts = _grid(0.0, T_MAX - 1e-4, grid)
        base = [_iso_from_t(t, target=eval_target) for t in pts]
        if which == "inv_iso_sqrt":
            values = [cv_div(cv_exact(1.0), v) for v in base]
            expect = "convex"
        else:
            values = base
            expect = "concave"
        want_sign_change = False
    elif which in ("iso", "inv_iso"):
        pts = _grid(0.0, Z_MAX - 1e-4, grid)
        base = [iso(z, target=eval_target) for z in pts]
        values = base if which == "iso" else [cv_div(cv_exact(1.0), v) for v in base]
        expect = None
        want_sign_change = True
    else:
        raise ValueError(f"unknown convexity target {which!r}")

    violations = 0
    inconclusive = 0
    pos_witness = None
    neg_witness = None
    rows = [(pts[0], values[0].value, values[0].abs_error_bound, "")]
    for i in range(1, grid - 1):
        d2 = values[i + 1].value - 2.0 * values[i].value + values[i - 1].value
        b = (
            values[i + 1].abs_error_bound
            + 2.0 * values[i].abs_error_bound
            + values[i - 1].abs_error_bound
            + 8.0 * EPS * (abs(values[i].value) + abs(d2))
        )
        if d2 - b > 0.0:
            sign = "positive"
        elif d2 + b < 0.0:
            sign = "negative"
        else:
            sign = "inconclusive"
        if want_sign_change:
            verdict = sign
            if sign == "positive" and pos_witness is None:
                pos_witness = pts[i]
            if sign == "negative" and neg_witness is None:
                neg_witness = pts[i]
            if sign == "inconclusive":
                inconclusive += 1
        else:
            if sign == "inconclusive":
                verdict = "inconclusive"
                inconclusive += 1
            elif (expect == "concave") == (sign == "negative"):
                verdict = "ok"
            else:
                verdict = "violation"
                violations += 1
        rows.append((pts[i], values[i].value, values[i].abs_error_bound, verdict))
    rows.append((pts[-1], values[-1].value, values[-1].abs_error_bound, ""))

    report = ScanReport(f"convex-{which}", grid, violations, inconclusive, rows=rows)
    if want_sign_change:
        report.sign_change_detected = pos_witness is not None and neg_witness is not None
        report.witnesses = [w for w in (pos_witness, neg_witness) if w is not None]
    return report
