"""Exact truncated power-series arithmetic over arbitrary-precision rationals.

Everything downstream (identity checks, ODE residuals, golden-coefficient
regression, the exact oracle tier of the certified evaluator) runs on the
types in this module.  All arithmetic is exact: no floats, no rounding.

A series carries an explicit truncation order; every operation propagates
the minimal order that is actually justified by its inputs, so a claim of
the form "this residual is zero" always states through which power it was
verified.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is a soft dependency
    from fractions import Fraction as Rational

__all__ = [
    "Rational",
    "rat",
    "parse_rational",
    "format_rational",
    "SeriesError",
    "DivisionByNonUnit",
    "CompositionRequiresZeroConstant",
    "InvalidLowerParameter",
    "OrderTooLow",
    "PowerSeries",
    "HypergeometricSpec",
    "DifferentialOperator",
    "binomial_series",
    "one_minus_x_power",
    "series_pow",
    "hypergeometric_series",
    "poly_mul",
]

ZERO = Rational(0)
ONE = Rational(1)


def rat(numerator, denominator=1) -> Rational:
    """Exact rational from integers (or anything the backend accepts)."""
    return Rational(numerator) / Rational(denominator)


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or "p" into an exact rational."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return rat(int(num), int(den))
    return Rational(int(text))


def format_rational(q) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(q)


class SeriesError(Exception):
    """Base class for exact-series errors."""


class DivisionByNonUnit(SeriesError):
    """Division by a series whose constant term is zero."""


class CompositionRequiresZeroConstant(SeriesError):
    """Composition inner series must vanish at 0."""


class InvalidLowerParameter(SeriesError):
    """Lower hypergeometric parameter is zero or a negative integer."""


class OrderTooLow(SeriesError):
    """Series is too short for the requested operation."""


def _as_rational_tuple(coeffs: Sequence) -> tuple:
    return tuple(c if isinstance(c, type(ONE)) else Rational(c) for c in coeffs)


# --------------------------------------------------------------------------
# Integer kernel.  A series is handled as integer numerators over one common
# denominator; only .numerator, .denominator and Rational(n, d) touch the
# rational backend, so gmpy2 and fractions give bit-identical results.
# --------------------------------------------------------------------------

def _common_denominator(coeffs: Sequence) -> tuple:
    """(numerators, d) with coeffs[k] == numerators[k] / d, d the lcm of the
    denominators; all plain ints."""
    dens = [int(c.denominator) for c in coeffs]
    d = math.lcm(*dens)
    return [int(c.numerator) * (d // dk) for c, dk in zip(coeffs, dens)], d


def _pack(nums: Sequence, width: int) -> int:
    """Kronecker substitution: sum nums[k] * 2^(8*width*k), each |nums[k]|
    below 2^(8*width)."""
    pos = b"".join((v if v > 0 else 0).to_bytes(width, "little") for v in nums)
    neg = b"".join((-v if v < 0 else 0).to_bytes(width, "little") for v in nums)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _int_mul(a: Sequence, b: Sequence, n: int) -> list:
    """Coefficients 0..n of the product of two integer polynomials, from one
    big-integer product (Kronecker substitution, unpacked as signed digits).

    Each product coefficient is a sum of at most n+1 terms, so it is below
    2^(w-1) in magnitude for the digit width w chosen here, and the low
    (n+1)*w bits of the product determine coefficients 0..n exactly.
    """
    a, b = a[: n + 1], b[: n + 1]
    bits = (max(abs(v) for v in a).bit_length() + max(abs(v) for v in b).bit_length()
            + (n + 1).bit_length() + 1)
    width = (bits + 7) // 8
    full = 1 << (8 * width)
    half = full >> 1
    low = (_pack(a, width) * _pack(b, width)) & ((1 << (8 * width * (n + 1))) - 1)
    raw = low.to_bytes(width * (n + 1), "little")
    out = []
    carry = 0
    for m in range(0, width * (n + 1), width):
        v = int.from_bytes(raw[m : m + width], "little") + carry
        carry = v >= half
        out.append(v - full if carry else v)
    return out


@dataclass(frozen=True)
class PowerSeries:
    """Truncated formal power series: coefficients[n] is the coefficient of z^n.

    The truncation order is len(coefficients) - 1; coefficients beyond it are
    unknown, not zero.  Instances are immutable.
    """

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise SeriesError("a series needs at least its constant term")
        object.__setattr__(self, "coefficients", _as_rational_tuple(self.coefficients))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_polynomial(coeffs: Sequence, order: int) -> "PowerSeries":
        """Exact polynomial viewed as a series of the given truncation order."""
        c = list(_as_rational_tuple(coeffs))
        if len(c) < order + 1:
            c.extend([ZERO] * (order + 1 - len(c)))
        return PowerSeries(tuple(c[: order + 1]))

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries((ZERO,) * (order + 1))

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries.from_polynomial((ONE,), order)

    @staticmethod
    def identity(order: int) -> "PowerSeries":
        """The series z."""
        return PowerSeries.from_polynomial((ZERO, ONE), order)

    # -- basic views --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int):
        return self.coefficients[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise OrderTooLow(f"cannot extend order {self.order} to {order}")
        return PowerSeries(self.coefficients[: order + 1])

    def to_strings(self) -> list:
        return [format_rational(c) for c in self.coefficients]

    @cached_property
    def _integer_form(self) -> tuple:
        """(numerators, d): the coefficients over their common denominator,
        computed once per series."""
        return _common_denominator(self.coefficients)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(tuple(self.coefficients[k] + other.coefficients[k] for k in range(n + 1)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(tuple(self.coefficients[k] - other.coefficients[k] for k in range(n + 1)))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coefficients))

    def scale(self, factor) -> "PowerSeries":
        f = Rational(factor) if not isinstance(factor, type(ONE)) else factor
        return PowerSeries(tuple(f * c for c in self.coefficients))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        a, da = self._integer_form
        b, db = other._integer_form
        d = da * db
        return PowerSeries(tuple(Rational(c, d) for c in _int_mul(a, b, n)))

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        if other.coefficients[0] == 0:
            raise DivisionByNonUnit("divisor has zero constant term")
        n = min(self.order, other.order)
        a, b = self.coefficients, other.coefficients
        q = []
        for m in range(n + 1):
            acc = a[m]
            for k in range(1, m + 1):
                if b[k] and q[m - k]:
                    acc -= b[k] * q[m - k]
            q.append(acc / b[0])
        return PowerSeries(tuple(q))

    # -- calculus and composition -------------------------------------------

    def derivative(self) -> "PowerSeries":
        if self.order < 1:
            raise OrderTooLow("need order >= 1 to differentiate")
        return PowerSeries(tuple(Rational(n) * self.coefficients[n] for n in range(1, self.order + 1)))

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(z)), requiring inner(0) = 0.  Horner in the inner series."""
        if inner.coefficients[0] != 0:
            raise CompositionRequiresZeroConstant("inner series has nonzero constant term")
        n = min(self.order, inner.order)
        inner_t = inner.truncate(n)
        result = PowerSeries.from_polynomial((self.coefficients[n],), n)
        for k in range(n - 1, -1, -1):
            result = result * inner_t
            result = result + PowerSeries.from_polynomial((self.coefficients[k],), n)
        return result

    def evaluate(self, point) -> "Rational":
        """Exact value of the truncated polynomial at a rational point.

        Homogeneous Horner on integers: with point = u/v and coefficients
        c_k / d, the value is sum c_k u^k v^(N-k) / (d v^N).
        """
        p = Rational(point) if not isinstance(point, type(ONE)) else point
        u, v = int(p.numerator), int(p.denominator)
        nums, d = self._integer_form
        acc = nums[-1]
        v_pow = 1
        for c in reversed(nums[:-1]):
            v_pow *= v
            acc = acc * u + c * v_pow
        return Rational(acc, d * v_pow)


def poly_mul(a: Sequence, b: Sequence) -> tuple:
    """Exact full-degree product of two polynomial coefficient lists."""
    a = _as_rational_tuple(a)
    b = _as_rational_tuple(b)
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def binomial_series(alpha, order: int) -> PowerSeries:
    """(1+x)^alpha with coefficients C(alpha, n), exact for rational alpha."""
    a = Rational(alpha) if not isinstance(alpha, type(ONE)) else alpha
    coeffs = [ONE]
    c = ONE
    for n in range(1, order + 1):
        c = c * (a - (n - 1)) / n
        coeffs.append(c)
    return PowerSeries(tuple(coeffs))


def one_minus_x_power(alpha, order: int) -> PowerSeries:
    """(1-x)^alpha, i.e. the binomial series with alternating signs."""
    base = binomial_series(alpha, order)
    return PowerSeries(tuple(c if n % 2 == 0 else -c for n, c in enumerate(base.coefficients)))


def series_pow(s: PowerSeries, alpha) -> PowerSeries:
    """s(x)^alpha for rational alpha, requiring s(0) = 1.

    Uses the first-order recurrence from s * p' = alpha * s' * p, which costs
    O(order * sparsity(s)) instead of a full composition.
    """
    if s.coefficients[0] != 1:
        raise DivisionByNonUnit("series_pow needs a series with constant term 1")
    a = Rational(alpha) if not isinstance(alpha, type(ONE)) else alpha
    n_max = s.order
    sc = s.coefficients
    support = [k for k in range(1, n_max + 1) if sc[k] != 0]
    p = [ONE]
    for n in range(1, n_max + 1):
        acc = ZERO
        for k in support:
            if k > n:
                break
            acc += ((a + 1) * k - n) * sc[k] * p[n - k]
        p.append(acc / n)
    return PowerSeries(tuple(p))


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameter triple (a, b; c) of a Gauss hypergeometric series."""

    a: "Rational"
    b: "Rational"
    c: "Rational"

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, type(ONE)):
                object.__setattr__(self, name, Rational(v))
        c = self.c
        if c <= 0 and c == int(c):
            raise InvalidLowerParameter(f"lower parameter c={c} is zero or a negative integer")

    def term_ratio(self, n: int) -> "Rational":
        """Exact ratio t_{n+1}/t_n of consecutive series coefficients."""
        return (self.a + n) * (self.b + n) / ((self.c + n) * (n + 1))

    @cached_property
    def tail_majorant(self) -> tuple | None:
        """(a, c, s, m0), a and c and s = c - 2a as floats, when every
        coefficient is nonnegative and t_{k+1}/t_k <= (k+a)/(k+a+s+1) for all
        k >= m0; else None.  m0 is the least k >= 1 with k + a > 0.

        That is exactly the class a = b, c > 0, s > 0, (a-1)(c-a) <= 0.  The
        coefficients (a)_k^2/((c)_k k!) are nonnegative since c > 0.  For
        k + a > 0 the ratio bound (k+a)^2/((k+c)(k+1)) <= (k+a)/(k+a+s+1)
        multiplies out to (k+a)(k+c-a+1) <= (k+c)(k+1); the k^2 and k terms
        cancel, leaving a(c-a+1) <= c, which is (a-1)(c-a) <= 0, for every k.
        Computed once per spec, in exact arithmetic.
        """
        a, c = self.a, self.c
        s = c - 2 * a
        if self.b != a or c <= 0 or s <= 0 or (a - 1) * (c - a) > 0:
            return None
        return float(a), float(c), float(s), max(1, math.floor(-a) + 1)

    def coefficient(self, n: int) -> "Rational":
        """Direct rising-factorial evaluation (a)_n (b)_n / ((c)_n n!)."""
        num = ONE
        den = ONE
        for k in range(n):
            num *= (self.a + k) * (self.b + k)
            den *= (self.c + k) * (k + 1)
        return num / den

    def series(self, order: int) -> PowerSeries:
        coeffs = [ONE]
        t = ONE
        for n in range(order):
            t = t * self.term_ratio(n)
            coeffs.append(t)
        return PowerSeries(tuple(coeffs))


def hypergeometric_series(spec: HypergeometricSpec, order: int) -> PowerSeries:
    """Series of 2F1(a,b;c;x) through the requested order, exact coefficients."""
    return spec.series(order)


@dataclass(frozen=True)
class DifferentialOperator:
    """Linear differential operator sum_i p_i(z) d^i/dz^i.

    poly_coeffs[i] is the coefficient list (ascending powers of z) of the
    polynomial multiplying the i-th derivative.
    """

    poly_coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "poly_coeffs", tuple(_as_rational_tuple(p) for p in self.poly_coeffs)
        )
        if not self.poly_coeffs or all(c == 0 for c in self.poly_coeffs[-1]):
            raise SeriesError("leading polynomial of a differential operator must be nonzero")

    @property
    def operator_order(self) -> int:
        return len(self.poly_coeffs) - 1

    def apply(self, s: PowerSeries) -> PowerSeries:
        """Exact residual series; result order = order(s) - operator order."""
        r = self.operator_order
        if s.order < r:
            raise OrderTooLow(f"series order {s.order} below operator order {r}")
        out_order = s.order - r
        acc = PowerSeries.zero(out_order)
        deriv = s
        for i, poly in enumerate(self.poly_coeffs):
            if i > 0:
                deriv = deriv.derivative()
            if all(c == 0 for c in poly):
                continue
            term = PowerSeries.from_polynomial(poly, out_order) * deriv.truncate(out_order)
            acc = acc + term
        return acc


def perturbed(s: PowerSeries, index: int, delta) -> PowerSeries:
    """Copy of s with coefficients[index] shifted by delta (fault injection)."""
    d = Rational(delta) if not isinstance(delta, type(ONE)) else delta
    coeffs = list(s.coefficients)
    coeffs[index] = coeffs[index] + d
    return PowerSeries(tuple(coeffs))


# Deterministic supply of distinct small rationals, ordered by |p| + q over
# reduced fractions p/q.  Used by the degree-bound sampling certificates.
def sample_parameters(count: int, exclude=()) -> list:
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    excluded = {Rational(e) for e in exclude}
    out = []
    for height in itertools.count(2):
        for q in range(1, height):
            p = height - q
            if math.gcd(p, q) != 1:
                continue
            for sign in (1, -1):
                cand = rat(sign * p, q)
                if cand in excluded:
                    continue
                out.append(cand)
                if len(out) == count:
                    return out
    raise RuntimeError("unreachable")
