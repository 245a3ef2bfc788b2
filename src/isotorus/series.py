"""Exact truncated power-series arithmetic, stored as integers.

Everything downstream (identity checks, ODE residuals, golden coefficients,
the exact oracle tier of the certified evaluator) runs on these types.  A
series is integer numerators over one positive denominator, ``(nums, den)``
with ``gcd(den, *nums) == 1``: den is the lcm of the reduced coefficient
denominators, so equal series have equal ``(nums, den)``.  Each operation
works on the integers and reduces its result with one gcd; a product is one
big-integer multiplication (Kronecker substitution) with each digit as wide
as the coefficients it keeps need, max_i (bits(a_i) + max_(j <= n-i) bits(b_j))
plus bits(n+1) + 1, and the hypergeometric, binomial and power series come
from integer recurrences.  A known factor needs no product: dividing by 1 - z
is a prefix sum, and dividing by a short polynomial with constant term 1 is a
sparse long division; the closed-form expansions in ``identities`` compose and
apply their prefactors this way.  ``coefficients``, as ``fractions.Fraction``,
is derived on first use, at the API edge.

A series carries an explicit truncation order; every operation propagates
the minimal order its inputs justify, so a claim that a residual is zero
always states through which power it was verified.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction as Rational
from functools import cached_property
from typing import Sequence

__all__ = [
    "Rational", "rat", "parse_rational", "format_rational",
    "SeriesError", "DivisionByNonUnit", "CompositionRequiresZeroConstant",
    "InvalidLowerParameter", "OrderTooLow",
    "PowerSeries", "HypergeometricSpec", "DifferentialOperator",
    "binomial_series", "one_minus_x_power", "series_pow", "poly_mul",
]

ZERO = Rational(0)
ONE = Rational(1)


def rat(numerator, denominator=1) -> Rational:
    """Exact rational from integers (or anything Fraction accepts)."""
    return Rational(numerator) / Rational(denominator)


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or "p", p and q integers and q nonzero, into an exact
    rational; ValueError otherwise."""
    parts = text.strip().split("/")
    try:
        if len(parts) > 2:
            raise ValueError
        ints = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"not a rational of the form p/q or p: {text!r}") from None
    if ints[-1] == 0 and len(ints) == 2:
        raise ValueError(f"zero denominator in {text!r}")
    return rat(*ints)


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


def _pack(nums: Sequence, width: int) -> int:
    """Kronecker substitution: sum nums[k] * 2^(8*width*k), each |nums[k]|
    below 2^(8*width)."""
    pos = b"".join((v if v > 0 else 0).to_bytes(width, "little") for v in nums)
    neg = b"".join((-v if v < 0 else 0).to_bytes(width, "little") for v in nums)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _int_mul(a: Sequence, b: Sequence, n: int) -> list:
    """Coefficients 0..n of the product of two integer polynomials, from one
    big-integer product (Kronecker substitution, unpacked as signed digits).

    Coefficient m <= n sums at most n+1 products a_i b_j, i + j = m, each
    below 2^(bits(a_i) + max_(j <= n-i) bits(b_j)); with w the largest such
    exponent plus bits(n+1) + 1 it is below 2^(w-1) in magnitude.  Digits
    above n add only multiples of 2^((n+1)w), so the low (n+1)*w bits of the
    product determine coefficients 0..n exactly.
    """
    a, b = a[: n + 1], b[: n + 1]
    # reach[k] = max_(j <= k) bits(b_j), paired with a_i at k = n - i (bit_length ignores sign)
    reach = list(itertools.accumulate([*map(int.bit_length, b), *[0] * (n + 1 - len(b))], max))
    bits = max(map(operator.add, map(int.bit_length, a), reversed(reach))) + (n + 1).bit_length() + 1
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


@dataclass(frozen=True, init=False)
class PowerSeries:
    """Truncated formal power series: coefficient k is nums[k] / den, in the
    canonical form of the module docstring; ``PowerSeries(coefficients)``
    takes the coefficients as rationals.

    The truncation order is len(nums) - 1; coefficients beyond it are
    unknown, not zero.  Instances are immutable.
    """

    nums: tuple
    den: int

    def __init__(self, coefficients: Sequence):
        coeffs = tuple(Rational(c) for c in coefficients)
        if not coeffs:
            raise SeriesError("a series needs at least its constant term")
        d = math.lcm(*(c.denominator for c in coeffs))
        self.__dict__.update(nums=tuple(c.numerator * (d // c.denominator) for c in coeffs),
                             den=d, coefficients=coeffs)

    @staticmethod
    def from_integers(nums: Sequence, den: int) -> "PowerSeries":
        """The series with coefficients nums[k] / den, in canonical form: one
        gcd, and the sign moved onto the numerators."""
        if den == 0:
            raise ZeroDivisionError("a series needs a nonzero denominator")
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        s = object.__new__(PowerSeries)
        s.__dict__.update(nums=tuple(nums) if g == 1 else tuple(v // g for v in nums), den=den // g)
        return s

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_polynomial(coeffs: Sequence, order: int) -> "PowerSeries":
        """Exact polynomial viewed as a series of the given truncation order."""
        c = list(coeffs)[: order + 1]
        return PowerSeries(c + [0] * (order + 1 - len(c)))

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries.from_integers((0,) * (order + 1), 1)

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries.from_polynomial((1,), order)

    @staticmethod
    def identity(order: int) -> "PowerSeries":
        """The series z."""
        return PowerSeries.from_polynomial((0, 1), order)

    # -- basic views --------------------------------------------------------

    @cached_property
    def coefficients(self) -> tuple:
        """coefficients[n] is the coefficient of z^n, as a Fraction."""
        return tuple(Rational(v, self.den) for v in self.nums)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def __getitem__(self, n: int):
        return Rational(self.nums[n], self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise OrderTooLow(f"cannot extend order {self.order} to {order}")
        return PowerSeries.from_integers(self.nums[: order + 1], self.den)

    def to_strings(self) -> list:
        return [format_rational(c) for c in self.coefficients]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        d = math.lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        return PowerSeries.from_integers([x * fa + y * fb for x, y in zip(self.nums, other.nums)], d)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + -other

    def __neg__(self) -> "PowerSeries":
        return PowerSeries.from_integers([-v for v in self.nums], self.den)

    def scale(self, factor) -> "PowerSeries":
        f = Rational(factor)
        return PowerSeries.from_integers([f.numerator * v for v in self.nums], f.denominator * self.den)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries.from_integers(_int_mul(self.nums, other.nums, n), self.den * other.den)

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        """Long division of the numerator polynomials A / B over the common
        denominator top = B_0^(n+1), which clears every quotient coefficient:
        R_m = (A_m top - sum_k B_k R_(m-k)) / B_0, an exact division."""
        a, b = self.nums, other.nums
        if b[0] == 0:
            raise DivisionByNonUnit("divisor has zero constant term")
        n = min(self.order, other.order)
        top = b[0] ** (n + 1)
        support = [k for k in range(1, n + 1) if b[k]]
        r = []
        for m in range(n + 1):
            acc = a[m] * top
            for k in support:
                if k > m:
                    break
                acc -= b[k] * r[m - k]
            r.append(acc // b[0])
        return PowerSeries.from_integers([v * other.den for v in r], top * self.den)

    # -- calculus and composition -------------------------------------------

    def derivative(self) -> "PowerSeries":
        if self.order < 1:
            raise OrderTooLow("need order >= 1 to differentiate")
        return PowerSeries.from_integers([k * v for k, v in enumerate(self.nums) if k], self.den)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(z)), requiring inner(0) = 0.  Horner in the inner series."""
        if inner.nums[0] != 0:
            raise CompositionRequiresZeroConstant("inner series has nonzero constant term")
        n = min(self.order, inner.order)
        inner_t = inner.truncate(n)
        result = PowerSeries.from_polynomial((self[n],), n)
        for k in range(n - 1, -1, -1):
            result = result * inner_t
            result = result + PowerSeries.from_polynomial((self[k],), n)
        return result

    def evaluate(self, point) -> "Rational":
        """Exact value of the truncated polynomial at a rational point: with
        point = u/v and coefficients c_k / d, sum c_k u^k v^(N-k) / (d v^N),
        the numerator by Horner's rule on integers."""
        p = Rational(point)
        u, v = p.numerator, p.denominator
        acc, v_pow = 0, 1
        for c in reversed(self.nums):
            acc = acc * u + c * v_pow
            v_pow *= v
        return Rational(acc, self.den * v ** self.order)


def poly_mul(a: Sequence, b: Sequence) -> tuple:
    """Exact full-degree product of two polynomial coefficient lists."""
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += Rational(ai) * bj
    return tuple(out)


def _ratio_series(ratios) -> PowerSeries:
    """The series t_0 = 1, t_(k+1) = t_k * p_k / q_k for the integer pairs
    (p_k, q_k), q_k != 0, over the denominator q_0 ... q_(N-1): numerator k is
    p_0 ... p_(k-1) q_k ... q_(N-1), so each step divides exactly by q_k."""
    ratios = list(ratios)
    nums = [math.prod(q for _, q in ratios)]
    for p, q in ratios:
        nums.append(nums[-1] * p // q)
    return PowerSeries.from_integers(nums, nums[0])


def binomial_series(alpha, order: int) -> PowerSeries:
    """(1+x)^alpha with coefficients C(alpha, n), exact for rational alpha:
    t_(k+1)/t_k = (alpha - k)/(k + 1)."""
    a = Rational(alpha)
    p, q = a.numerator, a.denominator
    return _ratio_series((p - k * q, q * (k + 1)) for k in range(order))


def one_minus_x_power(alpha, order: int) -> PowerSeries:
    """(1-x)^alpha, i.e. the binomial series with alternating signs."""
    a = Rational(alpha)
    p, q = a.numerator, a.denominator
    return _ratio_series((k * q - p, q * (k + 1)) for k in range(order))


def series_pow(s: PowerSeries, alpha) -> PowerSeries:
    """s(x)^alpha for rational alpha, requiring s(0) = 1.

    The recurrence n p_n = sum_k ((alpha+1) k - n) s_k p_(n-k), from
    s p' = alpha s' p, costs O(order * sparsity(s)).  With alpha = u/v and
    s_k = S_k / d, p_n * N! (v d)^N is an integer P_n, and
    n v d P_n = sum_k ((u+v) k - n v) S_k P_(n-k) divides exactly.
    """
    sn, d = s.nums, s.den
    if sn[0] != d:
        raise DivisionByNonUnit("series_pow needs a series with constant term 1")
    a = Rational(alpha)
    u, v = a.numerator, a.denominator
    n_max = s.order
    support = [k for k in range(1, n_max + 1) if sn[k]]
    p = [math.factorial(n_max) * (v * d) ** n_max]
    for n in range(1, n_max + 1):
        acc = 0
        for k in support:
            if k > n:
                break
            acc += ((u + v) * k - n * v) * sn[k] * p[n - k]
        p.append(acc // (n * v * d))
    return PowerSeries.from_integers(p, p[0])


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameter triple (a, b; c) of a Gauss hypergeometric series."""

    a: "Rational"
    b: "Rational"
    c: "Rational"

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, Rational(getattr(self, name)))
        c = self.c
        if c <= 0 and c == int(c):
            raise InvalidLowerParameter(f"lower parameter c={c} is zero or a negative integer")

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

    def series(self, order: int) -> PowerSeries:
        """Coefficients t_0..t_order from the term ratio on integers: with
        a = pa/qa, b = pb/qb, c = pc/qc, t_(k+1)/t_k is
        (pa + k qa)(pb + k qb) qc / ((pc + k qc)(k + 1) qa qb)."""
        pa, qa = self.a.numerator, self.a.denominator
        pb, qb = self.b.numerator, self.b.denominator
        pc, qc = self.c.numerator, self.c.denominator
        return _ratio_series(((pa + k * qa) * (pb + k * qb) * qc, (pc + k * qc) * (k + 1) * qa * qb)
                             for k in range(order))


@dataclass(frozen=True)
class DifferentialOperator:
    """Linear differential operator sum_i p_i(z) d^i/dz^i.

    poly_coeffs[i] is the coefficient list (ascending powers of z) of the
    polynomial multiplying the i-th derivative.

    Its action on coefficients is one recurrence, built once.  Write
    p_i = sum_j p_ij z^j with the p_ij made integers by the factor ``scale``,
    the lcm of their denominators, and let ``h`` be the largest i - j over the
    nonzero p_ij.  The coefficient of z^(n-h) in scale L y is
    sum_k c_k(n) y_(n-k), where c_k(n) sums p_ij (n-k)(n-k-1)...(n-k-i+1) over
    the pairs (i, p_ij) in ``shifts[k]``, those with i - j = h - k.
    ``series_solution`` solves this recurrence and ``apply`` evaluates it.
    """

    poly_coeffs: tuple
    scale: int = field(init=False, repr=False, compare=False)
    h: int = field(init=False, repr=False, compare=False)
    shifts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        polys = tuple(tuple(Rational(c) for c in p) for p in self.poly_coeffs)
        if not polys or all(c == 0 for c in polys[-1]):
            raise SeriesError("leading polynomial of a differential operator must be nonzero")
        scale = math.lcm(*(c.denominator for p in polys for c in p))
        terms = [(i, j, int(c * scale)) for i, p in enumerate(polys) for j, c in enumerate(p) if c]
        h = max(i - j for i, j, _ in terms)
        shifts = {}
        for i, j, c in terms:
            shifts.setdefault(h - i + j, []).append((i, c))
        shifts = dict(sorted(shifts.items()))
        for name, value in (("poly_coeffs", polys), ("scale", scale), ("h", h), ("shifts", shifts)):
            object.__setattr__(self, name, value)

    @property
    def operator_order(self) -> int:
        return len(self.poly_coeffs) - 1

    def _coefficient(self, k: int, n: int) -> int:
        """c_k(n), for n - k >= 0; a falling factorial with more factors than
        n - k vanishes."""
        return sum(c * math.perm(n - k, i) for i, c in self.shifts[k])

    def series_solution(self, constant, order: int) -> PowerSeries:
        """The power series y through z^order with y(0) = constant and L y = 0
        through every power its coefficients determine, from the recurrence:
        y_n = -sum_(k>=1) c_k(n) y_(n-k) / c_0(n) wherever the leading
        coefficient c_0(n) is not 0.  On integers: with
        D = den(constant) c_0(1)...c_0(order), Y_n = y_n D is an integer and
        c_0(n) Y_n = -sum_(k>=1) c_k(n) Y_(n-k) divides exactly.

        Raises SeriesError where c_0 vanishes: at some n in 1..order the
        solution is not unique, and at n = 0 no solution has a nonzero
        constant term.
        """
        if order < 0:
            raise OrderTooLow(f"order {order} is negative")
        lead = [self._coefficient(0, n) for n in range(order + 1)]
        y0 = Rational(constant)
        if lead[0] != 0 and y0 != 0:
            raise SeriesError("no power-series solution has a nonzero constant term: "
                              "0 is not a root of the leading recurrence coefficient")
        vanishing = [n for n in range(1, order + 1) if lead[n] == 0]
        if vanishing:
            raise SeriesError(f"leading recurrence coefficient vanishes at n = {vanishing[0]}: "
                              "the constant term does not fix the solution")
        lower = [k for k in self.shifts if k > 0]
        top = math.prod(lead[1:])
        nums = [y0.numerator * top]
        for n in range(1, order + 1):
            acc = sum(self._coefficient(k, n) * nums[n - k] for k in lower if k <= n)
            nums.append(-acc // lead[n])
        return PowerSeries.from_integers(nums, y0.denominator * top)

    def apply(self, s: PowerSeries) -> PowerSeries:
        """Exact residual L s through z^(order(s) - operator order), from the
        recurrence: its coefficient at z^p is sum_k c_k(p+h) s_(p+h-k) / scale,
        over the k <= p + h.  The indices stay within order(s), since
        p + h - k = p + i - j <= p + operator order."""
        r = self.operator_order
        if s.order < r:
            raise OrderTooLow(f"series order {s.order} below operator order {r}")
        y, h = s.nums, self.h
        nums = [sum(self._coefficient(k, n) * y[n - k] for k in self.shifts if k <= n)
                for n in range(h, s.order - r + h + 1)]
        return PowerSeries.from_integers(nums, s.den * self.scale)


def perturbed(s: PowerSeries, index: int, delta) -> PowerSeries:
    """Copy of s with coefficients[index] shifted by delta (fault injection)."""
    coeffs = list(s.coefficients)
    coeffs[index] = coeffs[index] + Rational(delta)
    return PowerSeries(coeffs)


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
