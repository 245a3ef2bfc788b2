"""Exact truncated power-series arithmetic, stored as integers.

Everything downstream (identity checks, ODE residuals, golden coefficients,
the exact oracle tier of the certified evaluator) runs on these types.  A
series is integer numerators over one positive denominator.  Its public form
``(nums, den)`` is canonical, ``gcd(den, *nums) == 1``: den is the lcm of the
reduced coefficient denominators, so equal series have equal ``(nums, den)``,
and ``==`` and ``hash`` compare that form.  Operations work on the stored
integers and do not reduce them: a sum, product, quotient or derivative
keeps whatever factor its numerators and denominator share, and is reduced
once, when its public form, ``==`` or ``hash`` is first asked for.  The generated
series (hypergeometric, binomial, power) are reduced as they are built, since
each is a factor of later products.

A product through z^15 or below is the plain double loop, as packing costs
more than it saves there.  Any other product is Harvey's two-point Kronecker
substitution (KS2): the operands are packed at 2^w and at -2^w, and two
big-integer products of half the size of one Kronecker product give the
even and the odd coefficients, each digit 2w bits wide, enough for the
coefficients that are kept (``_int_mul``).  Every generated series solves an
integer recurrence c_0(n) y_n = sum_(k>=1) d_k(n) y_(n-k), by one kernel
(``_recurrence``), once its order is checked: a hypergeometric series from
its term ratio; a power s^alpha, the binomial series among them, and a
product of rational powers of polynomials from their first-order equation
S p' = T p (``series_pow``, ``power_product``); an operator's power-series
solution, such as the area and volume expansions of ``identities``, from
its coefficient recurrence.
``coefficients``, as ``fractions.Fraction``, is derived on first use, at the API edge.

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
    "Rational", "rat", "parse_rational",
    "SeriesError", "DivisionByNonUnit", "CompositionRequiresZeroConstant",
    "InvalidLowerParameter", "OrderTooLow",
    "PowerSeries", "HypergeometricSpec", "DifferentialOperator",
    "binomial_series", "series_pow", "power_product",
]

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


def _checked_order(order) -> int:
    """order, where it is an int of at least 0: TypeError for any other type,
    bool among them, and OrderTooLow for a negative int."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise TypeError(f"order must be an int, not {order!r}")
    if order < 0:
        raise OrderTooLow(f"order must be at least 0, not {order}")
    return order


# a product through fewer powers than this is the plain double loop: id_war's
# products through z^8 take about 10 us so, against 35 us by KS2, and the two
# cross near z^24 (Python 3.11, shared 2-vCPU host)
_SCHOOLBOOK = 16


def _offset(width: int, count: int) -> int:
    """sum_k 2^(8*width - 1) 2^(8*width*k), k < count: added to a packed
    number, it makes every signed digit below 2^(8*width - 1) in magnitude
    a nonnegative byte string."""
    return int.from_bytes((b"\0" * (width - 1) + b"\x80") * count, "little")


def _pack(nums: Sequence, width: int) -> int:
    """Kronecker substitution: sum nums[k] * 2^(8*width*k), each |nums[k]|
    below 2^(8*width - 1), packed as the digits nums[k] + 2^(8*width - 1)."""
    half = 1 << (8 * width - 1)
    packed = b"".join((v + half).to_bytes(width, "little") for v in nums)
    return int.from_bytes(packed, "little") - _offset(width, len(nums))


def _unpack(value: int, width: int, count: int) -> list:
    """The signed digits 0..count-1 of value in base 2^(8*width), each known
    to be below 2^(8*width - 1) in magnitude; higher digits are ignored."""
    size = width * count
    raw = ((value + _offset(width, count)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(raw[m : m + width], "little") - half for m in range(0, size, width)]


def _product_bits(a: Sequence, b: Sequence, n: int) -> int:
    """A bound B with |c_m| < 2^(B-1) for the coefficients m <= n of a*b.

    Coefficient m sums at most n+1 products a_i b_j, i + j = m, each below
    2^(bits(a_i) + max_(j <= n-i) bits(b_j)); B is the largest such exponent
    plus bits(n+1) + 1.  When a longest a_i and a longest b_j meet within
    i + j <= n, that exponent is max bits(a) + max bits(b), with no prefix
    maximum to take."""
    la, lb = list(map(int.bit_length, a)), list(map(int.bit_length, b))
    top_a, top_b = max(la), max(lb)
    if la.index(top_a) + lb.index(top_b) <= n:
        top = top_a + top_b
    else:
        # reach[k] = max_(j <= k) bits(b_j), paired with a_i at k = n - i
        reach = list(itertools.accumulate([*lb, *[0] * (n + 1 - len(lb))], max))
        top = max(map(operator.add, la, reversed(reach)))
    return top + (n + 1).bit_length() + 1


def _int_mul(a: Sequence, b: Sequence, n: int) -> list:
    """Coefficients 0..n of the product c of two integer polynomials, by
    two-point Kronecker substitution (KS2, Harvey, arXiv:0712.4046).

    With |c_m| < 2^(B-1) for m <= n (``_product_bits``) and w = 8*ceil(B/16),
    the operands are packed at 2^w and at -2^w, their even and odd halves
    each with digits 2w wide.  The two products give c(2^w) and c(-2^w), of
    half the size of one product at 2^(2w); their half sum is the even
    coefficients, and their half difference over 2^w the odd ones, each a
    signed digit 2w >= B bits wide.  Digits above n add only multiples of
    the powers of 2 past the kept ones, so the low digits determine
    coefficients 0..n exactly.
    """
    # as lists, so that the halves are lists too: CPython keeps freed tuples
    # of up to 20 items on free lists, which held 170 KB after verify_all(40)
    a, b = list(a[: n + 1]), list(b[: n + 1])
    width = (_product_bits(a, b, n) + 15) // 16
    shift = 8 * width
    a_even, a_odd = _pack(a[0::2], 2 * width), _pack(a[1::2], 2 * width) << shift
    b_even, b_odd = _pack(b[0::2], 2 * width), _pack(b[1::2], 2 * width) << shift
    plus = (a_even + a_odd) * (b_even + b_odd)
    minus = (a_even - a_odd) * (b_even - b_odd)
    out = [0] * (n + 1)
    out[0::2] = _unpack((plus + minus) >> 1, 2 * width, n // 2 + 1)
    out[1::2] = _unpack((plus - minus) >> (shift + 1), 2 * width, (n + 1) // 2)
    return out


def _schoolbook(a: Sequence, b: Sequence, n: int) -> list:
    """Coefficients 0..n of the product of two integer polynomials, by the
    plain double loop over the nonzero coefficients of a."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


class PowerSeries:
    """Truncated formal power series: coefficient k is nums[k] / den, in the
    canonical form of the module docstring; ``PowerSeries(coefficients)``
    takes the coefficients as rationals.

    The truncation order is len(nums) - 1; coefficients beyond it are
    unknown, not zero.  Instances are immutable.  The stored numerators
    ``_nums`` over the positive ``_den`` need not be reduced; ``nums`` and
    ``den`` reduce them on first use.
    """

    def __init__(self, coefficients: Sequence):
        coeffs = tuple(Rational(c) for c in coefficients)
        if not coeffs:
            raise SeriesError("a series needs at least its constant term")
        d = math.lcm(*(c.denominator for c in coeffs))
        nums = tuple(c.numerator * (d // c.denominator) for c in coeffs)
        self.__dict__.update(_nums=nums, _den=d, nums=nums, den=d, coefficients=coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"PowerSeries is immutable: cannot set {name!r}")

    def __getattr__(self, name):
        """``nums`` and ``den``: the stored integers reduced by their gcd on
        first use, and kept."""
        if name not in ("nums", "den"):
            raise AttributeError(f"'PowerSeries' object has no attribute {name!r}")
        nums, den = self._nums, self._den
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = tuple(v // g for v in nums), den // g
        self.__dict__.update(nums=nums, den=den)
        return self.__dict__[name]

    @staticmethod
    def _of(nums: Sequence, den: int) -> "PowerSeries":
        """The series nums[k] / den, den nonzero, stored without reducing."""
        s = object.__new__(PowerSeries)
        if den < 0:
            nums, den = [-v for v in nums], -den
        s.__dict__.update(_nums=tuple(nums), _den=den)
        return s

    @staticmethod
    def from_integers(nums: Sequence, den: int) -> "PowerSeries":
        """The series with coefficients nums[k] / den, in canonical form: one
        gcd, and the sign moved onto the numerators."""
        if den == 0:
            raise ZeroDivisionError("a series needs a nonzero denominator")
        if not nums:
            raise SeriesError("a series needs at least its constant term")
        s = PowerSeries._of(nums, den)
        s.__dict__.update(_nums=s.nums, _den=s.den)
        return s

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"PowerSeries(nums={self.nums!r}, den={self.den!r})"

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_polynomial(coeffs: Sequence, order: int) -> "PowerSeries":
        """Exact polynomial viewed as a series of the given truncation order."""
        c = [Rational(v) for v in list(coeffs)[: _checked_order(order) + 1]]
        d = math.lcm(*(v.denominator for v in c))
        nums = [v.numerator * (d // v.denominator) for v in c] + [0] * (order + 1 - len(c))
        return PowerSeries.from_integers(nums, d)

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries.from_polynomial((), order)

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
        return tuple(Rational(v, self._den) for v in self._nums)

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def __getitem__(self, n: int):
        return Rational(self._nums[n], self._den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def truncate(self, order: int) -> "PowerSeries":
        """The series through z^order, an int from 0 to its own order."""
        if _checked_order(order) > self.order:
            raise OrderTooLow(f"cannot extend order {self.order} to {order}")
        return PowerSeries._of(self._nums[: order + 1], self._den)

    def reduced(self) -> "PowerSeries":
        """The same series, stored in canonical form: worth it for a series
        that is a factor of several products."""
        return PowerSeries.from_integers(self._nums, self._den)

    def to_strings(self) -> list:
        return [str(c) for c in self.coefficients]

    # -- ring operations ----------------------------------------------------

    def _over_common_den(self, other: "PowerSeries") -> tuple:
        d = math.lcm(self._den, other._den)
        fa, fb = d // self._den, d // other._den
        a = self._nums if fa == 1 else [v * fa for v in self._nums]
        b = other._nums if fb == 1 else [v * fb for v in other._nums]
        return a, b, d

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        a, b, d = self._over_common_den(other)
        return PowerSeries._of(list(map(operator.add, a, b)), d)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        a, b, d = self._over_common_den(other)
        return PowerSeries._of(list(map(operator.sub, a, b)), d)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries._of([-v for v in self._nums], self._den)

    def scale(self, factor) -> "PowerSeries":
        f = Rational(factor)
        return PowerSeries._of([f.numerator * v for v in self._nums], f.denominator * self._den)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """A product through fewer than ``_SCHOOLBOOK`` powers is the double
        loop, and any other product is one KS2 product (``_int_mul``)."""
        n = min(self.order, other.order)
        a, b = self._nums[: n + 1], other._nums[: n + 1]
        nums = _schoolbook(a, b, n) if n < _SCHOOLBOOK else _int_mul(a, b, n)
        return PowerSeries._of(nums, self._den * other._den)

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        """Long division of the numerator polynomials A / B over the common
        denominator top = B_0^(n+1), which clears every quotient coefficient:
        R_m = (A_m top - sum_k B_k R_(m-k)) / B_0, an exact division."""
        a, b = self._nums, other._nums
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
        return PowerSeries._of([v * other._den for v in r], top * self._den)

    # -- calculus and composition -------------------------------------------

    def derivative(self) -> "PowerSeries":
        if self.order < 1:
            raise OrderTooLow("need order >= 1 to differentiate")
        return PowerSeries._of([k * v for k, v in enumerate(self._nums) if k], self._den)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(z)), requiring inner(0) = 0.  Horner in the inner series."""
        if inner._nums[0] != 0:
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
        for c in reversed(self._nums):
            acc = acc * u + c * v_pow
            v_pow *= v
        return Rational(acc, self._den * v ** self.order)


def _recurrence(lead: Sequence, terms: Sequence, y0: Rational = ONE) -> PowerSeries:
    """The series y through z^N with y_0 = y0 and c_0(n) y_n = sum_(k>=1)
    d_k(n) y_(n-k) for n = 1..N, given the integer tables lead[n] = c_0(n) and
    the pairs (k, [d_k(0), ..., d_k(N)]) in increasing k.

    With y0 = u/w, each step keeps y_n = Y_n / (w m_1...m_n), Y_n an integer
    and m_n > 0 the part of c_0(n) that Y_n cannot absorb: acc = sum_k d_k(n)
    Y_(n-k) m_(n-k+1)...m_(n-1) is an integer with y_n = acc / (w m_1...m_(n-1)
    c_0(n)), so with g = gcd(acc, c_0(n)), signed as c_0(n), Y_n = acc / g and
    m_n = c_0(n) / g.  The common denominator grows only by what the
    coefficients need, not by the product of the c_0(n) (for the flux series
    through z^200, 389 bits against 4069), so the integers stay short.  The
    Y_n m_(n+1)...m_N over the positive w m_1...m_N are returned, not reduced
    further.  Raises SeriesError where c_0 vanishes: at n = 0, where the
    recurrence reads c_0(0) y_0 = 0, if y0 != 0; at any n in 1..N, where the
    solution is not unique.
    """
    if lead[0] != 0 and y0 != 0:
        raise SeriesError("no power-series solution has a nonzero constant term: "
                          "0 is not a root of the leading recurrence coefficient")
    if 0 in lead[1:]:
        raise SeriesError(f"leading recurrence coefficient vanishes at n = {lead.index(0, 1)}: "
                          "the constant term does not fix the solution")
    nums, ms = [y0.numerator], [1]
    for n in range(1, len(lead)):
        acc, win, reach = 0, 1, 1
        for k, d in terms:
            if k > n:
                break
            while reach < k:  # win = m_(n-k+1)...m_(n-1)
                win *= ms[n - reach]
                reach += 1
            acc += d[n] * win * nums[n - k]
        c = lead[n]
        g = math.gcd(acc, c) if c > 0 else -math.gcd(acc, c)
        nums.append(acc // g)
        ms.append(c // g)
    scale = 1
    for n in range(len(nums) - 1, -1, -1):
        nums[n] *= scale
        scale *= ms[n]
    return PowerSeries._of(nums, y0.denominator * scale)


def binomial_series(alpha, order: int) -> PowerSeries:
    """(1+x)^alpha with coefficients C(alpha, n), exact for rational alpha."""
    return series_pow(PowerSeries.from_polynomial((1, 1), order), alpha)


def _first_order_series(s: Sequence, t: Sequence, v: int, order: int) -> PowerSeries:
    """The series p with p(0) = 1 and s p' = (t / v) p through z^order, for
    integer coefficient lists s (s_0 != 0) and t, len(t) >= len(s) - 1, and an
    integer v > 0.  At z^(n-1) the equation reads n v s_0 p_n =
    sum_(k>=1) d_k(n) p_(n-k), d_k(n) = t_(k-1) - v (n-k) s_k (``_recurrence``);
    d_k(n) steps by -v s_k in n, so its table is a running sum."""
    terms = [(k, list(itertools.accumulate(itertools.repeat(-v * s[k], order),
                                           initial=t[k - 1] + v * k * s[k])))
             for k in range(1, len(s)) if s[k] or t[k - 1]]
    return _recurrence([n * v * s[0] for n in range(order + 1)], terms).reduced()


def series_pow(s: PowerSeries, alpha) -> PowerSeries:
    """s(x)^alpha for rational alpha, requiring s(0) = 1: the solution of
    s p' = alpha s' p.  With alpha = u/v and s = S / d, that is
    S p' = (u S' / v) p on integers (``_first_order_series``)."""
    sn = s.nums
    if sn[0] != s.den:
        raise DivisionByNonUnit("series_pow needs a series with constant term 1")
    a = Rational(alpha)
    return _first_order_series(sn, [a.numerator * k * c for k, c in enumerate(sn) if k],
                               a.denominator, s.order)


def power_product(factors: Sequence, order: int) -> PowerSeries:
    """prod_i f_i(x)^alpha_i through x^order, for integer polynomials f_i
    (coefficient lists, ascending) with constant term 1 and rational
    exponents alpha_i, as one series: p = prod f_i^alpha_i solves S p' = T p
    with S = prod f_i and T = sum_i alpha_i f_i' prod_(j != i) f_j.  S and
    T / v, T over the denominator v, are built one factor at a time by the
    product rule, as polynomials of full degree: with alpha = u/w,
    T <- w T f + u v f' S, v <- v w, S <- S f."""
    _checked_order(order)
    degree = sum(len(poly) - 1 for poly, _ in factors)
    s, t, v = [1] + [0] * degree, [0] * degree, 1
    for poly, alpha in factors:
        if poly[0] != 1:
            raise DivisionByNonUnit("power_product needs polynomials with constant term 1")
        a = Rational(alpha)
        f = [*poly, *[0] * (degree + 1 - len(poly))]
        slope = [k * c for k, c in enumerate(f) if k]
        t = [a.denominator * x + a.numerator * v * y
             for x, y in zip(_schoolbook(f, t, degree - 1), _schoolbook(slope, s, degree - 1))]
        v *= a.denominator
        s = _schoolbook(f, s, degree)
    g = math.gcd(v, *t)
    return _first_order_series(s, [x // g for x in t], v // g, order)


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
        a = pa/qa, b = pb/qb, c = pc/qc, t_n/t_(n-1) is
        (pa + (n-1) qa)(pb + (n-1) qb) qc / ((pc + (n-1) qc) n qa qb)."""
        ns = range(_checked_order(order) + 1)
        pa, qa = self.a.numerator, self.a.denominator
        pb, qb = self.b.numerator, self.b.denominator
        pc, qc = self.c.numerator, self.c.denominator
        lead = [(pc + (n - 1) * qc) * n * qa * qb for n in ns]
        ratio = [(pa + (n - 1) * qa) * (pb + (n - 1) * qb) * qc for n in ns]
        return _recurrence(lead, [(1, ratio)]).reduced()


def _at(poly: Sequence, n: int) -> int:
    """An integer polynomial in n, highest power first, at n (Horner)."""
    acc = 0
    for c in poly:
        acc = acc * n + c
    return acc


def _at_each(poly: Sequence, ns: range) -> list:
    """``_at(poly, n)`` for each n in ns, a range of step 1: from the forward
    differences of the polynomial at ns[0], each table is a running sum of
    the next, the last difference being constant (half the time of Horner's
    rule on the list for the flux operator's cubics at 201 points)."""
    d = len(poly) - 1
    if d < 1 or len(ns) <= d + 1:
        return [_at(poly, n) for n in ns]
    heads = [_at(poly, n) for n in ns[: d + 1]]
    for j in range(1, d + 1):
        for i in range(d, j - 1, -1):
            heads[i] -= heads[i - 1]
    table = [heads[d]] * len(ns)
    for j in range(d - 1, -1, -1):
        table = list(itertools.accumulate(table[:-1], initial=heads[j]))
    return table


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
    the pairs with i - j = h - k.  ``recurrence[k]`` holds c_k as its integer
    coefficients in n, highest power first; for n - k >= 0 a falling
    factorial with more factors than n - k has the factor 0, so the
    polynomial vanishes there as the sum does.  ``series_solution`` solves
    this recurrence (``_recurrence``) and ``apply`` evaluates it.
    """

    poly_coeffs: tuple
    scale: int = field(init=False, repr=False, compare=False)
    h: int = field(init=False, repr=False, compare=False)
    recurrence: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        polys = tuple(tuple(Rational(c) for c in p) for p in self.poly_coeffs)
        if not polys or all(c == 0 for c in polys[-1]):
            raise SeriesError("leading polynomial of a differential operator must be nonzero")
        scale = math.lcm(*(c.denominator for p in polys for c in p))
        terms = [(i, j, int(c * scale)) for i, p in enumerate(polys) for j, c in enumerate(p) if c]
        h = max(i - j for i, j, _ in terms)
        recurrence = {}
        for i, j, c in terms:
            k = h - i + j
            # c (n-k)(n-k-1)...(n-k-i+1), ascending powers of n
            falling = [c]
            for r in range(i):
                root = k + r
                falling = [-root * falling[0],
                           *(falling[m - 1] - root * falling[m] for m in range(1, len(falling))),
                           falling[-1]]
            total = recurrence.setdefault(k, [0] * (len(polys)))
            for m, v in enumerate(falling):
                total[m] += v
        recurrence = {k: tuple(reversed(v)) for k, v in sorted(recurrence.items())}
        for name, value in (("poly_coeffs", polys), ("scale", scale), ("h", h), ("recurrence", recurrence)):
            object.__setattr__(self, name, value)

    @property
    def operator_order(self) -> int:
        return len(self.poly_coeffs) - 1

    def series_solution(self, constant, order: int) -> PowerSeries:
        """The power series y through z^order with y(0) = constant and L y = 0
        through every power its coefficients determine, from the recurrence
        c_0(n) y_n = -sum_(k>=1) c_k(n) y_(n-k), unreduced (``_recurrence``).
        Raises SeriesError where c_0 vanishes at n = 0 with a nonzero
        constant, or at some n in 1..order."""
        ns = range(_checked_order(order) + 1)
        lead = _at_each(self.recurrence[0], ns)
        terms = [(k, _at_each([-c for c in poly], ns)) for k, poly in self.recurrence.items() if k]
        return _recurrence(lead, terms, Rational(constant))

    def apply(self, s: PowerSeries) -> PowerSeries:
        """Exact residual L s through z^(order(s) - operator order), from the
        recurrence: its coefficient at z^p is sum_k c_k(p+h) s_(p+h-k) / scale,
        over the k <= p + h.  The indices stay within order(s), since
        p + h - k = p + i - j <= p + operator order."""
        r = self.operator_order
        if s.order < r:
            raise OrderTooLow(f"series order {s.order} below operator order {r}")
        y, h = s._nums, self.h
        nums = [sum(_at(poly, n) * y[n - k] for k, poly in self.recurrence.items() if k <= n)
                for n in range(h, s.order - r + h + 1)]
        return PowerSeries._of(nums, s._den * self.scale)


def perturbed(s: PowerSeries, index: int, delta) -> PowerSeries:
    """Copy of s with coefficients[index] shifted by delta (fault injection)."""
    coeffs = list(s.coefficients)
    coeffs[index] = coeffs[index] + Rational(delta)
    return PowerSeries(coeffs)

