"""Certified floating-point evaluation of the torus ratio and its ingredients.

Every evaluation returns a value together with a rigorous absolute error
bound covering series truncation, argument rounding, and accumulated
floating-point rounding.  The exact-series layer serves as the oracle tier;
nothing here is trusted without a bound.

One kernel sums every Gauss series, for the class a = b, c > 0,
s = c - 2a > 0 and (a-1)(c-a) <= 0 (``HypergeometricSpec.tail_majorant``);
other triples raise ``DomainError``.  In the class every term is
nonnegative and t_{k+1}/t_k <= x (k+a)/(k+a+s+1) once k + a > 0, which
bounds the tail finitely up to and including x = 1 (see ``_eval_family``).
Near x = 1 a sum runs to thousands of terms, so past its first terms the
kernel sums blocks of terms without testing its stop rule, by the same float
operations in the same order as the term-by-term loop.  One test per block
proves that no term of it could have stopped that loop: the tail bound falls
and the rounding bound grows from term to term, so the block's end and start
bound both.  A block that fails the test is summed again term by term, so
every result equals the term-by-term one to the bit.
The class holds every series the ratio needs: F_a = 2F1(-a,-a;1;x) in
w_a = F_a/(1+x)^a for a = 1/2 and 3/2, and G_a = 2F1(1-a,1-a;2;x) in the
log slope w_a'/w_a = a^2 G_a/F_a - a/(1+x) (F_a' = a^2 G_a, DLMF 15.5.1),
so Iso and its derivative are certified on the whole domain.

The kernel takes each series as a record (``_Kernel``): its parameters,
its head-table row and its derivative cap.  A step's factors (a+n)^2,
(c+n)(n+1), (n+1+a+s)/s and 3 EPS (n+1) do not depend on x.  For these four
series, F_a and G_a at a = 1/2 and 3/2, the records are built once, at
import: the factors are tabled for the 97 checked steps up to the first
block (``_head_table``), about 80 KB in all, and the cap is computed then,
so no call hashes the parameters of a series.  Each entry is the float
operation of the inline expression on the same float operands, so a table
changes no bit of any result; the blocks, and every other series, compute
their factors at each step, and look their cap up when they need it.

Iso is assembled from one quotient (``_h``): with t = z^2 and
x = 4t/(1-t)^2, iso^2 = K h(x), h = w_{3/2}^2/w_{1/2}^3
= F_{3/2}^2/F_{1/2}^3 (1+x)^(-3/2), where (1+x)^(-3/2) = ((1-t)/(1+t))^3.
``iso_derivative`` also sums the two slope series G_a.  Everything inside
runs on (value, bound) float pairs: the kernel (``_eval_family``), the bound
rules (``_mul``, ``_div``, ``_pow``, ``_sub``, ``_scale``,
``_pow_one_plus_x``, ``_h``) and the evaluators' own assemblies, none of
which carries a flag.  ``eval_2f1`` is the checked public wrapper of the
kernel, and nothing in the package calls it.  Each public call checks its
arguments once, gives each series a share of the caller's target, and
builds exactly one CertifiedValue, from its final pair, flagged exactly when
that bound is not at most the target, a NaN bound too (``_flagged``).
Scans evaluate their grids through the same pair functions and build no
CertifiedValue: they enclose the difference they test at each grid point
and judge every enclosure in one classifier (``_classify``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .identities import ABAR_OPERATOR, VBAR_OPERATOR
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
# the multiples of EPS in the bounds: each product is exact and Python
# evaluates 2.0 * EPS * w from the left, so _TWO_EPS * w gives the same bits
_TWO_EPS, _THREE_EPS, _FOUR_EPS, _EIGHT_EPS = 2.0 * EPS, 3.0 * EPS, 4.0 * EPS, 8.0 * EPS
_ROUND_UP = 1.0 + _FOUR_EPS  # a bound sum's round-up where it is not small against |w|
SQRT2 = math.sqrt(2.0)
Z_MAX = SQRT2 - 1.0                 # right end of the torus-parameter domain
T_MAX = 3.0 - 2.0 * SQRT2           # = Z_MAX**2, domain of the sqrt-substituted maps
ISO_AT_ZERO = 1.5 * (2.0 * math.pi ** 2) ** -0.25
_K_RATIO = 9.0 * SQRT2 / (8.0 * math.pi)   # constant in the closed form of iso**2
_C_DIRECT = 6.0 / (math.sqrt(math.pi) * 2.0 ** 0.25)
# a constant computed in floats (with pi, sqrt) is known to a few ulps
_K_RATIO_BOUND = _FOUR_EPS * _K_RATIO
_C_DIRECT_BOUND = _FOUR_EPS * _C_DIRECT
# the least positive float: an evaluator floors the share target/k of its
# target that it gives a series here, where the division underflows to 0
_TINY = math.ulp(0.0)
_MAX_TERMS = 10 ** 6                # cap on the terms eval_2f1 sums; reaching it flags the result
# w_a's a ends where 2F1(-a,-a;1;1) = Gamma(1+2a)/Gamma(1+a)^2 reaches
# e^_W_LOG_MAX, 1/e of the largest float: at a = 513.94
_W_LOG_MAX = math.log(sys.float_info.max) - 1.0
_HEAD = 96                          # checked steps before eval_2f1 first tries unchecked blocks
_BLOCK = 64                         # terms in each unchecked block (``_eval_family``)
_CAP_CUSHION = 1.05                 # iso_direct's tail cap over its largest checked coefficient ratio
_P = 128                            # bits after the point in iso_direct's fixed-point partial sums

SPEC_AREA = HypergeometricSpec(rat(-1, 2), rat(-1, 2), rat(1))
SPEC_VOLUME = HypergeometricSpec(rat(-3, 2), rat(-3, 2), rat(1))
# 2F1(1-a,1-a;2;x) at a = 1/2 and 3/2: the series in dw_a/dx
_SPEC_AREA_SLOPE = HypergeometricSpec(rat(1, 2), rat(1, 2), rat(2))
_SPEC_VOLUME_SLOPE = HypergeometricSpec(rat(-1, 2), rat(-1, 2), rat(2))


class NumericsError(Exception):
    """Base class for certified-evaluation errors."""


class Divergent(NumericsError):
    """Series does not converge at the requested argument."""


class BoundNotAchieved(NumericsError):
    """A certified bound cannot be produced under the configured limits."""


class DomainError(NumericsError):
    """Argument outside the function's certified domain."""


class CertifiedValue(NamedTuple):
    """A float paired with a rigorous absolute error bound.

    The true mathematical value lies in [value - abs_error_bound,
    value + abs_error_bound].  ``flag`` marks degraded results ("bound_not_
    achieved") whose bound is still honest but larger than requested.  Only
    a public evaluator sets it, from its own final bound and target
    (``_flagged``); the pair rules below carry no flag.

    A named tuple, as one builds in half the time of a frozen dataclass; it
    unpacks as (value, abs_error_bound, flag).  It equals only another
    CertifiedValue, never a plain tuple, and has no order and no tuple
    arithmetic.
    """

    value: float
    abs_error_bound: float
    flag: str | None = None

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # not NotImplemented for a tuple, whose own == would compare the items
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def _refused(self, other):
        # raised, not NotImplemented, which would fall back to the tuple's own
        raise TypeError("a CertifiedValue has no order and no arithmetic")

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __radd__ = __mul__ = __rmul__ = _refused
    __hash__ = tuple.__hash__

    @property
    def lo(self) -> float:
        return self.value - self.abs_error_bound

    @property
    def hi(self) -> float:
        return self.value + self.abs_error_bound


# --------------------------------------------------------------------------
# Interval rules on (value, bound) float pairs
# --------------------------------------------------------------------------
#
# Each rule takes its operands as floats u, ub (and v, vb), the value and
# the bound of its absolute error, and returns the pair (w, b) of the
# result: the exact result of the operation on any points within the bounds
# lies within b of w.  The 2 EPS |w| term in each bound (4 EPS |w| for a
# power) covers the rounding of w itself.  The rules carry no flag; a public
# evaluator turns its final pair into its one CertifiedValue (``_flagged``).
#
# The pad must also cover the rounding of the bound's own terms.  Away from
# underflow and overflow, with u = EPS/2, a rounded nonnegative result is at
# least (1 - u) times its exact value, so a bound s computed in k roundings
# is at least (1 - u)^k times its exact value S: k = 1 in ``_sub`` (the sum)
# and ``_scale`` (the product), 3 in ``_mul`` (a product, then two sums) and
# 5 in ``_div`` (|w| for |u/v|, the product, the sum, the rounded-up
# denominator, the quotient).  The returned s + 2 EPS |w|, rounded once
# more, is then at least S - (k+1) u S + 4u |w| - 4u^2 |w|, which holds
# S + u |w| (w's own rounding) while (k+1) S <= (3 - 4u) |w|.  ``_sub``
# meets that where s <= |w|, and the others where 4 s <= |w|.  Elsewhere
# the rule rounds s up by the factor 1 + 2 EPS (``_sub``) or 1 + 4 EPS,
# one more rounding: (1 - u)^(k+2) (1 + 4u) >= 1 for k = 1 and
# (1 - u)^(k+2) (1 + 8u) >= 1 for k <= 5, so the result holds S, and the
# pad, 4u (1 - u) |w| after the last rounding, holds u |w|.

def _flagged(value: float, bound: float, target: float) -> CertifiedValue:
    """The CertifiedValue of a public evaluator's final (value, bound) pair,
    flagged unless the bound is at most ``target`` (so a NaN bound is
    flagged): the one place a flag is set, so the flag follows the
    evaluator's own final bound."""
    return CertifiedValue(value, bound, None if bound <= target else "bound_not_achieved")


def _sub(u: float, ub: float, v: float, vb: float) -> tuple:
    w = u - v
    size = abs(w)
    b = ub + vb
    if size < b:
        # the difference cancels below the bound: 2 EPS |w| no longer covers
        # the rounding of ub + vb, so round that sum up by 2 EPS of itself
        b *= 1.0 + _TWO_EPS
    return w, b + _TWO_EPS * size


def _scale(u: float, ub: float, k: float) -> tuple:
    w = u * k
    size = abs(w)
    b = abs(k) * ub
    if size < 4.0 * b:
        b *= _ROUND_UP
    return w, b + _TWO_EPS * size


def _mul(u: float, ub: float, v: float, vb: float) -> tuple:
    w = u * v
    size = abs(w)
    b = abs(u) * vb + abs(v) * ub + ub * vb
    if size < 4.0 * b:
        b *= _ROUND_UP
    return w, b + _TWO_EPS * size


def _div(u: float, ub: float, v: float, vb: float) -> tuple:
    denom_lo = abs(v) - vb
    if denom_lo <= 0.0:
        raise BoundNotAchieved("division by an interval containing zero")
    w = u / v
    size = abs(w)
    b = (ub + size * vb) / denom_lo
    if size < 4.0 * b:
        b *= _ROUND_UP
    return w, b + _TWO_EPS * size


def _pow(u: float, ub: float, p: float) -> tuple:
    """u**p for an interval with positive lower end; monotone in the base."""
    lo = u - ub
    if lo <= 0.0:
        raise BoundNotAchieved("power base interval not strictly positive")
    w = u ** p
    return w, max(abs(lo ** p - w), abs((u + ub) ** p - w)) + _FOUR_EPS * abs(w)


# --------------------------------------------------------------------------
# Certified 2F1 evaluation
# --------------------------------------------------------------------------

def _refuse_bool(name: str, value):
    """A bool is an int to Python, so True would pass as 1: refuse it."""
    if isinstance(value, bool):
        raise DomainError(f"{name} {value!r} is a bool, not a number")


def _check_target(target: float):
    _refuse_bool("target", target)
    if not 0.0 < target < math.inf:
        raise DomainError(f"target {target} is not a positive finite bound")


def _check_x(x: float):
    _refuse_bool("argument", x)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"argument {x} outside [0, 1]")


def _in_family(spec: HypergeometricSpec) -> bool:
    return spec.tail_majorant is not None


@lru_cache(maxsize=None)
def _family_derivative_cap(a: float, c: float, s: float, m0: int) -> tuple:
    """(head, coef, limit, f_range) with F'(y) <= head + coef * min(limit,
    1/(1-y)) for y in [0, 1) and F(1) - F(0) <= f_range.

    With m1 = m0 + 32 >= m0 and R_k = prod_{j=m1}^{k-1} (j+a)/(j+a+s), the
    ratio majorant gives k t_k(1) <= (k+a+s) t_k(1) <= t_{m1}(1) (m1+a+s) R_k
    for k >= m1 (k <= k+a+s as c >= a in the class).  R_k decreases, so
    sum_{k>=m1} R_k y^(k-1) <= 1/(1-y); for s > 1 it also telescopes to at
    most (m1+a+s-1)/(s-1), finite at y = 1.  The terms below m1 are summed at
    y = 1.  A 1 % cushion covers the float rounding of these constants.
    """
    m1 = m0 + 32
    t = 1.0
    head = 0.0
    total = 1.0
    for k in range(1, m1 + 1):
        t *= (a + k - 1) * (a + k - 1) / ((c + k - 1) * k)
        if k < m1:
            head += k * t
            total += t
    coef = t * (m1 + a + s)
    limit = (m1 + a + s - 1.0) / (s - 1.0) if s > 1.0 else math.inf
    if coef == 0.0:  # a terminating series
        limit = 0.0
    f_range = total - 1.0 + t * (m1 + a + s) / s
    return 1.01 * head, 1.01 * coef, limit, 1.01 * f_range


def eval_2f1(
    spec: HypergeometricSpec,
    x: float,
    target: float = 1e-10,
    x_abs_err: float = 0.0,
) -> CertifiedValue:
    """Certified partial sum of the Gauss series at x in [0, 1].

    ``spec`` must lie in the nonnegative-term class of the module docstring.
    ``x_abs_err`` is an a-priori bound on the rounding error of the argument
    itself; its effect is folded into the returned bound through a bound on
    the derivative of the series; it must be at least 0, and may be inf.
    The result is flagged unless its bound is at most ``target``.  This is the
    checked public entry to the kernel; the package's own evaluators call
    ``_eval_family`` on their series' records instead.  It sums every series
    on the per-call path, the four of the ratio too: no head table, the cap
    looked up.
    """
    _check_x(x)
    _check_target(target)
    _refuse_bool("argument error", x_abs_err)
    if not x_abs_err >= 0.0:
        raise DomainError(f"argument error {x_abs_err} is not a nonnegative bound")
    params = spec.tail_majorant
    if params is None:
        sigma = spec.c - spec.a - spec.b
        if x == 1.0 and sigma <= 0:
            raise Divergent(f"series diverges at x = 1 for c - a - b = {sigma}")
        raise DomainError(
            f"{spec} is outside the certified class a = b, c > 0, c - 2a > 0, (a-1)(c-a) <= 0"
        )
    return _flagged(*_eval_family(_Kernel(params), x, target, x_abs_err), target)


class _Kernel(NamedTuple):
    """A series' record for the family kernel: its ``tail_majorant``
    parameters (a, c, s, m0), the first row of its head table
    (``_head_table``) and its ``_family_derivative_cap``; a series with no
    table has row None, and cap None, which the kernel then looks up."""

    params: tuple
    row: tuple | None = None
    cap: tuple | None = None


def _eval_family(kernel: _Kernel, x, target, x_abs_err):
    """The (value, bound) pair of the series of the record ``kernel`` at x in
    [0, 1], the arguments unchecked."""
    # Tail: with t_m the first unsummed term and m + a > 0, the ratio
    # majorant gives t_k <= t_m x^(k-m) P_k, P_k = prod_{j=m}^{k-1}
    # (j+a)/(j+a+s+1) <= 1.  So the tail is at most t_m/(1-x), and since
    # sum_{k>=m} G(k+a)/G(k+a+s+1) = G(m+a)/(s G(m+a+s)) telescopes (G the
    # Gamma function), at most t_m (m+a+s)/s, finite at x = 1.  The tail
    # bound falls strictly and the rounding bound grows, so the loop stops
    # once their sum rises and returns the previous, best, sum.  At step
    # ``stop``, first after _HEAD checked steps and then every _BLOCK, the
    # loop lets ``_sum_blocks`` take the whole blocks of steps that it proves
    # stop nowhere, bit for bit as the loop would; the rest the loop takes.
    # The step counter n is a float holding an integer: n < _MAX_TERMS < 2^53,
    # so n, n + 1, a + n and c + n are exactly the floats an int n gives, and
    # float-by-float arithmetic is the interpreter's fast path.
    params, row, known_cap = kernel
    a, c, s, m0 = params
    inv_gap = 1.0 / (1.0 - x) if x < 1.0 else math.inf
    total = 1.0
    t = 1.0
    for n in range(m0 - 1):  # terms before the majorant applies
        t *= (a + n) * (a + n) / ((c + n) * (n + 1)) * x
        total += t
    n = float(m0 - 1)
    a_s = a + s
    err_prev = math.inf
    total_prev = total
    stop = float(min(m0 + _HEAD, _MAX_TERMS))
    while True:
        # the step's factors free of x, (a+n)^2, (c+n)(n+1), (n+1+a+s)/s and
        # 3 EPS (n+1): computed, or read with the same bits from the record's
        # head-table row, which also holds n + 1 and the next row.  Each branch
        # forms the term and the error itself, as naming the computed factors
        # would slow a series with no table
        if row is None:
            an = a + n
            m = n + 1.0
            t_next = t * (an * an) / ((c + n) * m) * x
            k = (m + a_s) / s
            err = t_next * (k if k < inv_gap else inv_gap) + _THREE_EPS * m * total
        else:
            square, product, k, rounding, m, row = row
            t_next = t * square / product * x
            err = t_next * (k if k < inv_gap else inv_gap) + rounding * total
        if err <= target or t_next == 0.0 or m >= stop:
            if err <= target or t_next == 0.0 or m >= _MAX_TERMS:
                break
            blocks = _sum_blocks(params, x, target, inv_gap, n, t, total)
            if blocks:  # go on from their end
                n, t, total, total_prev, err_prev = blocks
                m = n + 1.0
                stop = min(m + _BLOCK, _MAX_TERMS)
                continue
            stop = min(m + _BLOCK, _MAX_TERMS)
        if err > err_prev:
            total, err = total_prev, err_prev
            break
        total_prev, err_prev = total, err
        total += t_next
        t = t_next
        n = m
    if x_abs_err > 0.0:
        # the true argument lies in [x - e, x + e] and in [0, 1], where F is
        # increasing and convex: |F(true) - F(x)| <= e F'(min(x + e, 1)),
        # and at most F(1) - F(0) in any case.  A cap of 0 is a constant F,
        # which the argument cannot move, even by e = inf
        head, coef, limit, f_range = known_cap or _family_derivative_cap(*params)
        gap = 1.0 - x - x_abs_err
        cap = head + coef * (min(limit, 1.0 / gap) if gap > 0.0 else limit)
        if cap > 0.0:
            err += min(x_abs_err * cap, f_range)
    return total, err + _TWO_EPS * abs(total)


def _sum_blocks(params, x, target, inv_gap, n, t, total):
    """The state (n, t, total, total_prev, err_prev) of ``_eval_family``'s
    loop after the whole blocks of _BLOCK steps from n + 1 that provably
    stop nowhere, the first block that fails its test excluded; None when
    there is no such block.

    A block runs steps m1 = n + 1 through m2 = n + _BLOCK, forming only the
    terms and the running sum S, by the loop's float operations in its order
    and on its float counter.  Then one test at m2 shows that no step m1..m2
    would have stopped the loop:
    - tail(m+1) <= q_m tail(m) for q_m = x (m+a)/(m+a+s), rising in m: the
      majorant, as k grows by (m+a+s+1)/(m+a+s), within 10 EPS of rounding.
      The rounding bound 3 EPS m S_(m-1) grows by 3 EPS (S_m + m t_m) a
      step, at most 3 EPS (S_m2 + m2 t) for t the term before the block, as
      the terms fall.  So where tail(m2) (1 - q_m2 - 32 EPS) exceeds that by
      a factor 1 + 2^-20, which covers the roundings of both sides, the
      error falls at every step from m1 - 1 to m2: no best-bound stop, and
      every tail(m) in the block is at least tail(m2).
    - The rounding bound never falls, so where also tail(m2) + 3 EPS m1
      S_(m1-1) > target, no step meets the target.
    - Once a term is 0 so is every later one, so t_m2 != 0 rules out a 0
      term, and m2 < _MAX_TERMS keeps the cap out of the block.
    So the state after an accepted block is the loop's own, bit for bit; a
    block that fails is left to the loop.  A block is not tried where, with
    every term ratio at the one in its middle, its end would meet the
    target: the stop is then most likely inside it.
    """
    a, c, s, _ = params
    a_s = a + s
    state = None
    while n + _BLOCK < _MAX_TERMS:
        m2 = n + _BLOCK
        k = (m2 + a_s) / s
        k = k if k < inv_gap else inv_gap
        rounding = _THREE_EPS * (n + 1) * total
        mid = m2 - _BLOCK // 2
        if t * ((mid + a) * (mid + a) / ((mid + c) * (mid + 1)) * x) ** _BLOCK * k + rounding <= target:
            break
        u, sum_u, f = t, total, n
        for _ in range(_BLOCK - 1):
            af = a + f
            f1 = f + 1.0
            u = u * (af * af) / ((c + f) * f1) * x
            sum_u += u
            f = f1
        af = a + f
        u = u * (af * af) / ((c + f) * (f + 1.0)) * x
        tail = u * k
        decay = ((m2 + a) * (1.0 - x) + s) / (m2 + a_s) - 32.0 * EPS  # 1 - q_m2 - 32 EPS
        if not (u != 0.0 and tail + rounding > target
                and tail * decay > _THREE_EPS * (sum_u + u + m2 * t) * (1.0 + 2.0 ** -20)):
            break
        n, t, total = m2, u, sum_u + u
        state = n, t, total, sum_u, tail + _THREE_EPS * m2 * sum_u
    return state


def _head_table(params) -> tuple:
    """The first row of the head table of the series with ``tail_majorant``
    params: the x-free factors of the family kernel's checked steps n =
    m0 - 1 .. m0 - 1 + _HEAD, up to its first block try.  Each row is
    ((a+n)^2, (c+n)(n+1), (n+1+a+s)/s, 3 EPS (n+1), n+1, next row), the
    last row's next None, each factor formed by the float operations of
    ``_eval_family`` on the same float operands, so it has the bits of the
    inline expression."""
    a, c, s, m0 = params
    a_s = a + s
    row = None
    for n in map(float, range(m0 - 1 + _HEAD, m0 - 2, -1)):
        an = a + n
        m = n + 1.0
        row = (an * an, (c + n) * m, (m + a_s) / s, _THREE_EPS * m, m, row)
    return row


def _tabled(spec: HypergeometricSpec) -> _Kernel:
    """The record of one of the series of the ratio and its derivative, with
    its head table and its cap, built at import."""
    params = spec.tail_majorant
    return _Kernel(params, _head_table(params), _family_derivative_cap(*params))


# the records of the four series, which the evaluators hand to ``_eval_family``
_AREA, _VOLUME, _AREA_SLOPE, _VOLUME_SLOPE = map(
    _tabled, (SPEC_AREA, SPEC_VOLUME, _SPEC_AREA_SLOPE, _SPEC_VOLUME_SLOPE))
_HALF, _THREE_HALVES = rat(1, 2), rat(3, 2)


def _pow_one_plus_x(p: float, x: float, x_abs_err: float) -> tuple:
    """(1+x)^p as a pair, for x in [0, 1] known to within x_abs_err."""
    v = (1.0 + x) ** p
    # pow() plus the float(p) conversion: a few ulps of relative slop, plus
    # sensitivity to the argument rounding through d/dx (1+x)^p.
    rel = _EIGHT_EPS + math.log1p(x) * EPS * abs(p)
    return v, v * rel + abs(p) * v / (1.0 + x) * x_abs_err


def _w_kernel(a) -> _Kernel | None:
    """The kernel record of 2F1(-a,-a;1;x) in w_a, or None where w_a = 1
    (a = 0, 1), once a is checked.  At a = 1/2 and 3/2 that series is
    SPEC_AREA's or SPEC_VOLUME's, and the record the module's own, so no spec
    is built."""
    _refuse_bool("w_a's parameter", a)
    try:
        a = Rational(a)
    except (ValueError, OverflowError):  # a NaN or an infinity has no ratio
        raise DomainError(f"w_a needs a finite rational a, not {a!r}") from None
    if a <= rat(-1, 2):  # 2F1(-a,-a;1) has c - 2(-a) = 1 + 2a > 0 only above
        raise DomainError(f"w_a is certified for a > -1/2, not a = {a}")
    # the kernel sums floor(a) terms before its tail bound applies, and the
    # series, of nonnegative terms, is largest at x = 1: Gamma(1+2a)/Gamma(1+a)^2
    if math.floor(a) > _MAX_TERMS or (
            math.lgamma(1 + 2 * float(a)) - 2 * math.lgamma(1 + float(a)) > _W_LOG_MAX):
        raise DomainError(f"w_a is certified for a below about 513.94, where 2F1(-a,-a;1;1) stays "
                          f"in the float range, not a = {a}")
    if a == _HALF:
        return _AREA
    if a == _THREE_HALVES:
        return _VOLUME
    return None if a == 0 or a == 1 else _Kernel(HypergeometricSpec(-a, -a, rat(1)).tail_majorant)


def _w(kernel: _Kernel | None, x: float, target: float) -> tuple:
    """w_a(x) as a pair, from the record ``_w_kernel(a)``, built once per a."""
    if kernel is None:
        return 1.0, 0.0
    f, fb = _eval_family(kernel, x, target, 0.0)
    # a = -params[0], the spec's a as a float: float() of a Fraction is slow
    p, pb = _pow_one_plus_x(-kernel.params[0], x, 0.0)
    return _div(f, fb, p, pb)


def eval_w(a, x: float, target: float = 1e-10) -> CertifiedValue:
    """w_a(x) = 2F1(-a,-a;1;x) / (1+x)^a with a certified bound, for
    -1/2 < a < 513.94 (about): a DomainError from the a where the series at
    x = 1, Gamma(1+2a)/Gamma(1+a)^2, passes 1/e of the largest float.  That
    also keeps the floor(a) terms the kernel sums before its tail bound
    applies far under ``_MAX_TERMS``."""
    kernel = _w_kernel(a)
    _check_x(x)
    _check_target(target)
    return _flagged(*_w(kernel, x, target), target)


def _h(f1: tuple, f2: tuple, x: float, x_abs_err: float) -> tuple:
    """h = F2^2/F1^3 (1+x)^(-3/2) = w_{3/2}^2/w_{1/2}^3 as a pair, from the
    pairs F1 = 2F1(-1/2,-1/2;1;x) and F2 = 2F1(-3/2,-3/2;1;x) at an argument
    known to within x_abs_err."""
    f1v, f1b = f1
    f2v, f2b = f2
    num, num_b = _mul(f2v, f2b, f2v, f2b)
    den, den_b = _mul(f1v, f1b, f1v, f1b)
    den, den_b = _mul(den, den_b, f1v, f1b)
    q, qb = _div(num, num_b, den, den_b)
    p, pb = _pow_one_plus_x(1.5, x, x_abs_err)
    return _div(q, qb, p, pb)


def _h_from_x(x: float, target: float) -> tuple:
    """h(x) as a pair, from the kernel at x in [0, 1]."""
    # h moves with F1, F2 by 3h/F1 < 5.93, 2h/F2 < 3.95 (F >= 1, and h = iso^2/K
    # <= 1/K by the isoperimetric inequality): the bound stays under 0.99 target
    f1 = _eval_family(_AREA, x, target / 8.0 or _TINY, 0.0)
    f2 = _eval_family(_VOLUME, x, target / 16.0 or _TINY, 0.0)
    return _h(f1, f2, x, 0.0)


def eval_h(x: float, target: float = 1e-10) -> CertifiedValue:
    """h(x) = 2F1(-3/2,-3/2;1;x)^2 / 2F1(-1/2,-1/2;1;x)^3 * (1+x)^(-3/2)."""
    _check_x(x)
    _check_target(target)
    return _flagged(*_h_from_x(x, target), target)


# --------------------------------------------------------------------------
# The ratio function: closed-form path, direct-definition path, derivative
# --------------------------------------------------------------------------

def _check_domain(z: float):
    _refuse_bool("z", z)
    if not (0.0 <= z < Z_MAX):
        raise DomainError(f"z = {z} outside [0, {Z_MAX})")


def _x_of_t(t: float) -> tuple:
    """(x, x_abs_err, dx/dt) for x = 4t/(1-t)^2, with x clamped to 1.

    x rounds in <= ~5 operations with no cancellation (t <= 0.18), plus the
    sensitivity to the rounding of t = z^2, EPS t, through dx/dt = 4(1+t)/(1-t)^3.
    """
    one_minus = 1.0 - t
    x = 4.0 * t / (one_minus * one_minus)
    dx_dt = 4.0 * (1.0 + t) / one_minus ** 3
    x_err = _EIGHT_EPS * x + dx_dt * (EPS * t)
    return min(x, 1.0), x_err, dx_dt


def _iso_squared_from_t(t: float, target: float) -> tuple:
    """Closed form iso^2 = K h(x) as a function of t = z^2: its pair."""
    x, x_err, _ = _x_of_t(t)
    share = target / 4.0 or _TINY
    f1 = _eval_family(_AREA, x, share, x_err)
    f2 = _eval_family(_VOLUME, x, share, x_err)
    h, hb = _h(f1, f2, x, x_err)
    return _mul(h, hb, _K_RATIO, _K_RATIO_BOUND)


def iso_squared(z: float, target: float = 1e-10) -> CertifiedValue:
    """iso(z)^2 via the hypergeometric closed form."""
    _check_domain(z)
    _check_target(target)
    return _flagged(*_iso_squared_from_t(z * z, target), target)


def _iso_pair(z: float, target: float) -> tuple:
    """iso(z) as a pair, the arguments unchecked: ``iso``'s own evaluation,
    which the solver makes at each of its points.  Every float z below Z_MAX
    is in its domain, the six whose square rounds up to T_MAX too."""
    return _pow(*_iso_squared_from_t(z * z, target), 0.5)


def iso(z: float, target: float = 1e-10) -> CertifiedValue:
    """The isoperimetric ratio of the torus with parameter z, certified."""
    _check_domain(z)
    _check_target(target)
    return _flagged(*_iso_pair(z, target), target)


def _iso_from_t(t: float, target: float = 1e-10) -> tuple:
    """iso as a function of t = z^2, as a pair: the scans' iso."""
    if not (0.0 <= t < T_MAX):
        raise DomainError(f"t = {t} outside [0, {T_MAX})")
    sq, sq_b = _iso_squared_from_t(t, target)
    return _pow(sq, sq_b, 0.5)


@lru_cache(maxsize=None)
def _direct_series(order: int):
    """Area and volume tables for the direct path, plus a geometric tail
    ratio for the powers past the order.

    Abar and Vbar are the power-series solutions of the printed operators
    ``ABAR_OPERATOR`` and ``VBAR_OPERATOR`` with constant terms 4 and 2,
    generated by their coefficient recurrences through ``order`` + 10; no
    hypergeometric closed form is used, so the direct path checks it.  The
    recurrence's integers are read unreduced, as every table is a function
    of the rational coefficients c_n alone.

    Returns (abar, vbar, ratio_cap), each series as (floors, ratios): floors
    the floor(c_n 2^P) for n = ``order`` + 1 down to 0, ratios the
    r_n = c_(n+1)/c_n for n = 0..``order`` + 1, each as the float above its
    correctly rounded value, so at least r_n.  Every c_n through the order is
    checked positive, and the r_n positive and strictly falling over the
    whole range 0..``order`` + 9 (``_falling_ratios``).  The cap is 1.05
    times r_(order-1); that it bounds the ratios past ``order`` + 9 is not
    proved.
    """
    extra = 10
    parts = []
    caps = []
    for op, constant in ((ABAR_OPERATOR, 4), (VBAR_OPERATOR, 2)):
        series = op.series_solution(constant, order + extra)
        nums, den = series._nums, series._den
        if any(c <= 0 for c in nums[: order + 1]):
            raise BoundNotAchieved("a coefficient through the order is not positive")
        ratios = _falling_ratios(nums)
        caps.append(ratios[order - 1] * _CAP_CUSHION)
        floors = tuple((c << _P) // den for c in nums[order + 1::-1])
        parts.append((floors, tuple(math.nextafter(r, math.inf) for r in ratios[: order + 2])))
    return parts[0], parts[1], max(caps)


def _falling_ratios(nums) -> list:
    """The ratios nums[n+1]/nums[n], each correctly rounded to a float, once
    they are checked positive and strictly falling; BoundNotAchieved if not.

    Int-by-int division rounds correctly, so a rounded ratio lies within half
    an ulp of the exact one: when the float above the next rounded ratio is
    at or below the float below this one, the exact ratios fall.  Where the
    two are closer the test is exact, nums[n+2] nums[n] < nums[n+1]^2.  The
    numerators run to thousands of bits, so the exact products are left to
    the pairs that need them."""
    if any(c <= 0 for c in nums):
        raise BoundNotAchieved("coefficient ratios not positive-decreasing")
    ratios = [b / a for a, b in zip(nums, nums[1:])]
    for n in range(len(ratios) - 1):
        if not (math.nextafter(ratios[n + 1], math.inf) <= math.nextafter(ratios[n], -math.inf)
                or nums[n + 2] * nums[n] < nums[n + 1] ** 2):
            raise BoundNotAchieved("coefficient ratios not positive-decreasing")
    return ratios


def _horner_enclosure(floors, u: int, v: int) -> tuple:
    """(lo, hi) with lo <= 2^P S < hi for S = sum_n c_n t^n at t = u/v, v a
    power of two as for every float z, 0 <= t < 1/3, from the floor(c_n 2^P),
    highest power first: Horner's rule on integers, rounding down.

    As v = 2^s, lo_k t is formed exactly and floored, so each step
    lo_(k+1) = floor(lo_k t) + floor(c 2^P) rounds down twice, by less than a
    unit each.  With e_k = 2^P S_k - lo_k for the exact partial Horner values
    S_k, e_1 < 1 (its product is 0) and e_(k+1) < e_k t + 2, so every e_k
    lies in [0, 2/(1 - t)), below 3 for t < 1/3 (T_MAX < 0.172).  The bound
    needs no sign of the coefficients."""
    s = v.bit_length() - 1
    lo = 0
    for c in floors:
        lo = ((lo * u) >> s) + c
    return lo, lo + 3


def _power_above(u: int, e: int) -> tuple:
    """(w, shift) with u^e <= w 2^shift and w below 2^(2P + 1): u^e by
    squaring, cut back to 2P bits and rounded up after each product.

    A cut by j bits replaces w by floor(w/2^j) + 1 >= w/2^j and adds j to
    the shift, so w 2^shift never falls below the exact partial power, and
    squaring and multiplying by u keep that order."""
    w, shift = 1, 0
    for bit in bin(e)[2:]:
        w, shift = w * w, 2 * shift
        if bit == "1":
            w *= u
        cut = w.bit_length() - 2 * _P
        if cut > 0:
            w, shift = (w >> cut) + 1, shift + cut
    return w, shift


def _partial_sums(parts, u: int, v: int, ratio_cap: float) -> tuple:
    """(m, sums): the ``_direct_series`` parts at t = u/v, t ratio_cap < 1,
    summed through the power m, each as (lo, hi, rest) with
    lo <= 2^P sum_(n<=m) c_n t^n < hi (``_horner_enclosure``) and
    sum_(n>m) c_n t^n <= rest.

    With q = t max(r_(m+1), ratio_cap), the rest is at most
    c_(m+1) t^(m+1)/(1 - q): through ``order`` + 9 the ratios are proved to
    fall from r_(m+1), and past it they are capped, unproved.  The next term
    is formed from floor(c_(m+1) 2^P) + 1 and w 2^shift >= u^(m+1)
    (``_power_above``, 2P bits rounded up, where the exact power runs to
    thousands of bits), so the integer quotient is at least the exact term;
    it is rounded once to nearest, as its coefficient alone can overflow
    float while the product is tiny, and ``iso_direct`` pads the half ulp it
    can lose and the underflow to 0 below 2^-1074.

    m is the least power in 0..order past which both rests fall below
    2^-(P+8), or the order.  The terms c_n t^n rise, then fall, as the ratios
    fall, and q falls as m grows, so those powers are all the powers past
    some m, which bisection finds in O(log order) steps.  The float logs it
    compares only choose m.
    """
    order = len(parts[0][0]) - 2
    s = v.bit_length() - 1
    t = u / v
    log_t = math.log2(u) - s if u else -math.inf

    def rest_ratio(ratios, m):
        return t * max(ratios[m + 1], ratio_cap)

    def negligible(m):
        # log2 of c_(m+1) 2^P t^(m+1)/(1 - q) below -8, for both series
        for floors, ratios in parts:
            q = rest_ratio(ratios, m)
            if not (q < 1.0 and math.log2(floors[-2 - m] + 1) + (m + 1) * log_t
                    - math.log2(1.0 - q) < -8):
                return False
        return True

    low, m = 0, order
    while low < m:
        mid = (low + m) // 2
        if negligible(mid):
            m = mid
        else:
            low = mid + 1
    head, shift = _power_above(u, m + 1)
    scale = 1 << _P + s * (m + 1) - shift
    return m, tuple(
        (*_horner_enclosure(floors[-1 - m:], u, v),
         (floors[-2 - m] + 1) * head / scale / (1.0 - rest_ratio(ratios, m)))
        for floors, ratios in parts)


def iso_direct(z: float, order: int = 240) -> CertifiedValue:
    """Direct-definition evaluation from the area and volume series of the
    printed operators; cross-validation path for the closed form.  ``order``
    is the last power the data reach, an integer >= 1.  Both series are
    summed through the least power past which their rests fall below
    2^-(P+8), or through ``order``, and each rest joins the bound
    (``_partial_sums``).  The rest is proved up to the power ``order`` + 10;
    past it, it rests on an unproved ratio cap (``_direct_series``).  Each
    partial sum is enclosed at 2^-P (``_horner_enclosure``): the midpoint is
    rounded once, and the width joins the bound."""
    _check_domain(z)
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise DomainError(f"order {order!r} is not an integer >= 1")
    # t = z^2 = u/v exactly, with v = 4^e as z is a float
    u, v = (n * n for n in float(z).as_integer_ratio())
    ab, vb, ratio_cap = _direct_series(order)
    t = u / v
    q = t * ratio_cap
    if q >= 1.0:
        # the ratios fall towards 1/T_MAX, the inverse radius of both series
        # in t, so no order brings the cap below 1 once 1.05 t >= T_MAX
        reach = math.sqrt(T_MAX / _CAP_CUSHION)
        advice = "raise the order" if _CAP_CUSHION * t < T_MAX else (
            f"no order helps: the direct path's tail cap reaches only z < {reach:.4f}")
        raise BoundNotAchieved(f"tail ratio {q:.3f} >= 1 at z = {z}; {advice}")

    def enclose(lo, hi, rest):  # the pair of a partial sum and its rest
        val = (lo + hi) / (2 << _P)
        width = (hi - lo) / (1 << _P)
        return val + rest / 2.0, rest / 2.0 + _TWO_EPS * abs(val) + _TWO_EPS * abs(rest) + width

    _, (a_sum, v_sum) = _partial_sums((ab, vb), u, v, ratio_cap)
    area, area_b = _pow(*enclose(*a_sum), 1.5)
    out, out_b = _div(*enclose(*v_sum), area, area_b)
    return CertifiedValue(*_mul(out, out_b, _C_DIRECT, _C_DIRECT_BOUND))


def iso_derivative(z: float, target: float = 1e-10) -> CertifiedValue:
    """d(iso)/dz = d iso/dx dx/dz, certified; flagged whenever its bound
    exceeds ``target``.

    From iso^2 = K w_{3/2}^2 / w_{1/2}^3 with x = 4t/(1-t)^2, t = z^2:
    d iso/dx = iso (w_{3/2}'/w_{3/2} - (3/2) w_{1/2}'/w_{1/2}), where
    w_a'/w_a = a^2 G/F - a/(1+x) for F = 2F1(-a,-a;1;x) and
    G = 2F1(1-a,1-a;2;x), as F' = a^2 G (DLMF 15.5.1).
    """
    _check_domain(z)
    _check_target(target)
    if z == 0.0:
        # even function of z: the derivative vanishes identically at 0
        return CertifiedValue(0.0, 0.0)
    t = z * z
    x, x_err, dx_dt = _x_of_t(t)
    # 1/32 of the target per series: the assembled bound then stays within
    # the target wherever the series reach theirs
    share = target / 32.0 or _TINY
    f1 = _eval_family(_AREA, x, share, x_err)
    f2 = _eval_family(_VOLUME, x, share, x_err)
    g1 = _eval_family(_AREA_SLOPE, x, share, x_err)
    g2 = _eval_family(_VOLUME_SLOPE, x, share, x_err)
    h, hb = _h(f1, f2, x, x_err)
    sq, sq_b = _mul(h, hb, _K_RATIO, _K_RATIO_BOUND)
    iso_v, iso_b = _pow(sq, sq_b, 0.5)
    # w_{3/2}'/w_{3/2} - (3/2) w_{1/2}'/w_{1/2} = 9/4 G2/F2 - 3/8 G1/F1 - 3/4 /(1+x)
    x1 = 1.0 + x
    r2, r2_b = _scale(*_div(*g2, *f2), 2.25)
    r1, r1_b = _scale(*_div(*g1, *f1), 0.375)
    slope, slope_b = _sub(r2, r2_b, r1, r1_b)
    slope, slope_b = _sub(slope, slope_b, *_div(0.75, 0.0, x1, x_err + _TWO_EPS * abs(x1)))
    # dx/dz = 2z dx/dt: a few roundings, plus its sensitivity to the
    # rounding of t, d(dx/dt)/dt = dx/dt (1/(1+t) + 3/(1-t)).  For z below
    # about 1e-308 dx/dz and the derivative are subnormal, where a rounding
    # errs by up to half of _TINY and the relative pads underflow: each
    # of the two gets _TINY more
    dx_dz = 2.0 * z * dx_dt
    dx_dz_err = dx_dz * (_EIGHT_EPS + (1.0 / (1.0 + t) + 3.0 / (1.0 - t)) * EPS * t) + _TINY
    d, db = _mul(iso_v, iso_b, slope, slope_b)
    w, wb = _mul(d, db, dx_dz, dx_dz_err)
    return _flagged(w, wb + _TINY, target)


# --------------------------------------------------------------------------
# Certified scans
# --------------------------------------------------------------------------

@dataclass
class ScanReport:
    """Outcome of a certified grid scan.

    rows: (grid point, value, bound, verdict) per point; the verdict at index
    i describes the pair (i-1, i) for monotonicity scans and the centered
    second difference at i for convexity scans.  witnesses: the grid points
    of the violations, or for a sign-change scan the first point of each sign.
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


def _classify(name: str, pts: list, values: list, diffs: list, expect: str) -> ScanReport:
    """Judge the difference tested at each grid point by its enclosure (lo, hi).

    ``values`` holds the (value, bound) pair evaluated at each grid point.

    ``diffs[j]`` belongs to grid point j + 1; points without one get no
    verdict.  An enclosure's sign is positive (lo > 0), negative (hi < 0) or
    zero (it holds 0).  ``expect`` is the sign every difference should have,
    or "change" when both strict signs must occur.  A matching sign is "ok";
    a zero sign against any other expectation is "inconclusive", never a
    violation; a change scan reports the strict signs themselves.
    """
    verdicts = [""] * len(pts)
    for i, (lo, hi) in enumerate(diffs, start=1):
        sign = "positive" if lo > 0.0 else "negative" if hi < 0.0 else "zero"
        if sign == expect:
            verdicts[i] = "ok"
        elif sign == "zero":
            verdicts[i] = "inconclusive"
        else:
            verdicts[i] = sign if expect == "change" else "violation"
    rows = [(z, v, b, verdict) for z, (v, b), verdict in zip(pts, values, verdicts)]
    witnesses = [z for z, verdict in zip(pts, verdicts) if verdict == "violation"]
    report = ScanReport(
        name, len(pts), verdicts.count("violation"), verdicts.count("inconclusive"), witnesses, rows
    )
    if expect == "change":
        report.witnesses = [pts[verdicts.index(s)] for s in ("positive", "negative") if s in verdicts]
        report.sign_change_detected = len(report.witnesses) == 2
    return report


def _check_grid(grid, least: int):
    """Refuse a grid that is not an int of at least ``least`` points."""
    if not isinstance(grid, int) or isinstance(grid, bool) or grid < least:
        raise ValueError(f"grid must be an int of at least {least} points, not {grid!r}")


def scan_monotonicity(target: str, grid: int = 1000, a=None) -> ScanReport:
    """Certified monotonicity scan of iso, w_a, or h over their domains.

    A consecutive pair counts as conclusive only when the certified intervals
    are disjoint; overlapping intervals are reported as inconclusive, never as
    violations.  Each grid point is evaluated as a (value, bound) pair.
    """
    _check_grid(grid, 2)
    if target == "iso":
        pts = _grid(0.0, Z_MAX - 1e-4, grid)
        values = [_iso_from_t(z * z, 1e-10) for z in pts]
        expect = "positive"
        name = "mono-iso"
    elif target == "w":
        if a is None:
            raise ValueError("w scan needs the parameter a")
        kernel = _w_kernel(a)  # None where w_a is constant
        a = Rational(a)
        pts = _grid(0.0, 1.0, grid)
        values = [_w(kernel, x, 1e-9) for x in pts]
        expect = "zero" if kernel is None else "negative" if 0 < a < 1 else "positive"
        name = f"mono-w[{a}]"
    elif target == "h":
        pts = _grid(0.0, 1.0, grid)
        values = [_h_from_x(x, 1e-9) for x in pts]
        expect = "positive"
        name = "mono-h"
    else:
        raise ValueError(f"unknown monotonicity target {target!r}")
    # the enclosure of cur - prev: its sign test is the disjointness test
    ends = [(v - b, v + b) for v, b in values]
    diffs = [(lo - prev_hi, hi - prev_lo) for (prev_lo, prev_hi), (lo, hi) in zip(ends, ends[1:])]
    return _classify(name, pts, values, diffs, expect)


def _second_difference(u: tuple, v: tuple, w: tuple) -> tuple:
    """Enclosure (lo, hi) of the centered second difference w - 2v + u of
    three (value, bound) pairs."""
    (uv, ub), (vv, vb), (wv, wb) = u, v, w
    d2 = wv - 2.0 * vv + uv
    b = wb + 2.0 * vb + ub + _EIGHT_EPS * (abs(vv) + abs(d2))
    return d2 - b, d2 + b


def scan_convexity(which: str, grid: int = 300) -> ScanReport:
    """Certified second-difference scan, its report named by the CLI target.

    iso_sqrt expects concavity, inv_iso_sqrt convexity (all conclusive second
    differences of the matching sign); iso expects a detected sign change,
    with the witness grid points recorded.
    """
    _check_grid(grid, 3)
    if which in ("iso_sqrt", "inv_iso_sqrt"):
        pts = _grid(0.0, T_MAX - 1e-4, grid)
        values = [_iso_from_t(t, 1e-10) for t in pts]
        if which == "inv_iso_sqrt":
            values = [_div(1.0, 0.0, v, b) for v, b in values]
            expect = "positive"
        else:
            expect = "negative"
        name = "convex-" + which.replace("_", "-")
    elif which == "iso":
        pts = _grid(0.0, Z_MAX - 1e-4, grid)
        values = [_iso_from_t(z * z, 1e-10) for z in pts]
        expect = "change"
        name = "nonconvex-iso"
    else:
        raise ValueError(f"unknown convexity target {which!r}")
    diffs = [_second_difference(*triple) for triple in zip(values, values[1:], values[2:])]
    return _classify(name, pts, values, diffs, expect)
