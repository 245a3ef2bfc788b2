"""Exact contiguity reduction: identities between Gauss 2F1 functions for
every value of their parameters, at every order.  A function is
g·(R0·F + R1·F') over a base F = 2F1(α, β; γ; x), R0 and R1 rational in the
parameters and x, g = (1-x)^λ or 1; contiguous 2F1s reduce to it by step
rules, F'' by the hypergeometric equation, and an identity holds when both
coefficients of the difference of its sides vanish.  Every rule is an axiom
checked termwise on t_n = (α)_n (β)_n / ((γ)_n n!), n symbolic.  The
axioms depend on no input: inside one ``run`` scope (``identities.verify_all``
enters one) each is checked at most once, and every later ``failed_axioms``
call of the run reads its stored outcome; outside a scope each call checks
its axioms again.
``Poly.at`` and ``Rat.at`` put a rational function in for x: the flux proof
of ``identities`` reads its reductions at x = 4z/(1-z)^2, with x then read
as z.  See
Vidunas, arXiv:math/0109222, and Petkovšek, Wilf & Zeilberger, *A=B*.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from fractions import Fraction
from functools import partial

_X = 24  # the shift of x's exponent: a, b, c, x and n take 8 bits each


class Poly(dict):
    """A polynomial in a, b, c, x, n: {exponents packed 8 bits apiece:
    nonzero int}, never changed once built, so products may share one."""

    def __add__(self, other) -> "Poly":
        out = Poly(self)
        for e, v in _poly(other).items():
            out[e] = out.get(e, 0) + v
            if not out[e]:
                del out[e]
        return out

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({e: -v for e, v in self.items()})

    def __sub__(self, other) -> "Poly":
        return self + -_poly(other)

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __mul__(self, other) -> "Poly":
        other = _poly(other)
        if other == _ONE or self == _ONE:
            return other if self == _ONE else self
        out, right = {}, list(other.items())
        get = out.get
        for e1, v1 in self.items():
            for e2, v2 in right:
                e = e1 + e2
                out[e] = get(e, 0) + v1 * v2
        return Poly({e: v for e, v in out.items() if v})

    __rmul__ = __mul__

    def dx(self) -> "Poly":
        return Poly({e - (1 << _X): v * (e >> _X & 255) for e, v in self.items() if e >> _X & 255})

    def at(self, value: "Rat") -> "Rat":
        """self with x replaced by value, by Horner's rule in x."""
        by_power = {}
        for e, v in self.items():
            by_power.setdefault(e >> _X & 255, Poly())[e & ~(255 << _X)] = v
        out = Rat(0)
        for k in range(max(by_power, default=0), -1, -1):
            out = out * value + Rat(by_power.get(k, 0))
        return out

    def quotient(self, f: "Poly") -> "Poly | None":
        """self / f where f, a polynomial in x alone, divides self; else
        None.  Long division on the terms of highest degree in x."""
        fx = {e >> _X: v for e, v in f.items()}
        m = max(fx)
        lead = fx.pop(m)
        rest, out = dict(self), Poly()
        while rest:
            e = max(rest, key=lambda t: t >> _X & 255)
            if e >> _X & 255 < m:
                return None
            v = rest.pop(e)
            c = v // lead if type(v) is int and v % lead == 0 else Fraction(v) / lead
            out[e - (m << _X)] = c
            for k, w in fx.items():
                t = e - (m - k << _X)
                if rest.setdefault(t, 0) == c * w:
                    del rest[t]
                else:
                    rest[t] -= c * w
        return out

    def __str__(self) -> str:
        text = ""
        for e, v in sorted(self.items(), reverse=True):
            mono = "*".join(s + (f"^{k}" if k > 1 else "") for i, s in enumerate("abcxn")
                            if (k := e >> 8 * i & 255))
            body = mono if abs(v) == 1 and mono else "*".join(filter(None, (str(abs(v)), mono)))
            text += (" - " if v < 0 else " + ") + body if text else ("-" if v < 0 else "") + body
        return text or "0"


def _poly(value) -> Poly:
    return value if isinstance(value, Poly) else Poly({0: value} if value else {})


_ONE = Poly({0: 1})


def _product(factors) -> Poly:
    """The product of the polynomials ``factors``, 1 for none: one
    ``Poly.__mul__`` per factor after the first."""
    out = None
    for f in factors:
        out = _poly(f) if out is None else out * f
    return _ONE if out is None else out


def in_x(coefficients) -> Poly:
    """The polynomial Σ c_k x^k of the rational coefficients (c_0, c_1, ...),
    each integral one as an int."""
    return Poly({k << _X: c.numerator if c.denominator == 1 else c for k, c in enumerate(coefficients) if c})


A, B, C, X, N = (Poly({1 << 8 * i: 1}) for i in range(5))


class Rat:
    """num / Π f^e over the factors {key: (f, e)}, never reduced: a sum
    takes each factor to the larger of its two powers, and a derivative
    raises each factor in x by one, so no gcd is taken."""

    def __init__(self, num, *dens, factors=None):
        self.num, self.factors = _poly(num), dict(factors or {})
        for den in map(_poly, dens):
            if not den:
                raise ZeroDivisionError(f"{self.num} / 0")
            if den != _ONE:
                key = frozenset(den.items())
                self.factors[key] = (den, self.factors.get(key, (den, 0))[1] + 1)

    def _over(self, factors) -> Poly:
        """num over the denominator of ``factors``, which holds self's: the
        factors self lacks are multiplied together first, and num by their
        product once, or not at all where self lacks none."""
        missing = [f for k, (f, e) in factors.items() for _ in range(e - self.factors.get(k, (f, 0))[1])]
        return self.num * _product(missing) if missing else self.num

    def __add__(self, other: "Rat") -> "Rat":
        if not (self.num and other.num):
            return other if self.num == {} else self
        factors = {**self.factors}
        for k, (f, e) in other.factors.items():
            factors[k] = (f, max(e, factors.get(k, (f, 0))[1]))
        return Rat(self._over(factors) + other._over(factors), factors=factors)

    def __mul__(self, other) -> "Rat":
        if not isinstance(other, Rat):
            return Rat(self.num * other, factors=self.factors)
        factors = {**self.factors}
        for k, (f, e) in other.factors.items():
            factors[k] = (f, e + factors.get(k, (f, 0))[1])
        return Rat(self.num * other.num, factors=factors)

    def dx(self) -> "Rat":
        """(n / Π f^e)' = (n' Π g - n Σ e g' Π_{h != g} h) / (Π f^e Π g),
        over the factors g and h in x."""
        xs = {k: (f, e) for k, (f, e) in self.factors.items() if f.dx()}
        # the sum over g is of factors alone, so n multiplies it once
        rest = sum((g.dx() * e * _product(f for j, (f, _) in xs.items() if j != k)
                    for k, (g, e) in xs.items()), Poly())
        num = self.num.dx() * _product(f for f, _ in xs.values()) - self.num * rest
        return Rat(num, factors={**self.factors, **{k: (f, e + 1) for k, (f, e) in xs.items()}})

    def at(self, value: "Rat") -> "Rat":
        """self with x replaced by value, ``cancel``led before and after:
        each factor's value is inverted by taking its numerator as a factor,
        so none may vanish."""
        src = self.cancel()
        out = src.num.at(value)
        for f, e in src.factors.values():
            g = f.at(value)
            if not g.num:
                raise ZeroDivisionError(f"{f} vanishes at x = the value")
            inverse = Rat(_product(h for h, k in g.factors.values() for _ in range(k)), g.num)
            for _ in range(e):
                out = out * inverse
        return out.cancel()

    def cancel(self) -> "Rat":
        """The same function with each factor in x alone divided out of num
        as often as it divides exactly, and the constant factors and the
        denominators of num's coefficients gathered into one integer factor,
        so that num has integer coefficients."""
        num, factors, scale = self.num, {}, Fraction(1)
        for k, (f, e) in self.factors.items():
            if set(f) == {0}:
                scale /= f[0] ** e
                continue
            while e and not any(t & ~(255 << _X) for t in f) and (q := num.quotient(f)) is not None:
                num, e = q, e - 1
            if e:
                factors[k] = (f, e)
        num = num * scale
        den = math.lcm(*(Fraction(v).denominator for v in num.values()))
        return Rat(Poly({t: int(v * den) for t, v in num.items()}), den, factors=factors)


# The axioms.  A step rule maps (α, β, γ) to (shift, divisors, c0, c1):
# Π divisors · F(α + dα, β + dβ; γ + dγ) = c0·F + c1·F'.
RULES = {
    "alpha_up": lambda al, be, ga: ((1, 0, 0), (al,), al, X),
    "beta_down": lambda al, be, ga: ((0, -1, 0), (ga - be,), ga - be - al * X, X * (1 - X)),
    "all_up": lambda al, be, ga: ((1, 1, 1), (al, be), 0, ga),
}


# the factors of the leading coefficient of the hypergeometric equation
_P2_FACTORS = (X, 1 - X)


def equation(al, be, ga):
    """(p2, p1, p0): p2 F'' + p1 F' + p0 F = 0."""
    return _product(_P2_FACTORS), ga - (al + be + 1) * X, -al * be


def gauge(lam, sign):
    """(q, r): q g' = r g for g = (1 - sign·x)^λ, which is 2F1(-λ, β; β; sign·x)."""
    return 1 - sign * X, -sign * lam


def _pochhammer(p, d: int, m):
    """(p)_(m+d) / (p)_m as (numerator factors, denominator factors)."""
    factors = [p + m + i for i in range(min(d, 0), max(d, 0))]
    return (factors, []) if d >= 0 else ([], factors)


def axiom_holds(name, axiom) -> bool:
    """Whether [x^n] of the axiom, over t_n, vanishes for symbolic n, with
    a, b, c as α, β, γ: a step rule, ``equation`` or ``gauge`` (or a variant
    of one), by name.  x^k F^(j)(α + dα, β + dβ; γ + dγ) contributes
    m(m-1)...(m-j+1) times its term t'_m, m = n - k + j, and t'_m/t_n is a
    product of Pochhammer ratios, times sign^(m-n) at argument sign·x; below
    index 0 the factor n - k + 1 of (1)_n/(1)_m or one of m(m-1)...(m-j+1)
    vanishes.  ``gauge`` is checked at both signs."""
    zero, base = (0, 0, 0), (A, B, C)
    if name == "gauge":
        rules = [(axiom(A, sign), sign) for sign in (1, -1)]
        return all(_vanishes((q, 1, zero), (-_poly(r), 0, zero), base=(-A, B, B), sign=sign)
                   for (q, r), sign in rules)
    if name == "equation":
        return _vanishes(*zip(axiom(*base), (2, 1, 0), (zero,) * 3))
    shift, divisors, c0, c1 = axiom(*base)
    return _vanishes((_product(divisors), 0, shift), (-_poly(c0), 0, zero), (-_poly(c1), 1, zero))


def _vanishes(*terms, base=(A, B, C), sign=1) -> bool:
    """Whether Σ [x^n] P·F^(j)(α + dα, β + dβ; γ + dγ; sign·x) over the terms
    (P, j, (dα, dβ, dγ)), divided by t_n, is 0 for F = 2F1(*base)."""
    al, be, ga = base
    total = Rat(0)
    for poly, j, (da, db, dc) in terms:
        by_power = {}  # k: the coefficient of x^k
        for e, v in _poly(poly).items():
            by_power.setdefault(e >> _X & 255, Poly())[e & ~(255 << _X)] = v
        for k, coefficient in by_power.items():
            s = j - k
            m = N + s
            nums, dens = [coefficient, *(m - i for i in range(j))], []
            ups = ((al, da, m), (be, db, m), (ga, dc, 0), (al, s, N), (be, s, N))
            downs = ((al, da, 0), (be, db, 0), (ga, dc, m), (ga, s, N), (1, s, N))
            for up, down in zip(ups, downs):
                (u0, u1), (d0, d1) = _pochhammer(*up), _pochhammer(*down)
                nums, dens = nums + u0 + d1, dens + u1 + d0
            total = total + Rat(_product(nums) * sign ** (s % 2), *dens)
    return not total.num


AXIOMS = (*RULES, "equation", "gauge")


# the outcomes of the open ``run`` scope, by key; None outside every scope
_RUN = contextvars.ContextVar("contiguity_run", default=None)


@contextlib.contextmanager
def run():
    """One proof run: inside it ``once`` computes each outcome at most once.
    The outcomes are gone when the scope closes; a nested scope, or one in
    another thread, starts empty."""
    token = _RUN.set({})
    try:
        yield
    finally:
        _RUN.reset(token)


def once(key, check):
    """check(), computed once per ``run`` scope under key, and on each call
    outside every scope."""
    outcomes = _RUN.get()
    if outcomes is None:
        return check()
    if key not in outcomes:
        outcomes[key] = check()
    return outcomes[key]


def failed_axioms(names=AXIOMS) -> list:
    """The names of the axioms, of ``names``, that fail their check: once
    per ``run`` scope for each axiom, keyed by the axiom itself, so that a
    changed rule is checked anew."""
    axioms = {**RULES, "equation": equation, "gauge": gauge}
    return [n for n, axiom in axioms.items() if n in names and not once((n, axiom), partial(axiom_holds, n, axiom))]


def combine(*scaled):
    """Σ k·f over (k, f), k a polynomial or a ``Rat`` and f a pair (r0, r1)."""
    r0 = r1 = Rat(0)
    for k, (u, v) in scaled:
        r0, r1 = r0 + u * k, r1 + v * k
    return r0, r1


class Reduction:
    """Functions g·(r0·F + r1·F') over the base F = 2F1(α, β; γ; x), α, β
    and γ polynomials in a, b, c, as pairs (r0, r1), g = (1-x)^λ (1+x)^μ
    given to ``d`` as (λ, μ).  ``excluded`` keeps each parameter polynomial
    a step divided by, whose zeros the reduction does not cover, and
    ``used`` the names of the axioms it applied."""

    def __init__(self, al, be, ga):
        self.base = tuple(map(_poly, (al, be, ga)))
        _, p1, p0 = equation(*self.base)
        # F'' = f2[0]·F + f2[1]·F', over the factors of p2 kept apart
        self.f2 = Rat(-p0, *_P2_FACTORS), Rat(-p1, *_P2_FACTORS)
        self.excluded, self.used = [], set()

    def d(self, f, gauge_exponents=(0, 0)):
        """f', with F'' = -(p1 F' + p0 F) / p2 and g' = g'/g · g."""
        (r0, r1), (s0, s1) = f, self.f2
        self.used.add("equation")
        out = r0.dx() + r1 * s0, r1.dx() + r0 + r1 * s1
        for exponent, sign in zip(gauge_exponents, (1, -1)):
            if exponent:
                self.used.add("gauge")
                q, r = gauge(_poly(exponent), sign)
                out = combine((1, out), (Rat(r, q), f))
        return out

    def hyp(self, al, be, ga):
        """F(α', β'; γ'), α' - α, β' - β, γ' - γ >= 0 integers: ``all_up``
        for γ, then ``alpha_up`` or ``beta_down`` on α, and on β by symmetry."""
        p = list(self.base)
        d = [_poly(t) - s for t, s in zip((al, be, ga), p)]
        if any(set(q) - {0} or q.get(0, 0) % 1 for q in d) or d[2].get(0, 0) < 0:
            raise ValueError(f"F{tuple(map(str, map(_poly, (al, be, ga))))} does not reduce over the base")
        d = [int(q.get(0, 0)) for q in d]
        plan = [("all_up", False)] * d[2]
        for slot in (0, 1):
            rule = "alpha_up" if d[slot] > d[2] else "beta_down"
            plan += [(rule, (slot == 1) == (rule == "alpha_up"))] * abs(d[slot] - d[2])
        f = Rat(1), Rat(0)
        for rule, swap in plan:
            shift, divisors, c0, c1 = RULES[rule](*((p[1], p[0], p[2]) if swap else p))
            if not all(divisors):
                raise ZeroDivisionError(f"{rule} divides by 0 at {tuple(map(str, p))}")
            f = combine((Rat(c0, *divisors), f), (Rat(c1, *divisors), self.d(f)))
            self.excluded += [str(q) for q in divisors if set(q) != {0}]
            self.used.add(rule)
            p = [q + s for q, s in zip(p, (shift[1], shift[0], shift[2]) if swap else shift)]
        return f

    def reduce(self, terms):
        """Σ k·F(α', β'; γ') over the terms (k, (α', β', γ'))."""
        return combine(*((k, self.hyp(*params)) for k, params in terms))

    def apply_equation(self, f, params, gauge_exponents=(0, 0)):
        """The hypergeometric operator of 2F1(α, β; γ; x), params = (α, β, γ),
        applied to f with its gauge."""
        p2, p1, p0 = equation(*map(_poly, params))
        df = self.d(f, gauge_exponents)
        return combine((p2, self.d(df, gauge_exponents)), (p1, df), (p0, f))
