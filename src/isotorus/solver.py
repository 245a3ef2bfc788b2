"""Inversion of the isoperimetric-ratio function.

The ratio function is a monotonic increasing bijection from [0, sqrt(2)-1)
onto [iso(0), 1), so a prescribed ratio rho determines a unique torus
parameter.  The solver works in t = z^2 and in g = sqrt(1 - iso), which
is nearly linear in t: at the right end, where iso -> 1, 1 - iso ~
eps^2 log(1/eps), eps = 1 - x, so iso's slope vanishes while g's does not.
Each point costs one evaluation of iso's (value, bound) pair, ``iso``'s own
body (``numerics._iso_pair``): two series, with no argument check and no
CertifiedValue.  The ends of the first bracket, iso(0) and the limit 1 at
Z_MAX, are pairs built at import.

Two rules propose points, and neither decides anything:

- the inverse model, built at import from iso's sharp pairs, in panels:
  26 Chebyshev points in t over z in [0, 0.39], then 16 over each panel
  whose ends are geometric in eps = 1 - x, ratio 4, as long as the panel's
  stated error meets the default tolerance's budget.  Each panel is t as
  the polynomial in g through its nodes (g_i, t_i), evaluated in
  barycentric form (Berrut and Trefethen, SIAM Review 46(3), 2004).  Its
  stated error in t is four times the size of its last Chebyshev
  coefficient plus the largest error its nodes carry from their own
  bounds, seen through g; its error in z is at most that over z.  The
  second panel, z in [0.39, 0.4085], is the last: on the next one the
  nodes' bounds alone miss the budget threefold.  For rho in a panel's
  range, where its error is below tol/4, the model's z is the first
  candidate, and the straddle alone certifies it;
- bracketed secant steps (Anderson-Bjorck regula falsi) on
  g - sqrt(1 - rho), from the chord over the bracket: from the whole
  domain on where the model gives no candidate, and on the bracket left
  by the straddle points where its candidate fails.

Correctness rests on monotonicity alone, the paper's theorem, which this
package shows only on the ``mono-iso`` scan's grid, as evidence:

- a point whose certified interval is disjoint from rho narrows a bracket
  (lo, hi) that provably holds the root.  A step that leaves the bracket,
  or is more than half the step before, is replaced by the bracket
  midpoint, so a poor step costs steps, never the result;
- once the steps predict an error below tol/4, or a point's interval holds
  rho, that point z is the candidate.  It is returned unflagged only when
  the intervals at z -+ tol/2, or bracket ends nearer to z, fall on
  opposite sides of rho (the straddle), which places a root, the root as
  iso is monotone, within tol/2 of z.  By monotonicity iso(z) lies between
  those intervals too, which bounds the residual.  A straddle interval
  that holds rho at the ordinary target is retried once at the sharpest
  one; if it still holds rho the result is flagged "precision_exhausted".
  Where iso's change over tol/2,
  by the bracket's chord slope, is below the last ordinary bound, the
  ordinary interval would hold rho, so the point goes to the sharpest
  target at once, where that is sharper than the ordinary one.  For the
  model's candidate, before any ordinary bound is known, the rule takes
  iso's slope from the model and each series' share of the ordinary
  target.  A straddle interval on the far side of rho shows the
  root beyond it, and the search goes on, so a wrong model or step costs
  evaluations, never the result.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

from .numerics import Z_MAX, NumericsError, _iso_pair, _x_of_t

__all__ = ["InverseQuery", "InverseResult", "TargetOutOfRange", "invert_iso"]

# the sharpest practical bound, tried once at a straddle point before the
# candidate is given up on
_SHARP = 1e-13
# the tolerance whose budget each panel of the inverse model must meet:
# InverseQuery's default
_MODEL_TOL = 1e-10

# iso's pair at z = 0, where x = 0 stops both series at their first step:
# the same pair at every target
_AT_ZERO = _iso_pair(0.0, _SHARP)
# iso's limit at the right end of its domain: iso(z) < 1 for every z < Z_MAX
_AT_Z_MAX = (1.0, 0.0)


def _inverse_model(nodes: int, z_lo: float, z_hi: float) -> tuple:
    """One panel of the model, (((g_i, w_i, t_i), ...), error, dt/dg): t at
    Chebyshev points of [z_lo^2, z_hi^2], with g = sqrt(1 - iso) from iso's
    pair at the sharpest target and the barycentric weights
    w_i = 1 / prod_(j != i) (g_i - g_j), g falling from the first node to
    the last, and dt/dg the chord slope over the panel.  The error is an
    estimate in t, not a bound, of two parts:
    four times the size of the interpolant's last Chebyshev coefficient,
    its leading coefficient sum(w_i t_i) times h^(n-1) / 2^(n-2), h the
    half width in g; and the largest error the nodes themselves carry, each
    node's bound b_i seen through g, b_i / (2 g_i), times the slope dt/dg
    of the chord through its neighbours.  At 26 nodes over z in [0, 0.39]
    that is 1.5e-13 + 3.5e-13, against a largest miss in t of 6.7e-14 at
    z = 0.0005k, k = 1..780, from 30-digit values of iso; at 16 nodes over
    z in [0.39, 0.4085], 4.8e-13 + 3.4e-12."""
    t_lo, t_hi = z_lo * z_lo, z_hi * z_hi
    zs = [math.sqrt(t_lo + 0.5 * (t_hi - t_lo) * (1.0 - math.cos(math.pi * k / (nodes - 1))))
          for k in range(nodes)]
    ts = [z * z for z in zs]  # iso's pair squares z again
    pairs = [_iso_pair(z, _SHARP) for z in zs]
    gs = [math.sqrt(1.0 - v) for v, _ in pairs]
    ws = [1.0 / math.prod(gi - gj for gj in gs if gj != gi) for gi in gs]  # the g_i are distinct
    half_width = 0.5 * (gs[0] - gs[-1])
    last = abs(math.fsum(w * t for w, t in zip(ws, ts))) * half_width ** (nodes - 1) / 2.0 ** (nodes - 2)
    ends = [(max(i - 1, 0), min(i + 1, nodes - 1)) for i in range(nodes)]
    noise = max((ts[j] - ts[i]) / (gs[i] - gs[j]) * b / (2.0 * g)
                for (i, j), (_, b), g in zip(ends, pairs, gs))
    return tuple(zip(gs, ws, ts)), 4.0 * last + noise, (ts[-1] - ts[0]) / (gs[0] - gs[-1])


def _panels() -> tuple:
    """The model's panels, in order of rising z: 26 nodes over z in
    [0, 0.39], then 16 nodes each between ends geometric in eps = 1 - x,
    x = 4t/(1-t)^2, ratio 4, from eps = 0.154 at z = 0.39.  The list stops
    at the first panel whose error misses the default tolerance's budget at
    its right end, tol/4 * z_hi: past it the nodes' own bounds, seen
    through g, already miss it."""
    panels, eps, spec = [], 1.0 - _x_of_t(0.39 * 0.39)[0], (26, 0.0, 0.39)
    while True:
        panel = _inverse_model(*spec)
        if not panel[1] < 0.25 * _MODEL_TOL * spec[2]:
            return tuple(panels)
        panels.append(panel)
        eps *= 0.25
        # z at x = 1 - eps, the root of 4t/(1-t)^2 = x
        spec = (16, spec[2], (math.sqrt(2.0 - eps) - 1.0) / math.sqrt(1.0 - eps))


_MODEL = _panels()


class TargetOutOfRange(NumericsError):
    """Requested ratio below iso(0) or at/above the limit value 1."""


@dataclass(frozen=True)
class InverseQuery:
    rho: float
    tolerance: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        # a bool is an int, so True would run as the number 1
        for name in ("rho", "tolerance"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, not {value!r}")
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError("tolerance must be positive and finite")
        n = self.max_iterations
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"max_iterations must be an int of at least 1, not {n!r}")


@dataclass(frozen=True)
class InverseResult:
    """The parameter z for ``rho``, a certified bound on |iso(z) - rho|, and
    the certified evaluations made after the one at z = 0."""

    rho: float
    z: float
    residual_bound: float
    iterations: int
    flag: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _model_t(gap: float) -> tuple | None:
    """(t, error, dt/dg): the model's t at g = ``gap``, which only proposes
    a candidate, from the first panel whose nodes' g range holds ``gap``,
    with that panel's error and chord slope; None where ``gap`` lies past
    every panel."""
    for nodes, error, dt_dg in _MODEL:
        if nodes[-1][0] <= gap <= nodes[0][0]:
            num = den = 0.0
            for g, w, t in nodes:
                if gap == g:
                    return t, error, dt_dg
                q = w / (gap - g)
                num += q * t
                den += q
            return num / den, error, dt_dg
    return None


def _chord(t_lo: float, g_lo: float, t_hi: float, g_hi: float) -> float:
    """The step rule, which only proposes points: the t at which the chord
    through the bracket ends (t_lo, g_lo), (t_hi, g_hi), g_lo > 0 > g_hi, crosses 0."""
    return t_lo + g_lo * (t_hi - t_lo) / (g_lo - g_hi)


def invert_iso(query: InverseQuery) -> InverseResult:
    """Find z with iso(z) = rho: the model's point or bracketed secant steps
    on sqrt(1 - iso) in t = z^2 propose, the straddle certifies."""
    rho, tol = query.rho, query.tolerance
    # compared, not converted: an int beyond the float range is out of range too
    if not rho < 1.0:
        raise TargetOutOfRange(f"target ratio {rho} is not below 1")
    target = min(1e-11, tol)
    z = 0.0  # the last point evaluated, with its pair: iso(z) lies in [v - b, v + b]
    v, b = _AT_ZERO
    if rho < v - b:
        raise TargetOutOfRange(f"target ratio {rho} below iso(0) = {v}")
    rho = float(rho)  # the result reports a float, also for a Fraction rho
    if rho <= v + b:
        return InverseResult(rho, 0.0, abs(v - rho) + b, 0)

    half = 0.5 * tol
    gap = math.sqrt(1.0 - rho)

    def g(v):  # > 0 below rho, < 0 above; iso's float value can pass 1 near Z_MAX
        return math.sqrt(max(0.0, 1.0 - v)) - gap

    # the root lies in (lo, hi): the interval at lo lies below rho, from
    # ``below`` about its value ``v_lo``, and the one at hi above it, up to
    # ``above`` about ``v_hi``.  When the same end moves twice running, the
    # g of the other is scaled down (Anderson and Bjorck), so both ends close in
    lo, hi, v_lo, v_hi = 0.0, Z_MAX, v, _AT_Z_MAX[0]
    below, above = v - b, _AT_Z_MAX[0] + _AT_Z_MAX[1]
    g_lo, g_hi, moved = g(v), -gap, None
    step = 2.0 * Z_MAX  # so that the rule below admits any first step
    ordinary = b  # the last bound at the ordinary target: z = 0's is every target's
    # the z that the straddle is certifying: first the model's, where its
    # error in z, at most its panel's error over z, is below tol/4
    candidate = slope = None
    model = _model_t(gap)
    if model is not None and model[0] > 0.0 and model[1] < 0.25 * tol * math.sqrt(model[0]):
        candidate = math.sqrt(model[0])
        # the sharp-first rule's seeds, as no ordinary bound is known yet:
        # iso's slope in z, 2g dg/dz = 4 g z / (dt/dg), from the panel's
        # chord slope dt/dg (g is nearly linear in t), and each series'
        # share of the ordinary target
        slope, ordinary = 4.0 * gap * candidate / model[2], 0.25 * target
    iterations = 0
    while True:
        if candidate is None:
            # a chord step, kept when it stays inside the bracket and is at
            # most half the step before; else the bracket midpoint
            t = _chord(lo * lo, g_lo, hi * hi, g_hi)
            nxt = math.sqrt(t) if t >= 0.0 else -1.0
            if not (lo < nxt < hi and abs(nxt - z) <= 0.5 * step):
                nxt = 0.5 * (lo + hi)
            last, step = step, abs(nxt - z)
            # a converging secant's error is about the product of its last
            # two steps: once that is below tol/4, the straddle takes over
            if step * step < 0.25 * tol * last:
                candidate = nxt
        # the straddle: bracket ends within tol/2 of the candidate hold the root
        if candidate is not None and lo >= candidate - half and hi <= candidate + half:
            return InverseResult(rho, candidate, max(above - rho, rho - below), iterations)
        if iterations >= query.max_iterations:
            return InverseResult(rho, z, abs(v - rho) + b, iterations, "max_iterations")
        iterations += 1
        if candidate is None:
            z = nxt
            v, b = _iso_pair(z, target)
            ordinary = b
            if v - b <= rho <= v + b:
                candidate = z
        else:
            # a straddle point, at the ordinary target and once at the sharp
            # one; at once at the sharp one, where that is the sharper, when
            # iso's change over tol/2, by the model's slope or else the
            # bracket's chord, is below the ordinary bound
            z = candidate - half if lo < candidate - half else candidate + half
            rate = (v_hi - v_lo) / (hi - lo) if slope is None else slope
            sharp = target > _SHARP and rate * half < ordinary
            v, b = _iso_pair(z, _SHARP if sharp else target)
            if not sharp:
                ordinary = b
                if v - b <= rho <= v + b:
                    v, b = _iso_pair(z, _SHARP)
            if v - b <= rho <= v + b:
                at, at_b = _iso_pair(candidate, _SHARP)
                return InverseResult(rho, candidate, abs(at - rho) + at_b, iterations,
                                     "precision_exhausted")
        if rho > v + b:
            if moved == "lo":
                m = 1.0 - g(v) / g_lo
                g_hi *= m if m > 0.0 else 0.5
            lo, v_lo, below, g_lo, moved = z, v, v - b, g(v), "lo"
        elif rho < v - b:
            if moved == "hi":
                m = 1.0 - g(v) / g_hi
                g_lo *= m if m > 0.0 else 0.5
            hi, v_hi, above, g_hi, moved = z, v, v + b, g(v), "hi"
        if candidate is not None and not lo < candidate < hi:
            candidate = slope = None  # a straddle point found the root beyond it
