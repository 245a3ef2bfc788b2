"""Inversion of the isoperimetric-ratio function.

The ratio function is a monotonic increasing bijection from [0, sqrt(2)-1)
onto [iso(0), 1), so a prescribed ratio rho determines a unique torus
parameter.  The solver takes Newton steps in t = z^2, starting at t = 0,
where the slope d iso/dt is finite (9/2 iso(0)).  Grid scans find iso
concave in t, so the steps rise to the root from below and converge in a
handful of evaluations.  Correctness rests on monotonicity alone:

- a point whose certified interval is disjoint from rho narrows a bracket
  (lo, hi) that provably holds the root.  A Newton step that leaves the
  bracket, or is more than half the step before, is replaced by the bracket
  midpoint, so a wrong slope costs steps, never the result;
- once a step falls below tol/4, or a point's interval holds rho, that point
  z is the candidate.  It is returned unflagged only when the intervals at
  z -+ tol/2, or bracket ends nearer to z, fall on opposite sides of rho (the
  straddle), which places the root within tol/2 of z.  By monotonicity
  iso(z) lies between those intervals too, which bounds the residual.  A
  straddle interval that holds rho at the ordinary target is retried once at
  the sharpest one; if it still holds rho the result is flagged
  "precision_exhausted".  One that lies on the far side of rho shows the
  root beyond it, and the search goes on from the bracket midpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .numerics import Z_MAX, CertifiedValue, NumericsError, _iso_and_slope, iso

__all__ = ["InverseQuery", "InverseResult", "TargetOutOfRange", "invert_iso"]

# iso's limit at the right end of its domain: iso(z) < 1 for every z < Z_MAX
_AT_Z_MAX = CertifiedValue(1.0, 0.0)

# the sharpest practical bound, tried once at a straddle point before the
# candidate is given up on
_SHARP = 1e-13


class TargetOutOfRange(NumericsError):
    """Requested ratio below iso(0) or at/above the limit value 1."""


@dataclass(frozen=True)
class InverseQuery:
    rho: float
    tolerance: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError("tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


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
        return {
            "rho": self.rho,
            "z": self.z,
            "residual_bound": self.residual_bound,
            "iterations": self.iterations,
            "flag": self.flag,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _evaluate(z: float, target: float) -> tuple:
    """The iso enclosure at z, as ``iso(z, target)`` gives it, and the slope
    d iso/dt at t = z^2 (a float: it only proposes steps)."""
    value, diso_dx, dx_dt = _iso_and_slope(z * z, target / 4.0)
    return value, diso_dx.value * dx_dt


def invert_iso(query: InverseQuery) -> InverseResult:
    """Find z with iso(z) = rho by bracketed Newton steps in t = z^2."""
    rho, tol = query.rho, query.tolerance
    if not math.isfinite(rho) or rho >= 1.0:
        raise TargetOutOfRange(f"target ratio {rho} is not below 1")
    target = min(1e-11, tol)
    z = 0.0  # the last point evaluated, with its interval cv and slope
    cv, slope = _evaluate(z, target)
    if rho < cv.lo:
        raise TargetOutOfRange(f"target ratio {rho} below iso(0) = {cv.value}")
    if rho <= cv.hi:
        return InverseResult(rho, 0.0, abs(cv.value - rho) + cv.abs_error_bound, 0)

    half = 0.5 * tol
    # the root lies in (lo, hi): the interval at lo lies below rho and the
    # one at hi above it
    lo, hi, below, above = 0.0, Z_MAX, cv, _AT_Z_MAX
    step = math.inf
    candidate = None  # the z that the straddle is certifying
    iterations = 0
    while True:
        if candidate is None:
            # a Newton step in t, kept when it stays inside the bracket and
            # is at most half the step before; else the bracket midpoint
            t = z * z + (rho - cv.value) / slope if slope > 0.0 else -1.0
            nxt = math.sqrt(t) if t >= 0.0 else -1.0
            if not (lo < nxt < hi and abs(nxt - z) <= 0.5 * step):
                nxt = 0.5 * (lo + hi)
            step = abs(nxt - z)
            if step < 0.25 * tol:
                candidate = nxt
        # the straddle: once the bracket ends lie within tol/2 of the
        # candidate, the root does too
        if candidate is not None and lo >= candidate - half and hi <= candidate + half:
            return InverseResult(rho, candidate, max(above.hi - rho, rho - below.lo), iterations)
        if iterations >= query.max_iterations:
            return InverseResult(rho, z, abs(cv.value - rho) + cv.abs_error_bound, iterations,
                                 "max_iterations")
        iterations += 1
        if candidate is None:
            z = nxt
            cv, slope = _evaluate(z, target)
            if cv.lo <= rho <= cv.hi:
                candidate = z
        else:
            # a straddle point, at the ordinary target and once at the sharp one
            z = candidate - half if lo < candidate - half else candidate + half
            cv, slope = iso(z, target=target), 0.0
            if cv.lo <= rho <= cv.hi:
                cv = iso(z, target=_SHARP)
            if cv.lo <= rho <= cv.hi:
                at = iso(candidate, target=_SHARP)
                return InverseResult(rho, candidate, abs(at.value - rho) + at.abs_error_bound,
                                     iterations, "precision_exhausted")
        if rho > cv.hi:
            lo, below = z, cv
        elif rho < cv.lo:
            hi, above = z, cv
        if candidate is not None and not lo < candidate < hi:
            candidate = None  # a straddle point found the root beyond it
