"""Inversion of the isoperimetric-ratio function.

The ratio function is a monotonic increasing bijection from [0, sqrt(2)-1)
onto [iso(0), 1), so a prescribed ratio determines a unique torus parameter.
The solver brackets it by guaranteed bisection on certified evaluations: a
step is taken only when the certified interval at the midpoint is disjoint
from the target, so the bracket provably straddles the true parameter at
every step.  A midpoint whose interval holds the target even at the sharpest
bound ends the search: it is returned unflagged only when the intervals at
midpoint -+ tol/2 fall on opposite sides of the target, which places the root
between those two points, and flagged "precision_exhausted" otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .numerics import Z_MAX, NumericsError, iso

__all__ = ["InverseQuery", "InverseResult", "TargetOutOfRange", "PrecisionExhausted", "invert_iso"]

_Z_HI = Z_MAX - 1e-12

# the sharpest practical bound, tried before a midpoint is given up on
_SHARP = 1e-13


class TargetOutOfRange(NumericsError):
    """Requested ratio below iso(0) or at/above the limit value 1."""


class PrecisionExhausted(NumericsError):
    """Certified bounds cannot separate the target from the midpoint value."""


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


def invert_iso(query: InverseQuery) -> InverseResult:
    """Find z with iso(z) = rho by bisection on certified intervals."""
    rho = query.rho
    if not math.isfinite(rho) or rho >= 1.0:
        raise TargetOutOfRange(f"target ratio {rho} is not below 1")
    target = min(1e-11, query.tolerance)
    left = iso(0.0, target=target)
    if rho < left.lo:
        raise TargetOutOfRange(f"target ratio {rho} below iso(0) = {left.value}")
    if rho <= left.hi:
        return InverseResult(rho, 0.0, abs(left.value - rho) + left.abs_error_bound, 0)

    lo, hi = 0.0, _Z_HI
    iterations = 0
    while hi - lo > query.tolerance and iterations < query.max_iterations:
        mid = 0.5 * (lo + hi)
        cv = iso(mid, target=target)
        if cv.lo <= rho <= cv.hi:
            cv = iso(mid, target=_SHARP)
        if rho > cv.hi:
            lo = mid
        elif rho < cv.lo:
            hi = mid
        else:
            # the midpoint interval still contains rho.  iso increases, so if
            # rho lies strictly between the intervals at mid -+ tol/2 (both
            # inside the bracket, which is wider than tol), the root lies
            # between those points; otherwise the bounds cannot place it
            half = 0.5 * query.tolerance
            below = iso(mid - half, target=_SHARP)
            above = iso(mid + half, target=_SHARP)
            straddled = below.hi < rho < above.lo
            residual = abs(cv.value - rho) + cv.abs_error_bound
            return InverseResult(rho, mid, residual, iterations + 1,
                                 None if straddled else "precision_exhausted")
        iterations += 1

    z = 0.5 * (lo + hi)
    final = iso(z, target=target)
    residual_bound = abs(final.value - rho) + final.abs_error_bound
    # stopped by max_iterations with the bracket still wider than the tolerance
    flag = "max_iterations" if hi - lo > query.tolerance else None
    return InverseResult(rho, z, residual_bound, iterations, flag)
