"""Inversion of the isoperimetric-ratio function.

The ratio function is a monotonic increasing bijection from [0, sqrt(2)-1)
onto [iso(0), 1), so a prescribed ratio determines a unique torus parameter.
The solver brackets it by guaranteed bisection on certified evaluations: a
step is taken only when the certified interval at the midpoint is disjoint
from the target, so the bracket provably straddles the true parameter at
every step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .numerics import Z_MAX, CertifiedValue, NumericsError, iso

__all__ = ["InverseQuery", "InverseResult", "TargetOutOfRange", "PrecisionExhausted", "invert_iso"]

_Z_HI = Z_MAX - 1e-12

# residual level below which a bound-limited stop still counts as a solve
_RESIDUAL_ACCEPT = 1e-8


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
        if not (self.tolerance > 0.0):
            raise ValueError("tolerance must be positive")
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


def _certified_iso(z: float, target: float) -> CertifiedValue:
    return iso(z, target=target)


def invert_iso(query: InverseQuery) -> InverseResult:
    """Find z with iso(z) = rho by bisection on certified intervals."""
    rho = query.rho
    if not math.isfinite(rho) or rho >= 1.0:
        raise TargetOutOfRange(f"target ratio {rho} is not below 1")
    target = min(1e-11, query.tolerance)
    left = _certified_iso(0.0, target)
    if rho < left.lo:
        raise TargetOutOfRange(f"target ratio {rho} below iso(0) = {left.value}")
    if rho <= left.hi:
        return InverseResult(rho, 0.0, abs(left.value - rho) + left.abs_error_bound, 0)

    lo, hi = 0.0, _Z_HI
    iterations = 0
    while hi - lo > query.tolerance and iterations < query.max_iterations:
        mid = 0.5 * (lo + hi)
        cv = _certified_iso(mid, target)
        if cv.lo <= rho <= cv.hi:
            # retry at the sharpest practical bound before concluding
            cv = _certified_iso(mid, target=1e-13)
        if rho > cv.hi:
            lo = mid
        elif rho < cv.lo:
            hi = mid
        else:
            # the midpoint interval still contains rho: the root is pinned to
            # within the certified bound, which either satisfies the residual
            # floor (success) or cannot be improved (flagged)
            residual = abs(cv.value - rho) + cv.abs_error_bound
            flag = None if residual <= _RESIDUAL_ACCEPT else "precision_exhausted"
            return InverseResult(rho, mid, residual, iterations + 1, flag)
        iterations += 1

    z = 0.5 * (lo + hi)
    final = _certified_iso(z, target)
    residual_bound = abs(final.value - rho) + final.abs_error_bound
    # stopped by max_iterations with the bracket still wider than the tolerance
    flag = "max_iterations" if hi - lo > query.tolerance else None
    return InverseResult(rho, z, residual_bound, iterations, flag)
