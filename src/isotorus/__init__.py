"""Exact and certified computation for the Clifford-torus isoperimetric ratio.

Four layers:

- :mod:`isotorus.series`     exact rational truncated power series
- :mod:`isotorus.identities` exact identity / ODE / coefficient checks
- :mod:`isotorus.numerics`   certified floating-point evaluation and scans
- :mod:`isotorus.solver`     monotone inversion of the ratio function
"""

from .identities import verify_all
from .numerics import CertifiedValue, iso, iso_derivative, iso_direct, iso_squared
from .series import (
    DifferentialOperator,
    HypergeometricSpec,
    PowerSeries,
    Rational,
    parse_rational,
    rat,
)
from .solver import InverseQuery, invert_iso

__all__ = [
    "CertifiedValue",
    "DifferentialOperator",
    "HypergeometricSpec",
    "InverseQuery",
    "PowerSeries",
    "Rational",
    "invert_iso",
    "iso",
    "iso_derivative",
    "iso_direct",
    "iso_squared",
    "parse_rational",
    "rat",
    "verify_all",
]

__version__ = "0.1.0"
