"""Certified inversion of the ratio function."""

import json

import pytest

from isotorus.numerics import Z_MAX, iso
from isotorus.solver import InverseQuery, InverseResult, TargetOutOfRange, invert_iso

ISO0 = iso(0.0).value


def test_round_trip_midrange():
    for rho in (0.75, 0.8, 0.9, 0.95):
        result = invert_iso(InverseQuery(rho))
        assert result.flag is None
        assert 0.0 <= result.z < Z_MAX
        back = iso(result.z, target=1e-12)
        assert abs(back.value - rho) <= 1e-8


def test_round_trip_near_endpoint():
    result = invert_iso(InverseQuery(0.9999))
    assert result.z > 0.40
    back = iso(result.z, target=1e-12)
    assert abs(back.value - 0.9999) <= 1e-8


def test_outputs_monotone_in_rho():
    rhos = [0.72, 0.78, 0.85, 0.92, 0.98]
    zs = [invert_iso(InverseQuery(r)).z for r in rhos]
    assert zs == sorted(zs)
    assert len(set(zs)) == len(zs)


def test_rho_at_lower_endpoint():
    result = invert_iso(InverseQuery(ISO0))
    assert result.z == 0.0
    assert result.iterations == 0


def test_out_of_range():
    with pytest.raises(TargetOutOfRange):
        invert_iso(InverseQuery(1.0))
    with pytest.raises(TargetOutOfRange):
        invert_iso(InverseQuery(1.5))
    with pytest.raises(TargetOutOfRange):
        invert_iso(InverseQuery(0.5))  # below iso(0) ~ 0.71
    with pytest.raises(TargetOutOfRange):
        invert_iso(InverseQuery(float("nan")))


def test_query_validation():
    with pytest.raises(ValueError):
        InverseQuery(0.9, tolerance=0.0)
    with pytest.raises(ValueError):
        InverseQuery(0.9, max_iterations=0)


def test_residual_bound_is_reported_and_small():
    result = invert_iso(InverseQuery(0.85, tolerance=1e-12))
    assert result.residual_bound <= 1e-8
    assert result.iterations >= 1


def test_result_serialization():
    result = invert_iso(InverseQuery(0.8))
    d = result.to_dict()
    assert set(d) == {"rho", "z", "residual_bound", "iterations", "flag"}
    parsed = json.loads(result.to_json())
    assert parsed["rho"] == 0.8
    assert isinstance(result, InverseResult)


def test_iteration_cap_is_flagged():
    # three bisection steps cannot reach 1e-15; the result must say so
    result = invert_iso(InverseQuery(0.9, tolerance=1e-15, max_iterations=3))
    assert result.iterations == 3
    assert result.flag == "max_iterations"
