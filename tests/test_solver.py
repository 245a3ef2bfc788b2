"""Certified inversion of the ratio function."""

import json
import math

import pytest

from isotorus import numerics, solver
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
    # three steps cannot reach 1e-15; the result must say so
    result = invert_iso(InverseQuery(0.9, tolerance=1e-15, max_iterations=3))
    assert result.iterations == 3
    assert result.flag == "max_iterations"


def mp_iso(mpmath, z):
    t = z * z
    x = 4 * t / (1 - t) ** 2
    f1 = mpmath.hyp2f1(-0.5, -0.5, 1, x)
    f2 = mpmath.hyp2f1(-1.5, -1.5, 1, x)
    w = (1 - t) / (1 + t)
    return mpmath.sqrt(9 * mpmath.sqrt(2) / (8 * mpmath.pi) * f2 ** 2 / f1 ** 3 * w ** 3)


def mp_root(mpmath, rho, lo, hi):
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    while hi - lo > mpmath.mpf("1e-25"):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mp_iso(mpmath, mid) < rho else (lo, mid)
    return lo


def test_root_near_iso_zero_is_flagged_or_within_tolerance():
    # iso is flat near 0 (slope ~ 6z), so the certified bounds cannot place
    # this root to 1e-10; the solver must say so rather than return it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        rho = float(mp_iso(mpmath, mpmath.mpf(3e-6)))
        root = mp_root(mpmath, mpmath.mpf(rho), 0, 1e-5)
        result = invert_iso(InverseQuery(rho, 1e-10))
        assert result.flag == "precision_exhausted" or abs(result.z - root) <= 1e-10


def _recording_iso(monkeypatch):
    """Record every (z, target, interval) the solver's straddle asks iso for."""
    calls = []

    def recorded(z, target):
        cv = iso(z, target=target)
        calls.append((z, target, cv))
        return cv

    monkeypatch.setattr(solver, "iso", recorded)
    return calls


def test_ambiguous_midpoint_is_certified_by_the_straddle(monkeypatch):
    # rho is iso's own value at z0 (bisection's first midpoint), so points
    # next to z0 have intervals holding rho; the intervals at z -+ tol/2
    # then straddle rho and certify z
    z0 = 0.5 * (Z_MAX - 1e-12)
    rho = iso(z0, target=1e-11).value
    calls = _recording_iso(monkeypatch)
    result = invert_iso(InverseQuery(rho, 1e-10))
    assert result.flag is None
    below = [cv for z, _, cv in calls if z == result.z - 5e-11]
    above = [cv for z, _, cv in calls if z == result.z + 5e-11]
    assert below and above
    assert below[-1].hi < rho < above[-1].lo
    # by monotonicity the straddle bounds the residual with no further call
    assert result.residual_bound == max(above[-1].hi - rho, rho - below[-1].lo)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        root = mp_root(mpmath, mpmath.mpf(rho), z0 - 1e-9, z0 + 1e-9)
        assert abs(result.z - root) <= 1e-10


def _mp_roots(mpmath, zs):
    """(rho, root) pairs: rho = float(Iso(z*)) and the root of Iso = rho."""
    pairs = []
    with mpmath.workdps(40):
        for z in zs:
            rho = float(mp_iso(mpmath, mpmath.mpf(z)))
            pairs.append((rho, mp_root(mpmath, mpmath.mpf(rho), z - 1e-9, z + 1e-9)))
    return pairs


def test_round_trip_against_mpmath_roots():
    mpmath = pytest.importorskip("mpmath")
    zs = [0.03 + (0.411 - 0.03) * k / 15 for k in range(16)]
    zs_out = []
    for rho, root in _mp_roots(mpmath, zs):
        result = invert_iso(InverseQuery(rho, 1e-10))
        assert result.flag is None, rho
        assert abs(result.z - root) <= 1e-10, (rho, result.z)
        zs_out.append(result.z)
    assert zs_out == sorted(zs_out) and len(set(zs_out)) == len(zs_out)


@pytest.mark.parametrize("scale", [0.0, -1.0, 1e6])
def test_wrong_slope_still_gives_a_certified_root(monkeypatch, scale):
    # the chord's slope only proposes steps: zero, of the wrong sign or a
    # million times too large, the bracket and the straddle still certify
    # the root.  The step from t_lo then runs to infinity, backwards out of
    # the bracket, or a millionth of the way inside it
    mpmath = pytest.importorskip("mpmath")
    chord = solver._chord

    def bad_slope(t_lo, g_lo, t_hi, g_hi):
        step = chord(t_lo, g_lo, t_hi, g_hi) - t_lo
        return t_lo + step / scale if scale else math.inf

    monkeypatch.setattr(solver, "_chord", bad_slope)
    for rho, root in _mp_roots(mpmath, (0.05, 0.2, 0.3, 0.405)):
        result = invert_iso(InverseQuery(rho, 1e-10))
        assert result.flag is None, (scale, rho)
        assert abs(result.z - root) <= 1e-10, (scale, rho, result.z)


def _counting_eval_2f1(monkeypatch):
    """Count the series sums the solver makes, through every iso call."""
    calls = [0]
    evaluate = numerics.eval_2f1

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(numerics, "eval_2f1", counted)
    return calls


def test_few_evaluations_per_root(monkeypatch):
    # each point costs one iso call, two series; a straddle point one more
    # iso call when it takes the sharp retry.  Bisection took about 33 points
    calls = _counting_eval_2f1(monkeypatch)
    for k in range(20):
        z = 0.03 + (0.30 - 0.03) * (k + 0.5) / 20
        rho = iso(z, target=1e-13).value
        before = calls[0]
        result = invert_iso(InverseQuery(rho, 1e-10))
        assert result.flag is None
        assert calls[0] - before <= 18, (z, calls[0] - before)


def test_few_evaluations_per_root_near_z_max(monkeypatch):
    # iso's slope in t vanishes at Z_MAX, but sqrt(1 - iso) stays nearly
    # linear, so roots there cost no more than interior ones
    mpmath = pytest.importorskip("mpmath")
    pairs = _mp_roots(mpmath, [0.400 + 0.011 * (k + 0.5) / 7 for k in range(7)])
    calls = _counting_eval_2f1(monkeypatch)
    for rho, root in pairs:
        before = calls[0]
        result = invert_iso(InverseQuery(rho, 1e-10))
        assert result.flag is None, rho
        assert abs(result.z - root) <= 1e-10, (rho, result.z)
        assert calls[0] - before <= 20, (rho, calls[0] - before)


@pytest.mark.parametrize("rho, budget", [(0.9999999, 62), (1.0 - 2.0 ** -53, 74)])
def test_ratio_next_to_one_is_flagged_within_budget(monkeypatch, rho, budget):
    # the root lies so near Z_MAX that even the sharpest bound cannot tell
    # z -+ tol/2 apart from rho: flagged, never raised, in few series sums
    calls = _counting_eval_2f1(monkeypatch)
    result = invert_iso(InverseQuery(rho, 1e-10))
    assert result.flag == "precision_exhausted"
    assert 0.414 < result.z < Z_MAX
    assert calls[0] < budget, calls[0]
