"""Certified inversion of the ratio function."""

import hashlib
import json
import math
from fractions import Fraction

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


@pytest.mark.parametrize("kwargs", [
    {"rho": "0.9"}, {"rho": True}, {"rho": None}, {"rho": 0.9j},
    {"rho": 0.9, "tolerance": True}, {"rho": 0.9, "tolerance": "1e-10"},
    {"rho": 0.9, "tolerance": None},
])
def test_query_refuses_bools_and_non_real_values(kwargs):
    # tolerance=True ran as a tolerance of 1, and rho="0.9" was built and
    # then raised a bare TypeError in invert_iso
    with pytest.raises(ValueError):
        InverseQuery(**kwargs)


@pytest.mark.parametrize("rho", [math.inf, -math.inf, 10 ** 400, -(10 ** 400)],
                         ids=["inf", "-inf", "int-10^400", "int--10^400"])
def test_unbounded_ratio_is_out_of_range(rho):
    with pytest.raises(TargetOutOfRange):
        invert_iso(InverseQuery(rho))


def test_fraction_ratio_reports_a_float():
    result = invert_iso(InverseQuery(Fraction(9, 10)))
    assert result.rho == 0.9 and result.flag is None
    assert json.loads(result.to_json())["rho"] == 0.9
    assert abs(result.z - invert_iso(InverseQuery(0.9)).z) <= 1e-10


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


ROUND_TRIP_ZS = [0.03 + (0.411 - 0.03) * k / 15 for k in range(16)]
WRONG_SLOPE_ZS = [0.05, 0.2, 0.3, 0.405]
NEAR_Z_MAX_ZS = [0.400 + 0.011 * (k + 0.5) / 7 for k in range(7)]

# (z*, rho, root) for the points above: rho = float(Iso(z*)) and the root of
# Iso(z) = rho to 40 digits, both by _mp_roots at 40 digits.  Regenerate with
#   PYTHONPATH=src python tests/test_solver.py
MP_ROOTS = [
    (0.03, 0.7145122823798469, "0.02999999999999984552098799851729293527367"),
    (0.0554, 0.7213807075342565, "0.05539999999999988386542032930242535783480"),
    (0.0808, 0.73215879787089, "0.08079999999999995238599711629799200713084"),
    (0.1062, 0.7466057563454651, "0.1061999999999999756925688907604688307717"),
    (0.1316, 0.7643932282000275, "0.1316000000000000360574272444633725259036"),
    (0.157, 0.7851071142107003, "0.1569999999999999383663757729759529883719"),
    (0.1824, 0.8082494457100865, "0.1824000000000000409100521611367491479433"),
    (0.20779999999999998, 0.8332399897533488, "0.2077999999999999691136857797874264452628"),
    (0.2332, 0.8594171234514891, "0.2332000000000000097567154810150942663691"),
    (0.25860000000000005, 0.8860372826746511, "0.2586000000000000036574426411875970979253"),
    (0.28400000000000003, 0.9122718059382485, "0.2840000000000000197994889316771901381443"),
    (0.3094, 0.9371988822047314, "0.3093999999999999989573210786449151425670"),
    (0.3348, 0.9597854673321833, "0.3347999999999999475582634854992201671362"),
    (0.36019999999999996, 0.9788455629750709, "0.3601999999999999439898111167380033329327"),
    (0.38559999999999994, 0.9929286057595089, "0.3855999999999998151492830658283909607052"),
    (0.41100000000000003, 0.9998622271317203, "0.4109999999999997504352673371994322669162"),
    (0.05, 0.7195867631771943, "0.04999999999999999775601400562292829287003"),
    (0.2, 0.8254072201579709, "0.2000000000000000055450071230585818308368"),
    (0.3, 0.9281889886719081, "0.3000000000000000136519907124816331875690"),
    (0.405, 0.9990603634168935, "0.4049999999999998272297509029381192837039"),
    (0.4007857142857143, 0.9981499551808241, "0.4007857142857144062105814042714051225081"),
    (0.40235714285714286, 0.9985201056529984, "0.4023571428571428018494921879186889230451"),
    (0.40392857142857147, 0.9988541144319597, "0.4039285714285715310988606423800889666533"),
    (0.4055, 0.9991504757307881, "0.4055000000000003055813852850981432573760"),
    (0.4070714285714286, 0.9994074354442296, "0.4070714285714283587639299717121618914797"),
    (0.40864285714285714, 0.9996228876842717, "0.4086428571428571922435819056768944207043"),
    (0.41021428571428575, 0.9997941901369302, "0.4102142857142860831149568204709285439335"),
]
_ROOT_OF = {z: (rho, Fraction(root)) for z, rho, root in MP_ROOTS}


def _stored_roots(zs):
    """(rho, root) pairs from MP_ROOTS, the root as an exact Fraction."""
    return [_ROOT_OF[z] for z in zs]


def test_stored_roots_match_mpmath():
    # recompute an interior row and the row nearest Z_MAX live
    mpmath = pytest.importorskip("mpmath")
    zs = [0.2, NEAR_Z_MAX_ZS[-1]]
    for z, (rho, root) in zip(zs, _mp_roots(mpmath, zs)):
        stored_rho, stored_root = _ROOT_OF[z]
        assert rho == stored_rho, z
        assert abs(Fraction(mpmath.nstr(root, 40)) - stored_root) <= Fraction(1, 10 ** 30), z


def test_round_trip_against_mpmath_roots():
    zs_out = []
    for rho, root in _stored_roots(ROUND_TRIP_ZS):
        result = invert_iso(InverseQuery(rho, 1e-10))
        assert result.flag is None, rho
        assert abs(Fraction(result.z) - root) <= 1e-10, (rho, result.z)
        zs_out.append(result.z)
    assert zs_out == sorted(zs_out) and len(set(zs_out)) == len(zs_out)


@pytest.mark.parametrize("scale", [0.0, -1.0, 1e6])
def test_wrong_slope_still_gives_a_certified_root(monkeypatch, scale):
    # the chord's slope only proposes steps: zero, of the wrong sign or a
    # million times too large, the bracket and the straddle still certify
    # the root.  The step from t_lo then runs to infinity, backwards out of
    # the bracket, or a millionth of the way inside it
    chord = solver._chord

    def bad_slope(t_lo, g_lo, t_hi, g_hi):
        step = chord(t_lo, g_lo, t_hi, g_hi) - t_lo
        return t_lo + step / scale if scale else math.inf

    monkeypatch.setattr(solver, "_chord", bad_slope)
    for rho, root in _stored_roots(WRONG_SLOPE_ZS):
        result = invert_iso(InverseQuery(rho, 1e-10))
        assert result.flag is None, (scale, rho)
        assert abs(Fraction(result.z) - root) <= 1e-10, (scale, rho, result.z)


def _counting_series_sums(monkeypatch):
    """Count the series sums the solver makes, through every iso call: each
    is one call of the family kernel."""
    calls = [0]
    evaluate = numerics._eval_family

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(numerics, "_eval_family", counted)
    return calls


def test_few_evaluations_per_root(monkeypatch):
    # each point costs one iso call, two series; a straddle point one more
    # iso call when it takes the sharp retry.  Bisection took about 33 points
    calls = _counting_series_sums(monkeypatch)
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
    calls = _counting_series_sums(monkeypatch)
    for rho, root in _stored_roots(NEAR_Z_MAX_ZS):
        before = calls[0]
        result = invert_iso(InverseQuery(rho, 1e-10))
        assert result.flag is None, rho
        assert abs(Fraction(result.z) - root) <= 1e-10, (rho, result.z)
        assert calls[0] - before <= 20, (rho, calls[0] - before)


@pytest.mark.parametrize("rho, budget", [(0.9999999, 62), (1.0 - 2.0 ** -53, 74)])
def test_ratio_next_to_one_is_flagged_within_budget(monkeypatch, rho, budget):
    # the root lies so near Z_MAX that even the sharpest bound cannot tell
    # z -+ tol/2 apart from rho: flagged, never raised, in few series sums
    calls = _counting_series_sums(monkeypatch)
    result = invert_iso(InverseQuery(rho, 1e-10))
    assert result.flag == "precision_exhausted"
    assert 0.414 < result.z < Z_MAX
    assert calls[0] < budget, calls[0]


# sha256 over "z.hex residual_bound.hex iterations flag" lines of invert_iso
# on INVERT_RHOS at the default query: the MP_ROOTS targets, the lower end,
# 1 - 10^-(3 + k/8) for k = 0..32, across the straddle's sharp retry (from
# rho = 0.9999) and its precision_exhausted flag (from k = 11), and the ratio
# next to 1.  Regenerate with
#   PYTHONPATH=src:tests python -c "import test_solver; print(test_solver.invert_grid_digest())"
INVERT_GRID = "9af02d177b1b0c6bb6e09dcb8d6ebb0eb8ad3a8c3a84f1431c85fcba68eef143"
INVERT_RHOS = ([rho for _, rho, _ in MP_ROOTS] + [ISO0]
               + [1.0 - 10.0 ** (-3 - k / 8) for k in range(33)] + [0.9999999999999999])


def invert_grid_digest():
    lines = []
    for rho in INVERT_RHOS:
        r = invert_iso(InverseQuery(rho))
        lines.append(f"{r.z.hex()} {r.residual_bound.hex()} {r.iterations} {r.flag}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.pinned
def test_inversions_match_the_grid_digest(time_limit):
    time_limit(5.0)
    assert invert_grid_digest() == INVERT_GRID


if __name__ == "__main__":
    # print the rows of MP_ROOTS afresh
    import mpmath

    zs = list(dict.fromkeys(ROUND_TRIP_ZS + WRONG_SLOPE_ZS + NEAR_Z_MAX_ZS))
    for z, (rho, root) in zip(zs, _mp_roots(mpmath, zs)):
        print(f'    ({z!r}, {rho!r}, "{mpmath.nstr(root, 40, strip_zeros=False)}"),')
