"""The three workloads: their seeded inputs, one pass over them, and the
per-pass metrics.

- proof:    cold ``verify --order 40``, the ODE fault check and the
            order-240 ``iso_direct`` cross path, then the float calls;
- query:    interior float calls (z <= 0.39) and the five CLI scans;
- endpoint: the same float calls near x = 1, where the family series need up
            to 10^6 terms, with the classes that fail there today.

Every end-to-end metric is reported on every workload.  Query and endpoint
time one cold ``verify --order 8`` before their passes (the first verify of
the process, as in a fresh ``isotorus verify``) and make two warm
``iso_direct`` calls per pass; proof's float calls take under 1 % of its
pass.

Inputs are stratified draws from ``--seed`` (one draw per stratum), so two
seeds give different inputs with the same cost classes in the same counts.
Inputs whose cost class or verdict depends on where exactly they fall are
fixed, and do not depend on the seed: the calls that fail today, and the
endpoint inversions, a third or more of which take the solver's 3 s sharp
retry.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from isotorus import cli, identities, numerics, solver
from isotorus.series import perturbed

from checks import OK, Verdict, check_interval, check_inversion, check_property

DECLARED = (numerics.NumericsError,)
# the memo caches a fresh process starts without
CACHES = (identities.expand_abar, identities.expand_vbar, identities.expand_f,
          numerics._family_derivative_cap, numerics._direct_series)

INVERT_TOL = 1e-10
# Seeded inversion roots lie in z* in [0.03, 0.30].  Above z ~ 0.31 an
# ambiguous bisection step sends the solver to a sharp retry that costs ~3 s,
# and whether a step is ambiguous depends on rho at the 1e-11 level, so the
# count of such calls would depend on the seed; below z ~ 0.03 an ambiguous
# step can return z outside the tolerance.  Endpoint covers the retry with
# fixed roots.
SEEDED_ROOTS = (0.03, 0.30)
# Endpoint roots are fixed, evenly over z* in [0.400, 0.411]; 6 of the 7 take
# the sharp retry today, so both inversion percentiles fall well inside the
# retry class.
ENDPOINT_ROOTS = 7

# The host's speed drifts by tens of percent over seconds to minutes.  Two
# fixed kernels timed among the calls measure it; times are reported at the
# speed where each kernel takes its CAL_REF_S, about its median on the host
# the benchmark was built on (see pass_metrics).
CAL_PER_ROUND = 100
SPEED_KERNELS = 24  # the kernels nearest a call that give its host speed
# A call longer than this is reported as timed: its own length averages the
# drift, and kernels sampled at its edges do not follow it (proof's verify:
# rescaling widened its quartile spread from 0.03 to 0.15 over five runs).
UNSCALED_S = 10.0

VERIFY_NAMES = ("golden_coefficients", "ode_residuals", "f_positivity", "lemma1", "cont1",
                "cont2", "euler_transform", "id_hyp", "id_war", "remark1_derivative",
                "adjoint_form")


def strata(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """One uniform draw in each of n equal strata of [lo, hi)."""
    return [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]


def grid(lo: float, hi: float, n: int) -> list:
    """The centres of n equal cells of [lo, hi): fixed inputs."""
    return [lo + (hi - lo) * (k + 0.5) / n for k in range(n)]


def z_from_gap(gap: float) -> float:
    """The z whose family argument x = 4z^2/(1-z^2)^2 equals 1 - gap."""
    x = 1.0 - gap
    return (math.sqrt(x + 1.0) - 1.0) / math.sqrt(x)


def _gap_at(z: float) -> float:
    t = z * z
    return 1.0 - 4.0 * t / (1.0 - t) ** 2


@dataclass
class Plan:
    verify_order: int
    cold: bool                  # passes start from empty memo caches (proof)
    direct: list
    evals: list                 # (function name, z, target)
    derivs: list
    inverts: list               # root z*; the target is rho = float(Iso(z*))
    scans: list                 # (label, function name, args, kwargs)
    fixed_evals: list = field(default_factory=list)  # failing today; not seeded
    taylor: int = 0

    def oracle_request(self) -> dict:
        iso_z = sorted({repr(z) for z in self.direct}
                       | {repr(z) for _, z, _ in self.evals + self.fixed_evals})
        return {"iso": iso_z, "deriv": [repr(z) for z in self.derivs],
                "roots": [repr(z) for z in self.inverts], "taylor": self.taylor}


CLI_SCANS = [
    ("mono-iso", "scan_monotonicity", ("iso",), {"grid": 1000}),
    ("mono-w", "scan_monotonicity", ("w",), {"grid": 1000, "a": numerics.rat(1, 2)}),
    ("convex-iso-sqrt", "scan_convexity", ("iso_sqrt",), {"grid": 1000}),
    ("convex-inv-iso-sqrt", "scan_convexity", ("inv_iso_sqrt",), {"grid": 1000}),
    ("nonconvex-iso", "scan_convexity", ("iso",), {"grid": 1000}),
]


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "proof":
        return Plan(
            verify_order=40, cold=True,
            direct=strata(rng, 0.0, 0.38, 16),
            # float calls of each kind, under 1 % of the pass, so every metric
            # exists here; 400 evals keep bound_ratio_p50 steady across seeds
            evals=[(f, z, t) for z in strata(rng, 0.0, 0.38, 100)
                   for f in ("iso", "iso_squared") for t in (1e-10, 1e-12)],
            derivs=strata(rng, 0.0, 0.38, 20),
            inverts=strata(rng, *SEEDED_ROOTS, 20),
            scans=[(label, fname, args, {**kwargs, "grid": 200})
                   for label, fname, args, kwargs in CLI_SCANS],
            taylor=8,
        )
    if workload == "query":
        zs = strata(rng, 0.0, 0.39, 100)
        return Plan(
            verify_order=8, cold=False,
            direct=strata(rng, 0.0, 0.39, 2),
            evals=[(f, z, t) for z in zs for f in ("iso", "iso_squared") for t in (1e-10, 1e-12)],
            derivs=strata(rng, 0.0, 0.39, 100),
            inverts=strata(rng, *SEEDED_ROOTS, 100),
            scans=CLI_SCANS,
        )
    if workload == "endpoint":
        # 1 - x spread evenly over its decades, from x(0.40) = 0.907 to 1 - 3e-4
        logs = strata(rng, math.log10(3e-4), math.log10(_gap_at(0.40)), 200)
        zs = [z_from_gap(10.0 ** g) for g in logs]
        z_edge = numerics.Z_MAX - 1e-6
        return Plan(
            verify_order=8, cold=False,
            direct=strata(rng, 0.400, 0.402, 2),
            evals=[(f, z, 1e-10) for z in zs for f in ("iso", "iso_squared")] * 2,
            # fixed inputs that fail today: target 1e-12 past z = 0.405, and
            # 1e-10 within 1e-5 of Z_MAX (bound floor ~1.7e-9 in _eval_family)
            fixed_evals=[(f, z, t) for z, t in ((0.41, 1e-12), (z_edge, 1e-10))
                         for f in ("iso", "iso_squared")],
            # fixed, and failing today: the generic-path series diverge at x = 1
            derivs=[0.402, 0.405, 0.408, 0.41],
            # fixed: rho from iso(0.40) to 0.9999; some take the sharp retry
            inverts=grid(0.400, 0.411, ENDPOINT_ROOTS),
            # the scans whose grids run to x = 1, next to the five CLI ones
            scans=CLI_SCANS + [
                ("mono-w[3/2]", "scan_monotonicity", ("w",), {"grid": 1000, "a": numerics.rat(3, 2)}),
                ("mono-h", "scan_monotonicity", ("h",), {"grid": 1000})],
        )
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# One pass
# --------------------------------------------------------------------------

@dataclass
class Op:
    kind: str
    start: float
    seconds: float
    verdict: Verdict = OK
    returned: bool = True       # the call returned a value (it did not raise)
    ratio: float | None = None  # achieved bound / requested target (evals)
    points: int = 0             # grid points (scans)
    cold: bool = False          # first iso_direct after the caches were cleared


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # judged by the checker, never silently dropped
        out = exc
    return out, start, time.perf_counter() - start


def interpreter_kernel():
    """Fixed rational and float arithmetic in the interpreter; no isotorus
    code.  Its time follows the host's speed for the float evaluation,
    inversion and scan calls."""
    acc, x = Fraction(0), 1.0
    for k in range(1, 80):
        acc += Fraction(1, k * k)
    for _ in range(4000):
        x = x * 1.0000001 + 1e-9
    return acc, x


def bigint_kernel():
    """Fixed big-integer arithmetic; no isotorus code.  Its time follows the
    host's speed for the exact layer's calls (verify, iso_direct), whose
    rational arithmetic is big-integer work."""
    n = 3 ** 3000
    for k in range(150):
        n = (n * 1234567 + k) // 7
    return n


KERNELS = {"cal.interp": interpreter_kernel, "cal.bigint": bigint_kernel}
CAL_REF_S = {"cal.interp": 0.55e-3, "cal.bigint": 0.40e-3}
KERNEL_OF = {"verify": "cal.bigint", "fault": "cal.bigint", "direct": "cal.bigint"}
# every other kind: cal.interp


def calibrate(kind: str) -> Op:
    start = time.perf_counter()
    KERNELS[kind]()
    return Op(kind, start, time.perf_counter() - start)


def _verify(order: int) -> Op:
    """The CLI verify command, in-process."""
    buf = io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(["verify", "--order", str(order)], standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    seconds = time.perf_counter() - start
    rows = [line.split() for line in buf.getvalue().splitlines() if line.strip()]

    def holds(_):
        if code != 0:
            return f"verify exited {code}"
        if tuple(r[0] for r in rows) != VERIFY_NAMES or any(r[1] != "verified" for r in rows):
            return "verify did not report all 11 checks verified"
        return ""

    return Op("verify", start, seconds, check_property(None, holds))


def _scan_holds(label):
    def holds(report):
        if report.violations:
            return f"{label}: {report.violations} violations"
        if report.sign_change_detected is not None and len(report.witnesses) != 2:
            return f"{label}: sign change not witnessed"
        return "" if report.passed else f"{label}: scan did not pass"
    return holds


def _direct(z, refs):
    out, start, secs = _timed(numerics.iso_direct, z)
    return Op("direct", start, secs, check_interval(out, refs["iso"][repr(z)]["iso"], DECLARED),
              returned=not isinstance(out, Exception))


def _eval(name, z, target, refs):
    out, start, secs = _timed(getattr(numerics, name), z, target=target)
    returned = not isinstance(out, Exception)
    return Op("eval", start, secs, check_interval(out, refs["iso"][repr(z)][name], DECLARED),
              returned, ratio=out.abs_error_bound / target if returned else None)


def _deriv(z, refs):
    out, start, secs = _timed(numerics.iso_derivative, z)
    return Op("deriv", start, secs, check_interval(out, refs["deriv"][repr(z)], DECLARED),
              returned=not isinstance(out, Exception))


def _invert(z, refs):
    ref = refs["roots"][repr(z)]
    query = solver.InverseQuery(float(ref["rho"]), INVERT_TOL)
    out, start, secs = _timed(solver.invert_iso, query)
    return Op("invert", start, secs, check_inversion(out, ref["root"], INVERT_TOL, DECLARED),
              returned=not isinstance(out, Exception))


def _scan(label, fname, args, kwargs):
    out, start, secs = _timed(getattr(numerics, fname), *args, **kwargs)
    returned = not isinstance(out, Exception)
    return Op("scan", start, secs, check_property(out, _scan_holds(label), DECLARED),
              returned, points=out.grid_size if returned else 0)


def _fault(order):
    def fault_check():
        bad = perturbed(identities.expand_abar(order), 3, 1)
        return identities.verify_odes(order, abar=bad)

    out, start, secs = _timed(fault_check)
    return Op("fault", start, secs, check_property(
        out, lambda r: "" if r.status == "failed" else "perturbed Abar passed the ODE check",
        DECLARED))


def _interleaved(groups: dict) -> list:
    """All calls, each group spread evenly over the sequence, so every kind
    of call samples the whole pass rather than one stretch of it."""
    keyed = [((i + 0.5) / len(calls), name, i, call)
             for name, calls in groups.items() for i, call in enumerate(calls)]
    return [call for *_, call in sorted(keyed, key=lambda k: k[:3])]


def _float_round(plan: Plan, refs: dict) -> list:
    groups = {
        "direct": [partial(_direct, z, refs) for z in plan.direct],
        "eval": [partial(_eval, name, z, t, refs) for name, z, t in plan.evals],
        "eval-fixed": [partial(_eval, name, z, t, refs) for name, z, t in plan.fixed_evals],
        "deriv": [partial(_deriv, z, refs) for z in plan.derivs],
        "invert": [partial(_invert, z, refs) for z in plan.inverts],
        "scan": [partial(_scan, *spec) for spec in plan.scans],
        "cal.interp": [partial(calibrate, "cal.interp")] * CAL_PER_ROUND,
        "cal.bigint": [partial(calibrate, "cal.bigint")] * CAL_PER_ROUND,
    }
    return [call() for call in _interleaved(groups)]


def run_pass(plan: Plan, refs: dict) -> list:
    """One pass over the plan's calls; each call is timed alone and judged
    after its clock stops.

    A cold plan (proof) clears every memo cache first, so its verify command
    starts from the caches a fresh ``isotorus verify`` process has, none,
    and its first iso_direct call is cold."""
    if not plan.cold:
        return _float_round(plan, refs)
    for cache in CACHES:
        cache.cache_clear()
    ops = [_verify(plan.verify_order), _fault(plan.verify_order)] + _float_round(plan, refs)
    next(o for o in ops if o.kind == "direct").cold = True
    return ops


def warm_up(plan: Plan) -> list:
    """Query and endpoint: time the process's first ``verify`` command, which
    starts from empty memo caches as a fresh ``isotorus verify`` does,
    between two runs of big-integer kernels; then fill the ``iso_direct``
    cache.  The timed ops; none on proof, whose every pass starts cold."""
    if plan.cold:
        return []
    for cache in CACHES:
        cache.cache_clear()
    kernels = [partial(calibrate, "cal.bigint")] * (SPEED_KERNELS // 2)
    ops = [call() for call in kernels + [partial(_verify, plan.verify_order)] + kernels]
    numerics.iso_direct(0.1)
    return ops


def check_expansions(plan: Plan, refs: dict) -> list:
    """Compare the first Taylor coefficients of Abar and Vbar with the
    oracle's, from the paper's closed form; the disagreements."""
    problems = []
    for name, expand in (("abar", identities.expand_abar), ("vbar", identities.expand_vbar)):
        exact = expand(plan.taylor).coefficients if plan.taylor else ()
        for n, (want, got) in enumerate(zip(refs["taylor"].get(name, ()), exact)):
            if abs(Fraction(want) - got) > abs(got) * Fraction(1, 10 ** 25):
                problems.append(f"{name} coefficient {n}: oracle {want}, expansion {got}")
    return problems


# --------------------------------------------------------------------------
# Metrics of one pass
# --------------------------------------------------------------------------

def tail(values) -> float:
    """The pass's 90th percentile (nearest rank), which has at least ten
    samples beyond it wherever a kind has 100 or more calls per pass; the
    median where a kind has too few calls for a tail."""
    s = sorted(values)
    return s[math.ceil(0.9 * len(s)) - 1] if len(s) >= 100 else statistics.median(s)


def _metrics(ops: list, seconds) -> dict:
    """The metrics of the kinds of call present in ``ops``."""
    def ms(kind):
        return [seconds(o) * 1e3 for o in ops if o.kind == kind and o.returned and not o.cold]

    out = {"wall_s": sum(seconds(o) for o in ops)}
    verify = [seconds(o) for o in ops if o.kind == "verify"]
    if verify:
        out["verify_s"] = statistics.median(verify)
    for name, kind, stat in (("direct_ms_p50", "direct", statistics.median),
                             ("eval_ms_p50", "eval", statistics.median),
                             ("eval_ms_tail", "eval", tail),
                             ("deriv_ms_p50", "deriv", statistics.median),
                             ("invert_ms_p50", "invert", statistics.median),
                             ("invert_ms_tail", "invert", tail)):
        if ms(kind):
            out[name] = stat(ms(kind))
    scans = [o for o in ops if o.kind == "scan" and o.returned]
    if scans:
        out["scan_pts_per_s"] = sum(o.points for o in scans) / sum(seconds(o) for o in scans)
    ratios = [o.ratio for o in ops if o.ratio is not None]
    if ratios:
        out["bound_ratio_p50"] = statistics.median(ratios)
    return out


def pass_metrics(ops: list):
    """(metrics at the reference host speed, the same metrics as timed).

    Each call's time is multiplied by the host speed around it: CAL_REF_S
    over the median time of the SPEED_KERNELS kernels of its kind
    (KERNEL_OF) that ran nearest the call's midpoint.  Calls longer than
    UNSCALED_S keep their time as timed.  ``wall_s`` is the sum
    over the calls, so neither the kernels nor the judging of results count
    in it."""
    samples = {k: sorted((o.start, o.seconds) for o in ops if o.kind == k) for k in KERNELS}
    starts = {k: [t for t, _ in cal] for k, cal in samples.items()}

    def speed(op):
        if op.seconds > UNSCALED_S:
            return 1.0
        kernel = KERNEL_OF.get(op.kind, "cal.interp")
        at = bisect.bisect_left(starts[kernel], op.start + op.seconds / 2)
        lo = max(0, min(at - SPEED_KERNELS // 2, len(starts[kernel]) - SPEED_KERNELS))
        near = samples[kernel][lo:lo + SPEED_KERNELS]
        return CAL_REF_S[kernel] / statistics.median(d for _, d in near)

    calls = [o for o in ops if o.kind not in KERNELS]
    speeds = {id(o): speed(o) for o in calls}
    scaled = _metrics(calls, lambda o: o.seconds * speeds[id(o)])
    raw = _metrics(calls, lambda o: o.seconds)
    for kernel, cal in samples.items():
        if cal:
            raw[f"speed.{kernel}"] = CAL_REF_S[kernel] / statistics.median(d for _, d in cal)
    return scaled, raw
