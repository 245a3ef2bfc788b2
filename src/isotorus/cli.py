"""Command-line front end: evaluation, inversion, coefficient export, scans,
and the full exact verification suite.

Exit codes: 0 success, 1 verification failure or scan violation, 2 usage
error, 3 certified precision could not be achieved.
"""

from __future__ import annotations

import datetime
import json
import sys

import click

from . import identities, numerics, solver
from .series import parse_rational, perturbed

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


@click.group()
@click.option("--timestamp", is_flag=True, default=False,
              help="Prefix output with a timestamp (off by default for deterministic output).")
def main(timestamp):
    """Exact and certified computation for the Clifford-torus isoperimetric ratio."""
    if timestamp:
        click.echo(f"# {datetime.datetime.now().isoformat()}")


def _fmt_cv(cv) -> dict:
    out = {"value": cv.value, "bound": cv.abs_error_bound}
    if cv.flag:
        out["flag"] = cv.flag
    return out


@main.command("eval")
@click.option("--z", "z", type=float, required=True, help="Torus parameter in [0, sqrt(2)-1).")
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--target", type=float, default=1e-10, show_default=True,
              help="Requested absolute error bound.")
def eval_cmd(z, as_json, target):
    """Certified iso(z), iso(z)^2, and d(iso)/dz."""
    try:
        val = numerics.iso(z, target=target)
        sq = numerics.iso_squared(z, target=target)
        deriv = numerics.iso_derivative(z, target=target)
    except numerics.DomainError as exc:
        raise click.UsageError(str(exc))
    except numerics.BoundNotAchieved as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PRECISION)
    if as_json:
        payload = {"z": z, "iso": _fmt_cv(val), "iso_squared": _fmt_cv(sq),
                   "derivative": _fmt_cv(deriv)}
        click.echo(json.dumps(payload))
    else:
        click.echo(f"iso({z})      = {val.value!r} +/- {val.abs_error_bound:.3e}")
        click.echo(f"iso({z})^2    = {sq.value!r} +/- {sq.abs_error_bound:.3e}")
        click.echo(f"d iso/dz      = {deriv.value!r} +/- {deriv.abs_error_bound:.3e}")
    if val.flag or sq.flag or deriv.flag:
        sys.exit(EXIT_PRECISION)


@main.command("invert")
@click.option("--rho", type=float, required=True, help="Prescribed isoperimetric ratio.")
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="Absolute tolerance on the returned parameter.")
@click.option("--max-iterations", type=click.IntRange(min=1), default=200, show_default=True)
def invert_cmd(rho, tol, max_iterations):
    """Invert iso: prescribed ratio to torus parameter, as JSON."""
    try:
        query = solver.InverseQuery(rho, tol, max_iterations)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        result = solver.invert_iso(query)
    except solver.TargetOutOfRange as exc:
        raise click.UsageError(str(exc))
    click.echo(result.to_json())
    if result.flag:
        sys.exit(EXIT_PRECISION)


_SERIES = {"abar": identities.expand_abar, "vbar": identities.expand_vbar, "f": identities.expand_f}


@main.command("coeffs")
@click.option("--series", "series_name", type=click.Choice(sorted(_SERIES)), required=True)
@click.option("--order", type=click.IntRange(min=0), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None,
              help="Structured output; default is a plain comma-separated line.")
def coeffs_cmd(series_name, order, fmt):
    """Exact expansion coefficients as rationals ("p/q" strings)."""
    strings = _SERIES[series_name](order).to_strings()
    if fmt == "json":
        click.echo(json.dumps(strings))
    elif fmt == "csv":
        click.echo("n,coefficient")
        for n, s in enumerate(strings):
            click.echo(f"{n},{s}")
    else:
        click.echo(", ".join(strings))


# --inject-fault shifts this coefficient of Abar, whose ODE residual is then
# checked through z^(N-2) at --order N; those coefficients reach Abar through
# z^(N-1), so the fault is seen from order 4 on
_FAULT_INDEX = 3


@main.command("verify")
@click.option("--order", type=click.IntRange(min=0), default=40, show_default=True)
@click.option("--inject-fault", is_flag=True, default=False, hidden=True)
def verify_cmd(order, inject_fault):
    """Run every exact identity, ODE, and coefficient check, in one process.
    Each line names what its "verified" rests on: lemma1, cont1, cont2,
    euler_transform, id_hyp (with the Euler transform as its lemma),
    remark1_derivative and adjoint_form are proved for all parameters, and
    ode_residuals (the printed operators on the closed forms, by pullback),
    at every order, which --order only labels; id_war runs through --order
    at 2*order+3 samples, the count the degree bound needs; f_positivity
    reads d_n > 0 for n <= 200 from the solution of the flux operator from
    d_0, and proves the operator, its lemma flux_operator, in the same
    call.  The contiguity axioms each line lists, and the Euler transform,
    are checked once per run."""
    if inject_fault and order <= _FAULT_INDEX:
        raise click.UsageError(
            f"--inject-fault needs --order {_FAULT_INDEX + 1} or more: "
            f"the fault at z^{_FAULT_INDEX} lies past the checked residual"
        )
    reports = identities.verify_all(order=order)
    if inject_fault:
        bad = perturbed(identities.expand_abar(order), _FAULT_INDEX, 1)
        reports.append(identities.verify_odes(order, abar=bad))
    ok = True
    for r in reports:
        line = f"{r.identity_name:24s} {r.status:8s} order={r.verified_order} {r.certificate}"
        if r.failure_detail:
            line += f"  {json.dumps(r.failure_detail)}"
        click.echo(line)
        ok = ok and r.verified
    sys.exit(EXIT_OK if ok else EXIT_FAILED)


# scan --target: (scan function, its target)
_SCANS = {
    "mono-iso": (numerics.scan_monotonicity, "iso"),
    "mono-w": (numerics.scan_monotonicity, "w"),
    "convex-iso-sqrt": (numerics.scan_convexity, "iso_sqrt"),
    "convex-inv-iso-sqrt": (numerics.scan_convexity, "inv_iso_sqrt"),
    "nonconvex-iso": (numerics.scan_convexity, "iso"),
}
_SCAN_TARGETS = tuple(_SCANS)


@main.command("scan")
@click.option("--target", type=click.Choice(_SCAN_TARGETS), required=True)
@click.option("--grid", type=int, default=1000, show_default=True)
@click.option("--a", "a_param", type=str, default="1/2", show_default=True,
              help="Parameter for mono-w, as p/q.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write the per-point CSV here (summary always goes to stdout).")
def scan_cmd(target, grid, a_param, csv_path):
    """Certified monotonicity / convexity grid scans."""
    scan, which = _SCANS[target]
    try:
        extra = {"a": parse_rational(a_param)} if which == "w" else {}
        report = scan(which, grid=grid, **extra)
    except (ValueError, numerics.DomainError) as exc:
        raise click.UsageError(str(exc))
    except numerics.BoundNotAchieved as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PRECISION)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            fh.write(report.to_csv())
    click.echo(report.to_json())
    sys.exit(EXIT_OK if report.passed else EXIT_FAILED)


if __name__ == "__main__":
    main()
