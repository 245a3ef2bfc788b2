"""isotorus benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload {proof,query,endpoint} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported from
``src/``.  The order of a run:

1. set-up time: ``import isotorus, isotorus.cli`` timed in fresh processes;
2. references: ``bench/oracle.py`` (mpmath, 30 digits) in its own process;
3. on query and endpoint, a timed cold ``verify --order 8`` (``verify_s``);
   then passes over the workload's calls until S seconds have gone (at
   least one whole pass), every call checked after its clock stops;
4. with ``--trace 1``: one untraced and one traced pass instead, giving the
   per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The spans and a
fuller record of the run are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "verify_s": "s", "direct_ms_p50": "ms",
    "eval_ms_p50": "ms", "eval_ms_tail": "ms", "deriv_ms_p50": "ms",
    "invert_ms_p50": "ms", "invert_ms_tail": "ms", "scan_pts_per_s": "1/s",
    "bound_ratio_p50": "ratio", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return "s" if last in ("s", "self_s", "cold_s") else "%" if last == "overhead_pct" else "count"


SETUP_CODE = """
import time
t = time.perf_counter()
import isotorus, isotorus.cli
print(time.perf_counter() - t)
import workloads
for _ in range(9):
    print(workloads.calibrate("cal.interp").seconds)
"""


def setup_seconds(cal_ref: float) -> tuple:
    """Median import time of the package and its CLI in fresh processes, at
    the reference host speed (each process times the calibration kernel after
    its import), and as timed."""
    env = {**os.environ, "PYTHONPATH": f"{SRC}:{BENCH}"}
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, *cal = (float(v) for v in done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * cal_ref / statistics.median(cal))
    return statistics.median(scaled), statistics.median(raw)


def seconds_by_kind(ops: list) -> dict:
    """Time as timed per kind of call (and kernel) in one pass."""
    out = {}
    for o in ops:
        out[o.kind] = out.get(o.kind, 0.0) + o.seconds
    return out


def references(request: dict) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "oracle.py")], input=json.dumps(request),
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("proof", "query", "endpoint"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "isotorus" / "__init__.py").is_file():
        print(f"error: no isotorus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from isotorus import series
    import workloads
    from tracing import Tracer

    setup_s, setup_raw_s = setup_seconds(workloads.CAL_REF_S["cal.interp"])
    plan = workloads.make_plan(args.workload, args.seed)
    refs = references(plan.oracle_request())
    problems = workloads.check_expansions(plan, refs)

    warm = workloads.warm_up(plan)
    passes = []
    tracer = None
    start = time.perf_counter()
    while True:
        if args.trace and passes:
            tracer = Tracer()
            tracer.install()
        try:
            ops = workloads.run_pass(plan, refs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(ops)
        if tracer is not None or (not args.trace and time.perf_counter() - start >= args.seconds):
            break

    ops = [o for pass_ops in passes for o in pass_ops if o.kind not in workloads.KERNELS]
    failures = Counter(f"{o.kind}: {o.verdict.reason}" for o in ops if o.verdict.failed)
    problems += sorted({f"{o.kind}: {o.verdict.reason}" for o in ops + warm if o.verdict.wrong})
    per_pass, per_pass_raw = zip(*(workloads.pass_metrics(o) for o in passes))
    warm_metrics = workloads.pass_metrics(warm) if warm else ({}, {})
    backend = f"{series.Rational.__module__}.{series.Rational.__name__}"

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
        layer = tracer.layer_metrics()
        layer["trace.overhead_pct"] = 100.0 * (per_pass[1]["wall_s"] / per_pass[0]["wall_s"] - 1.0)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        values.update((k, v) for k, v in warm_metrics[0].items() if k != "wall_s")
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    result = {"correct": not problems, "attempted": len(ops), "failed": sum(failures.values()),
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(), "backend": backend,
              "setup_s": setup_s, "setup_raw_s": setup_raw_s, "passes": per_pass,
              "passes_as_timed": per_pass_raw, "warm_up": warm_metrics,
              "seconds_by_kind": [seconds_by_kind(p) for p in passes], "failures": dict(failures),
              "problems": problems, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"python {platform.python_version()}  backend {backend}")
    print(f"calls attempted {result['attempted']}  failed {result['failed']}")
    for reason, count in sorted(failures.items())[:20]:
        print(f"  failed x{count}: {reason}")
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
