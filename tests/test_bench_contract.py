"""The names the benchmark under ``bench/`` takes from the package.

The benchmark clears memo caches, builds its plans from package constants
and wraps package functions by name; a rename in the package fails here
instead of in every benchmark run.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
import isotorus  # noqa: E402
from isotorus import identities, numerics  # noqa: E402


def test_caches_can_be_cleared():
    for cache in workloads.CACHES:
        assert callable(cache.cache_clear), cache


def test_every_memo_cache_is_cleared_by_the_benchmark():
    # A proof pass clears workloads.CACHES and nothing else, so a memo cache
    # missing there would make later passes warm.  Methods are searched too.
    def caches(owner):
        values = [getattr(owner, name) for name in vars(owner)]
        return {v for v in values if callable(getattr(v, "cache_clear", None))}

    found = set()
    for info in pkgutil.iter_modules(isotorus.__path__, "isotorus."):
        module = importlib.import_module(info.name)
        found |= caches(module)
        for cls in vars(module).values():
            if isinstance(cls, type):
                found |= caches(cls)
    assert found == set(workloads.CACHES)


@pytest.mark.parametrize("workload", ["proof", "query", "endpoint"])
def test_make_plan(workload):
    plan = workloads.make_plan(workload, 1)
    assert plan.evals and plan.derivs and plan.inverts and plan.scans
    for _, fname, _, _ in plan.scans:
        assert callable(getattr(numerics, fname))
    for fname, _, _ in plan.evals + plan.fixed_evals:
        assert callable(getattr(numerics, fname))


def test_tracer_installs_records_and_uninstalls():
    original = numerics.eval_2f1
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert numerics.eval_2f1 is not original
        numerics.iso(0.2)
        numerics.iso_derivative(0.2)
        # the evaluators sum their series through the kernel, not through
        # the checked public eval_2f1: only a direct call records its span
        numerics.eval_2f1(numerics.SPEC_AREA, 0.3)
    finally:
        tracer.uninstall()
    assert numerics.eval_2f1 is original
    names = {span.name for span in tracer.spans}
    assert {"numerics.iso", "numerics.eval_2f1", "numerics.iso_derivative"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["numerics.eval_2f1.calls"] == 1


def test_tracer_records_exact_layer_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = identities.verify_all(4)
    finally:
        tracer.uninstall()
    assert all(r.verified for r in reports)
    names = {span.name for span in tracer.spans}
    assert {"series.hyp", "series.pow", "series.mul"} <= names
