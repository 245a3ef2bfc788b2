"""Span tracer for the traced benchmark run.

It wraps the public functions of each isotorus layer from outside the
package: every name under which a module bound a function (``solver`` binds
``iso`` at import, ``numerics`` binds ``expand_abar``/``expand_vbar``) gets
the wrapper, and methods are wrapped on their class.  Spans are kept in
memory and written out when the run ends.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

from isotorus import cli, identities, numerics, series, solver

from workloads import VERIFY_NAMES

IDENTITY_CHECKS = (
    "verify_golden_coefficients", "verify_odes", "verify_f_positivity", "verify_lemma1",
    "verify_contiguous", "verify_euler_transform", "verify_id_hyp", "verify_id_war",
    "verify_remark1_derivative", "verify_adjoint_form",
)
SHARP_TARGET = 1e-13  # the solver's retry target (solver.invert_iso)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    outer: bool = True      # no enclosing span of the same group
    in_verify: bool = False  # inside a cli.verify span
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, group: str, fn, note=None):
        """Wrapper recording one span per call; ``note(args, kwargs, result)``
        returns extra attributes, and may rename the span with a "name" key."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            span = Span(group, tracer._stack[-1] if tracer._stack else None, 0.0)
            span.outer = tracer._depth.get(group, 0) == 0
            span.in_verify = tracer._depth.get("cli.verify", 0) > 0
            tracer.spans.append(span)
            tracer._stack.append(sid)
            tracer._depth[group] = tracer._depth.get(group, 0) + 1
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                tracer._depth[group] -= 1
                tracer._stack.pop()
                if note is not None:
                    span.attrs = note(args, kwargs, result)
                    span.name = span.attrs.pop("name", group)

        return traced

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install_function(self, fn, wrapper):
        """Replace ``fn`` under every name an isotorus module bound it to."""
        for name, module in list(sys.modules.items()):
            if name == "isotorus" or name.startswith("isotorus."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)

    def install(self):
        def products(args, kwargs, result):
            n = min(args[0].order, args[1].order)
            return {"products": (n + 1) * (n + 2) // 2}

        for attr, group, note in (("__mul__", "series.mul", products),
                                  ("__truediv__", "series.div", None),
                                  ("compose", "series.compose", None),
                                  ("evaluate", "series.evaluate", None)):
            self._set(series.PowerSeries, attr, self.wrap(group, getattr(series.PowerSeries, attr), note))
        self._set(series.HypergeometricSpec, "series",
                  self.wrap("series.hyp", series.HypergeometricSpec.series))
        self._install_function(series.series_pow, self.wrap("series.pow", series.series_pow))

        def identity(args, kwargs, result):
            if result is None:
                return {"name": "identities.raised", "samples": 0}
            return {"name": f"identities.{result.identity_name}",
                    "samples": len(result.parameter_samples)}

        for fname in IDENTITY_CHECKS:
            fn = getattr(identities, fname)
            self._install_function(fn, self.wrap("identities.check", fn, identity))
        for fname in ("expand_abar", "expand_vbar", "expand_f"):
            fn = getattr(identities, fname)
            self._install_function(fn, self.wrap("identities.expand", fn))

        def eval_note(args, kwargs, result):
            return {"generic": not numerics._in_family(args[0]),
                    "flagged": bool(result is not None and result.flag)}

        def iso_note(args, kwargs, result):
            return {"target": kwargs.get("target", args[1] if len(args) > 1 else 1e-10)}

        self._install_function(numerics.eval_2f1, self.wrap("numerics.eval_2f1", numerics.eval_2f1, eval_note))
        for fname in ("iso", "iso_squared"):
            fn = getattr(numerics, fname)
            self._install_function(fn, self.wrap("numerics.iso", fn, iso_note))
        for fname in ("iso_derivative", "iso_direct"):
            fn = getattr(numerics, fname)
            self._install_function(fn, self.wrap(f"numerics.{fname}", fn))

        def scan_note(args, kwargs, result):
            if result is None:
                return {"points": 0, "inconclusive": 0}
            return {"points": result.grid_size, "inconclusive": result.inconclusive}

        for fname in ("scan_monotonicity", "scan_convexity"):
            fn = getattr(numerics, fname)
            self._install_function(fn, self.wrap("numerics.scan", fn, scan_note))

        def invert_note(args, kwargs, result):
            return {"iterations": result.iterations if result is not None else 0}

        self._install_function(solver.invert_iso, self.wrap("solver.invert", solver.invert_iso, invert_note))
        self._set(cli.verify_cmd, "callback", self.wrap("cli.verify", cli.verify_cmd.callback))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, "attrs": s.attrs}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer totals over every recorded span (units in PER_LAYER)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds

        def named(name):
            return [s for s in spans if s.name == name]

        def outer_s(name):
            return sum(s.seconds for s in named(name) if s.outer)

        def self_s(name):
            return sum(s.seconds - child_time[i] for i, s in enumerate(spans) if s.name == name)

        def attr_sum(name, key):
            return sum(s.attrs[key] for s in named(name))

        m = {
            "series.mul.calls": len(named("series.mul")),
            "series.mul.s": outer_s("series.mul"),
            "series.mul.products": attr_sum("series.mul", "products"),
            "series.div.s": outer_s("series.div"),
            "series.pow.s": outer_s("series.pow"),
            "series.hyp.s": outer_s("series.hyp"),
            "series.compose.calls": len(named("series.compose")),
            "series.compose.s": outer_s("series.compose"),
            "series.evaluate.s": outer_s("series.evaluate"),
        }
        checks = [s for s in spans if s.name.startswith("identities.")
                  and s.name != "identities.expand" and s.in_verify]
        for name in VERIFY_NAMES:
            m[f"identities.{name}.s"] = sum(s.seconds for s in checks if s.name == f"identities.{name}")
        m["identities.expand.s"] = outer_s("identities.expand")
        m["identities.samples"] = sum(s.attrs["samples"] for s in checks)

        evals = named("numerics.eval_2f1")
        directs = named("numerics.iso_direct")
        m.update({
            "numerics.eval_2f1.calls": len(evals),
            "numerics.eval_2f1.s": outer_s("numerics.eval_2f1"),
            "numerics.eval_2f1.flagged": sum(1 for s in evals if s.attrs["flagged"]),
            "numerics.eval_2f1.generic.s": sum(s.seconds for s in evals if s.attrs["generic"]),
            "numerics.iso.s": outer_s("numerics.iso"),
            "numerics.iso_derivative.s": outer_s("numerics.iso_derivative"),
            "numerics.iso_direct.s": outer_s("numerics.iso_direct"),
            "numerics.iso_direct.cold_s": directs[0].seconds if directs else 0.0,
            "numerics.scan.s": outer_s("numerics.scan"),
            "numerics.scan.points": attr_sum("numerics.scan", "points"),
            "numerics.scan.inconclusive": attr_sum("numerics.scan", "inconclusive"),
        })

        inverts = {i for i, s in enumerate(spans) if s.name == "solver.invert"}
        solver_isos = [s for s in spans if s.name == "numerics.iso" and s.parent in inverts]
        m.update({
            "solver.invert.self_s": self_s("solver.invert"),
            "solver.iso_calls": len(solver_isos),
            "solver.iterations": attr_sum("solver.invert", "iterations"),
            "solver.sharp_retries": sum(1 for s in solver_isos if s.attrs["target"] == SHARP_TARGET),
            "cli.verify.self_s": self_s("cli.verify"),
            "cli.verify.s": sum(s.seconds for s in named("cli.verify")),
        })
        return m
