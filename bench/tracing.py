"""Span tracing of competelab's public functions, installed from outside the package.

``Tracer.installed()`` wraps every public function of the six modules and
rebinds each name that refers to it in any ``competelab`` module, so a
function imported by name (``F_eval`` in both ``solve`` and ``energy``,
``minimize_multistart`` in ``lab`` and ``cli``) is traced wherever it is
called.  The coupling closures are wrapped on the ``Coupling`` that the
traced ``coupling_quartic`` returns.  Spans live in memory as
``[name, start, end, parent, info]`` lists; leaving the context restores
the original bindings.

The rest of the module turns the spans of one traced repetition into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

MODULES = ("geometry", "model", "energy", "solve", "lab", "cli")
# The mask builders are one layer: each workload uses one of them.
RENAME = {f"geometry.build_{kind}": "geometry.build_mask"
          for kind in ("rectangle", "disc", "wedge")}
# Per-field CSV formatting: a span per call would cost more than the call.
SKIP = {"lab.fmt"}


def _path_arg(args, kwargs):
    return str(args[1] if len(args) > 1 else kwargs["path"])


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _solve_info(result, args, kwargs, token):
    return result.iters, bool(result.converged)


def _written(result, args, kwargs, before):
    return _size(_path_arg(args, kwargs)) - before


def _size_before(args, kwargs):
    return _size(_path_arg(args, kwargs))


# name -> (pre, post); post's return value becomes the span's info.
HOOKS = {
    "solve.minimize_free": (None, _solve_info),
    "solve.minimize_partition": (None, _solve_info),
    "lab.write_records_csv": (lambda a, kw: 0, _written),
    "lab.append_manifest": (_size_before, _written),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pre, post = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post:
                span[4] = post(result, args, kwargs, token)
            return result
        return traced

    def _coupling_factory(self, fn):
        @functools.wraps(fn)
        def coupling(*args, **kwargs):
            c = fn(*args, **kwargs)
            return dataclasses.replace(c, H=self.wrap("model.coupling_H", c.H),
                                       dH=self.wrap("model.coupling_dH", c.dH))
        return coupling

    @contextmanager
    def installed(self):
        package = [m for n, m in list(sys.modules.items())
                   if n == "competelab" or n.startswith("competelab.")]
        replace = {}
        for short in MODULES:
            mod = importlib.import_module(f"competelab.{short}")
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if name == "model.coupling_quartic":
                    fn_ = self._coupling_factory(fn)
                    replace[id(fn)] = self.wrap(name, fn_)
                else:
                    replace[id(fn)] = self.wrap(RENAME.get(name, name), fn)
        saved = []
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, replace[id(value)])
        try:
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)

    def dump(self, path: str) -> None:
        """One JSON object per span: id, name, start, end, parent, info."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "info": info}) + "\n")


# Per-layer metrics: span name and the fields reported for it, each summed
# over the spans of one traced repetition.
SPAN_METRICS = [
    ("solve.minimize_free", ("calls", "self_s", "iters", "converged_frac")),
    ("model.F_eval", ("calls", "self_s")),
    ("model.f_eval", ("calls", "self_s")),
    ("model.coupling_H", ("calls", "self_s")),
    ("model.coupling_dH", ("calls", "self_s")),
    ("solve.minimize_partition", ("calls", "self_s", "iters", "converged_frac")),
    ("solve.segregation_projection", ("calls", "self_s")),
    ("solve.kappa_continuation", ("total_s",)),
    ("energy.lambda1", ("calls", "self_s")),
    ("energy.energy_total", ("calls", "self_s")),
    ("energy.rescaled_copy", ("calls", "self_s")),
    ("solve.default_initializers", ("calls", "self_s")),
    ("geometry.build_mask", ("calls", "self_s")),
    ("lab.write_records_csv", ("calls", "self_s")),
    ("lab.append_manifest", ("calls", "self_s")),
]
FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
               "iters": "count", "converged_frac": "ratio"}
# Counts that must repeat exactly between traced repetitions of one seed.
EXACT_FIELDS = ("calls", "iters")


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, infos.

    Self time is a span's duration minus the time its direct children cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, info in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, info) in enumerate(spans):
        a = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "info": []})
        a["calls"] += 1
        a["self_s"] += end - start - child[i]
        if parent < 0 or spans[parent][0] != name:
            a["total_s"] += end - start
        if info is not None:
            a["info"].append(info)
    return out


def layer_metrics(agg: dict) -> dict:
    """Per-layer values of one traced repetition."""
    out = {}
    for span, fields in SPAN_METRICS:
        a = agg.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "info": []})
        for field in fields:
            if field == "iters":
                value = sum(it for it, _ in a["info"])
            elif field == "converged_frac":
                value = (sum(c for _, c in a["info"]) / len(a["info"])
                         if a["info"] else 0.0)
            else:
                value = a[field]
            out[f"{span}.{field}"] = value
    grads = out["model.f_eval.calls"]
    out["solve.evals_per_iter"] = out["model.F_eval.calls"] / grads if grads else 0.0
    bytes_written = 0
    for span in ("lab.write_records_csv", "lab.append_manifest"):
        bytes_written += sum(agg.get(span, {"info": []})["info"])
    out["lab.bytes_written"] = bytes_written
    for module in MODULES:
        out[f"{module}.self_s"] = sum(a["self_s"] for n, a in agg.items()
                                      if n.startswith(module + "."))
    return out


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in the order they are reported."""
    units = {}
    for span, fields in SPAN_METRICS:
        for field in fields:
            units[f"{span}.{field}"] = FIELD_UNITS[field]
    units.update({"solve.evals_per_iter": "ratio", "lab.bytes_written": "bytes",
                  "lab.sweep.pool_busy_frac": "ratio",
                  "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
                  "check.failed_frac": "ratio", "check.result_excess_rel": "ratio"})
    units.update({f"{m}.self_s": "s" for m in MODULES})
    return units


def repeat_check(layer_reps, check) -> None:
    """Exact-count self-check: at one seed, every traced repetition must
    make the same calls and iterations."""
    for key in layer_reps[0] if layer_reps else ():
        values = [rep[key] for rep in layer_reps]
        if key.rsplit(".", 1)[-1] in EXACT_FIELDS:
            check.attempted += 1
            if len(set(values)) > 1:
                check.failed += 1
                check.problems.append(f"count {key} differs between traced "
                                      f"repetitions of one seed: {values}")


def traced_metrics(layer_reps, walls, traced_walls, busy, check) -> dict:
    """Per-layer values: counts from the first traced repetition (they
    repeat exactly), times as medians over the traced repetitions."""
    reps = layer_reps or [layer_metrics({})]
    metrics = {}
    for key in reps[0]:
        if key.rsplit(".", 1)[-1] in EXACT_FIELDS:
            metrics[key] = reps[0][key]
        else:
            metrics[key] = statistics.median(rep[key] for rep in reps)
    plain = statistics.median(walls)
    traced = statistics.median(traced_walls)
    metrics["lab.sweep.pool_busy_frac"] = statistics.median(busy) if busy else 0.0
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.overhead_frac"] = (traced - plain) / plain
    metrics["check.failed_frac"] = check.failed / check.attempted
    metrics["check.result_excess_rel"] = check.excess
    return metrics
