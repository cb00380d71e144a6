"""Span tracing of the stringlab layers, from outside the package.

`Tracer.install()` replaces each layer function below with a wrapper at
every binding inside the `stringlab` package: the defining module, every
module that bound it with `from ... import`, and the package namespace.
Wrapping only the defining module would miss, say, every `evolve_cells`
call that `weak.completion_experiment` makes.  `Tracer.restore()` puts the
originals back.

Each wrapped call records a span (name, pass id, parent span, start, end)
in memory, plus work counts derived from its input and output array sizes.
Counts are computed after the span closes; their cost is excluded from the
layer times and shows only in the traced pass wall time, which is what the
trace overhead measures.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

import numpy as np

from stringlab import characteristics, finite_volume, geometry, profiles, validate, waves, weak

_F8 = 8  # bytes per float64


def _arg(a, kw, i, name, default=None):
    if len(a) > i:
        return a[i]
    return kw.get(name, default)


def _size(x) -> int:
    return int(np.size(x))


def _c_build_flow(res, a, kw):
    nodes = res.xi_nodes if res.mode == "smooth" else res.y_edges
    return {"table_nodes": len(nodes)}


def _c_xi_time_inverse(res, a, kw):
    flow, t, s = _arg(a, kw, 0, "flow"), _arg(a, kw, 1, "t"), _arg(a, kw, 2, "s")
    s = np.asarray(s, dtype=float)
    resid = 0.0
    if s.size:
        xi, _, _ = characteristics.xi_evaluate(flow, t, res)
        resid = float(np.max(np.abs(xi - s)))
    return {"points": s.size, "residual_max": resid}


def _c_points_arg(index, name):
    def counts(res, a, kw):
        return {"points": _size(_arg(a, kw, index, name))}
    return counts


def _c_solve_augmented(res, a, kw):
    return {"points": res.n}


def _c_reconstruct(res, a, kw):
    return {"time_slices": len(res)}


def _c_evolve_cells(res, a, kw):
    return {"cells": res.m}


def _c_pairing_tables(res, a, kw):
    fields, family = _arg(a, kw, 0, "fields_by_time"), _arg(a, kw, 1, "family")
    width = res.shape[-1]
    per_pair = 0
    for src in fields.values():
        cells = src.m if isinstance(src, profiles.CellField) else src.n
        # per (time, test function): breaks in, states in, one row out
        per_pair += (cells + 1) + cells * width + width
    return {"pairings": len(fields) * len(family), "bytes_computed": _F8 * per_pair * len(family)}


def _c_observable_matrix(res, a, kw):
    return {"rows": _size(_arg(a, kw, 0, "states").tau)}


def _c_antiderivative(res, a, kw):
    g, s = a[0], np.asarray(_arg(a[1:], kw, 0, "s"), dtype=float)
    lo, hi = g.support()
    return {"points": s.size, "in_support": int(np.count_nonzero((s >= lo) & (s <= hi)))}


def _c_oscillate(res, a, kw):
    out, plan = res
    return {"samples": out.n, "max_weight_quantization": plan.max_weight_quantization}


def _c_states(res, a, kw):
    return {"states": _size(_arg(a, kw, 0, "U").tau)}


def _c_advance(res, a, kw):
    state, steps = _arg(a, kw, 0, "state"), res[1]
    updates = steps * state.n
    # each step reads and writes Y and Z (d values each) of every cell
    return {"steps": steps, "cell_updates": updates,
            "bytes_computed": updates * 2 * (2 * state.d) * _F8}


def _c_wave_solve(res, a, kw):
    return {"points": res.X.shape[0]}


def _c_snapshot(res, a, kw):
    path = _arg(a, kw, 0, "csv_path")
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".meta.json")}


def _c_validation(res, a, kw):
    return {"checks": len(res["results"])}


# name -> (owner, attribute, counts, extra metric names).  The owner is the
# defining module, or the class for a method.
LAYERS = {
    "characteristics.build_flow": (characteristics, "build_flow", _c_build_flow, ("table_nodes",)),
    "characteristics.xi_time_inverse": (characteristics, "xi_time_inverse", _c_xi_time_inverse,
                                        ("points", "points_per_call", "residual_max")),
    "characteristics.evolve_states": (characteristics, "evolve_states",
                                      _c_points_arg(2, "s_points"), ("points",)),
    "characteristics.solve_augmented": (characteristics, "solve_augmented", _c_solve_augmented,
                                        ("points",)),
    "characteristics.reconstruct_string": (characteristics, "reconstruct_string", _c_reconstruct,
                                           ("time_slices",)),
    "characteristics.evolve_cells": (characteristics, "evolve_cells", _c_evolve_cells, ("cells",)),
    "profiles.cubic_interp": (profiles, "cubic_interp", _c_points_arg(3, "q"), ("points",)),
    "weak.pairing_tables": (weak, "pairing_tables", _c_pairing_tables,
                            ("pairings", "bytes_computed")),
    "weak.observable_matrix": (weak, "observable_matrix", _c_observable_matrix, ("rows",)),
    "weak.TestFunction.antiderivative": (weak.TestFunction, "antiderivative", _c_antiderivative,
                                         ("points", "in_support_frac")),
    "weak.oscillate_profile": (weak, "oscillate_profile", _c_oscillate,
                               ("samples", "max_weight_quantization")),
    "weak.verify_generalized_solution": (weak, "verify_generalized_solution", None, ()),
    "weak.extrapolate_tables": (weak, "extrapolate_tables", None, ()),
    "geometry.decompose_to_m_arrays": (geometry, "decompose_to_m_arrays", _c_states, ("states",)),
    "geometry.in_m": (geometry, "in_m", _c_states, ("states",)),
    "geometry.in_g": (geometry, "in_g", _c_states, ("states",)),
    "geometry.in_cm": (geometry, "in_cm", _c_states, ("states",)),
    "finite_volume.advance": (finite_volume, "advance", _c_advance,
                              ("steps", "cell_updates", "bytes_computed")),
    "waves.dalembert_wave_solve": (waves, "dalembert_wave_solve", _c_wave_solve, ("points",)),
    "profiles.write_snapshot": (profiles, "write_snapshot", _c_snapshot, ("bytes",)),
    "profiles.read_snapshot": (profiles, "read_snapshot", _c_snapshot, ("bytes",)),
    "validate.run_validation": (validate, "run_validation", _c_validation, ("checks",)),
}

# counts folded by max within a pass; every other count is summed
_MAX_COUNTS = ("residual_max", "max_weight_quantization")

UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "errors": "count",
    "table_nodes": "count", "points": "count", "points_per_call": "count",
    "residual_max": "1", "time_slices": "count", "cells": "count", "pairings": "count",
    "bytes_computed": "bytes", "rows": "count", "in_support_frac": "ratio",
    "samples": "count", "max_weight_quantization": "1", "states": "count",
    "steps": "count", "cell_updates": "count", "bytes": "bytes", "checks": "count",
}


def _package_modules():
    return [m for k, m in sys.modules.items() if k == "stringlab" or k.startswith("stringlab.")]


def metric_names():
    """Every per-layer metric name, in a fixed order."""
    for name, (_, _, _, extra) in LAYERS.items():
        for q in ("calls", "busy_s", "self_s", "errors") + tuple(extra):
            yield f"{name}.{q}", q


class Tracer:
    """Spans and counts of the wrapped layers, kept in memory."""

    def __init__(self):
        self.pass_id = -1
        self.wrapper_calls = 0
        # span: [name, pass id, parent index, start, end, excluded seconds, ok]
        self.spans: list[list] = []
        self.counts: dict = {}          # (pass id, layer) -> {count: value}
        self.top_excluded: dict = {}    # pass id -> seconds of count work at top level
        self._stack: list[int] = []
        self._patched: list = []        # (owner, attribute, original)
        self._counting = False          # count work calls wrapped layers untraced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = _package_modules()
        for name, (owner, attr, counts, _) in LAYERS.items():
            orig = vars(owner)[attr]
            wrapper = self._wrap(name, orig, counts)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapper)
                continue
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def all_restored(self) -> bool:
        """True when no binding inside the package still holds a wrapper."""
        for mod in _package_modules():
            for val in list(vars(mod).values()):
                if getattr(val, "_perfbench_wrapper", False):
                    return False
        return not getattr(weak.TestFunction.antiderivative, "_perfbench_wrapper", False)

    def _wrap(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if tracer._counting:
                return fn(*a, **kw)
            tracer.wrapper_calls += 1
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, tracer.pass_id, parent, 0.0, 0.0, 0.0, True]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            rec[3] = time.perf_counter()
            try:
                res = fn(*a, **kw)
            except BaseException:
                rec[4] = time.perf_counter()
                rec[6] = False
                tracer._stack.pop()
                tracer._exclude(parent, rec[5])
                raise
            rec[4] = time.perf_counter()
            tracer._stack.pop()
            c0 = time.perf_counter()
            if counts is not None:
                tracer._counting = True
                try:
                    tracer._add_counts(name, counts(res, a, kw))
                finally:
                    tracer._counting = False
            tracer._exclude(parent, rec[5] + time.perf_counter() - c0)
            return res

        wrapper._perfbench_wrapper = True
        return wrapper

    def _exclude(self, parent: int, seconds: float) -> None:
        if parent >= 0:
            self.spans[parent][5] += seconds
        else:
            self.top_excluded[self.pass_id] = self.top_excluded.get(self.pass_id, 0.0) + seconds

    def _add_counts(self, name, values: dict) -> None:
        acc = self.counts.setdefault((self.pass_id, name), {})
        for k, v in values.items():
            acc[k] = max(acc.get(k, v), v) if k in _MAX_COUNTS else acc.get(k, 0) + v

    # -- reduction ---------------------------------------------------------

    def pass_layers(self, pass_id: int) -> dict:
        """Per-layer calls, busy_s, self_s, errors and counts of one pass."""
        busy = {}
        child_busy = {}
        for i, (_, pid, parent, t0, t1, excl, _) in enumerate(self.spans):
            if pid != pass_id:
                continue
            busy[i] = t1 - t0 - excl
            if parent >= 0:
                child_busy[parent] = child_busy.get(parent, 0.0) + busy[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0} for name in LAYERS}
        for i, b in busy.items():
            name, _, _, _, _, _, ok = self.spans[i]
            rec = out[name]
            rec["calls"] += 1
            rec["busy_s"] += b
            rec["self_s"] += b - child_busy.get(i, 0.0)
            rec["errors"] += 0 if ok else 1
        for name, rec in out.items():
            counts = self.counts.get((pass_id, name), {})
            for q in LAYERS[name][3]:
                if q == "points_per_call":
                    rec[q] = counts.get("points", 0) / rec["calls"] if rec["calls"] else 0.0
                elif q == "in_support_frac":
                    pts = counts.get("points", 0)
                    rec[q] = counts.get("in_support", 0) / pts if pts else 0.0
                else:
                    rec[q] = counts.get(q, 0)
        return out

    def top_level_busy(self, pass_id: int) -> tuple[float, float]:
        """(busy seconds of top-level spans, count seconds outside any span)."""
        busy = sum(t1 - t0 - excl for _, pid, parent, t0, t1, excl, _ in self.spans
                   if pid == pass_id and parent < 0)
        return busy, self.top_excluded.get(pass_id, 0.0)

    def dump(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "pass", "parent", "start", "end", "excluded", "ok"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def median_layers(per_pass: list[dict]) -> dict:
    """Median over passes of every per-layer quantity, keyed by metric name."""
    out = {}
    for metric, q in metric_names():
        layer = metric[: -len(q) - 1]
        out[metric] = statistics.median(p[layer][q] for p in per_pass)
    return out
