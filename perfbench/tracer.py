"""Span tracer that times epflab's layers from outside the package.

A function is timed by wrapping it at every module attribute that holds
it, so a caller that did ``from .numerics import chol_solve`` looks up
the wrapper as well.  The package's files are not touched; ``uninstall``
puts the original functions back.

Each span records its function, start, end and parent in flat arrays for
the current task.  ``end_task`` folds those arrays into per-function
totals: a span's self time is its duration minus the time its children
cover.  A layer (a module of ``src/epflab``, or one job inside it) is a
group of functions; its metrics are sums over them.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Layer -> the functions ("module.name" inside epflab) whose calls are its spans.
LAYERS = {
    "numerics.chol_solve": ("numerics.chol_solve",),
    "numerics.eig_sym": ("numerics.eig_sym",),
    "cones.proj_psd": ("cones.proj_psd",),
    "cones.lorentz": ("cones.proj_lorentz", "cones.dist_lorentz"),
    "smoothpen.estimate": ("smoothpen.estimate_multipliers_soc", "smoothpen.estimate_multipliers_sdp"),
    "smoothpen.barrier": ("smoothpen.barrier_state_soc", "smoothpen.barrier_state_sdp"),
    "smoothpen.f": ("smoothpen.c1_penalty_soc", "smoothpen.c1_penalty_sdp"),
    "penalties.f": ("penalties.linear_eval", "penalties.qpen_eval"),
    "problems.feasibility_gap": ("problems.feasibility_gap",),
    "auglag.hpr": ("auglag.hpr_closed_form",),
    "solvers.minimize": ("solvers.minimize",),
    "solvers.polish": ("solvers.polish",),
    # F(x, c) itself: every evaluation goes through PenaltyHandle.__call__.
    "harness.F": ("harness.PenaltyHandle.__call__",),
    "harness.sweep": ("harness.c_sweep",),
    "harness.probes": ("harness.penalty_type_probe", "harness.nondegeneracy_probe",
                       "harness.local_exactness_probe", "harness.sublevel_bounded_probe"),
    "harness.bisect": ("harness.estimate_c_star",),
    "report.serialize": ("report.serialize_report",),
}


def _count_finite(counters, value):
    counters["harness.F.finite"] += math.isfinite(value)


def _count_inf(counters, value):
    counters["smoothpen.f.inf"] += math.isinf(value)


def _count_local_solves(counters, result):
    counters["solvers.minimize.local_solves"] += result.n_starts_used


def _count_bisect_steps(counters, result):
    # history holds one entry per predicate call plus the confirm probe.
    counters["harness.bisect.steps"] += len(result.history) - (result.confirm is not None)


def _count_bytes(counters, text):
    counters["report.serialize.bytes"] += len(text.encode("utf-8"))


# Layer -> callback that counts something about each returned value.
OBSERVERS = {
    "harness.F": _count_finite,
    "smoothpen.f": _count_inf,
    "solvers.minimize": _count_local_solves,
    "harness.bisect": _count_bisect_steps,
    "report.serialize": _count_bytes,
}


def _resolve(path):
    """The object at ``module.attr[.attr]`` inside the loaded epflab package."""
    module, *attrs = path.split(".")
    owner, obj = None, sys.modules[f"epflab.{module}"]
    for attr in attrs:
        owner, obj = obj, getattr(obj, attr)
    return owner, attrs[-1], obj


class Tracer:
    """Installs span wrappers into the loaded ``epflab`` modules."""

    def __init__(self):
        self.functions = [fn for fns in LAYERS.values() for fn in fns]
        self.layer_of = [layer for layer, fns in LAYERS.items() for _ in fns]
        self._patches = []
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self._new_task()

    def _new_task(self):
        self.span_fn = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]

    def _wrap(self, fn, fid):
        layer = self.layer_of[fid]
        observe = OBSERVERS.get(layer)
        layer_of = self.layer_of
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            # A layer calling into itself (dist_lorentz -> proj_lorentz) stays one span.
            if parent >= 0 and layer_of[tracer.span_fn[parent]] == layer:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_fn.append(fid)
            tracer.span_parent.append(parent)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counters[f"{layer}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer.span_end[idx] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "epflab" or key.startswith("epflab."))]
        for fid, path in enumerate(self.functions):
            owner, attr, fn = _resolve(path)
            wrapper = self._wrap(fn, fid)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def end_task(self):
        """Fold the current task's spans into the per-function totals."""
        fns = np.frombuffer(self.span_fn, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        if len(dur):
            child = np.zeros(len(dur))
            nested = parents >= 0
            np.add.at(child, parents[nested], dur[nested])
            n = len(self.functions)
            calls = np.bincount(fns, minlength=n)
            total = np.bincount(fns, weights=dur, minlength=n)
            own = np.bincount(fns, weights=dur - child, minlength=n)
            for i, path in enumerate(self.functions):
                self.calls[path] += int(calls[i])
                self.total_s[path] += float(total[i])
                self.self_s[path] += float(own[i])
            # minimize calls made directly by estimate_c_star (bisection + confirm).
            layer = np.array(self.layer_of)
            min_parents = parents[layer[fns] == "solvers.minimize"]
            min_parents = min_parents[min_parents >= 0]
            self.counters["harness.bisect.minimize_calls"] += int(
                np.count_nonzero(layer[fns[min_parents]] == "harness.bisect"))
        self._new_task()

    def layer(self, name, what):
        """Sum of ``calls``, ``total_s`` or ``self_s`` over a layer's functions."""
        table = getattr(self, what)
        return sum(table[fn] for fn in LAYERS[name])

    def counts(self):
        """Every deterministic count: span calls per function and the observer counts."""
        out = {f"{fn}.calls": self.calls[fn] for fn in self.functions}
        out.update(self.counters)
        return out


def _per_call_us(tracer, fn):
    calls = tracer.calls[fn]
    return 1e6 * tracer.total_s[fn] / calls if calls else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of a finished traced run, by name."""
    tr = tracer
    m = {}
    for name in ("numerics.chol_solve", "numerics.eig_sym"):
        m[f"{name}.calls"] = tr.layer(name, "calls")
        m[f"{name}.self_s"] = tr.layer(name, "self_s")
        m[f"{name}.us_per_call"] = _per_call_us(tr, name)
    m["numerics.not_pd"] = tr.counters["numerics.chol_solve.raised.NotPositiveDefinite"]
    for name in ("cones.proj_psd", "cones.lorentz", "penalties.f", "problems.feasibility_gap",
                 "auglag.hpr"):
        m[f"{name}.calls"] = tr.layer(name, "calls")
        m[f"{name}.self_s"] = tr.layer(name, "self_s")
    for name in ("smoothpen.estimate", "smoothpen.barrier", "smoothpen.f"):
        m[f"{name}.self_s"] = tr.layer(name, "self_s")
    f_calls = tr.layer("smoothpen.f", "calls")
    m["smoothpen.f_inf_ratio"] = tr.counters["smoothpen.f.inf"] / f_calls if f_calls else 0.0
    for fn in ("penalties.linear_eval", "smoothpen.c1_penalty_soc", "smoothpen.c1_penalty_sdp"):
        m[f"{fn}.us_per_call"] = _per_call_us(tr, fn)
    m["solvers.self_s"] = tr.layer("solvers.minimize", "self_s") + tr.layer("solvers.polish", "self_s")
    m["solvers.minimize.calls"] = tr.layer("solvers.minimize", "calls")
    m["solvers.polish.calls"] = tr.layer("solvers.polish", "calls")
    # One local solve per start inside minimize, one per polish.
    m["solvers.local_solves"] = tr.counters["solvers.minimize.local_solves"] + m["solvers.polish.calls"]
    evals = tr.layer("harness.F", "calls")
    m["harness.f_evals"] = evals
    m["harness.f_finite_ratio"] = tr.counters["harness.F.finite"] / evals if evals else 0.0
    m["harness.bisect.steps"] = tr.counters["harness.bisect.steps"]
    m["harness.bisect.minimize_calls"] = tr.counters["harness.bisect.minimize_calls"]
    m["harness.sweep.self_s"] = tr.layer("harness.sweep", "self_s")
    m["harness.probes.self_s"] = tr.layer("harness.probes", "self_s")
    m["report.serialize.s"] = tr.layer("report.serialize", "total_s")
    m["report.serialize.bytes"] = tr.counters["report.serialize.bytes"]
    return m
