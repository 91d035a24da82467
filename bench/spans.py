"""In-memory span tracing around the program's public functions.

`install` replaces each traced function, in every hardycalc module that
binds it, by a wrapper that records one span: name, start, end and the
index of the enclosing span.  Spans stay in memory until `layer_metrics`
turns them into per-layer numbers at the end of the run.

A span's self time is its duration minus the part of it that its child
spans cover.  Counts (calls, memo misses, fallbacks, FFT points) are exact
and repeat between runs of the same seed.
"""

from __future__ import annotations

import inspect
import sys
import time

from workloads import WORKLOADS

LAYERS = ("numkernel", "semigroup", "symbols", "hardy", "calculus",
          "admissibility", "verifier", "cli")

# Functions whose calls and self time are reported one by one.
TIMED = {
    "numkernel": ("operator_norm", "hermitian_eigs", "linear_solve",
                  "mat_exp", "solve_lyapunov"),
    "semigroup": ("semigroup_bounds", "evaluate_T", "resolvent",
                  "certify_stable"),
    "symbols": ("hinf_norm", "kernel"),
    "hardy": ("toeplitz_apply", "discrete_multiplier"),
    "calculus": ("gA_convolution", "gA_toeplitz", "gA_exact"),
    "admissibility": ("observability_gramian", "sqrt_t_bound_scan"),
    "verifier": ("check_eq21", "check_cor33a", "check_thm33", "check_thm34",
                 "check_analytic_lemma", "check_eq26",
                 "check_square_function"),
}

# Memoized functions: a call with child spans is a memo miss.
MEMOIZED = ("semigroup.semigroup_bounds", "calculus.gA_convolution")

# verifier calls this private function across the module boundary.
PRIVATE = (("calculus", "_gA_exact", "calculus.gA_exact"),)

SCENARIOS = [name for scenarios in WORKLOADS.values()
             for name, _, _ in scenarios]


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.self_s", "s"))
        for fn in TIMED.get(layer, ()):
            full = f"{layer}.{fn}"
            names.append((f"{full}.calls", "count"))
            if full in MEMOIZED:
                names.append((f"{full}.misses", "count"))
            names.append((f"{full}.self_s", "s"))
    names.append(("numkernel.operator_norm.jacobi_fallbacks", "count"))
    names.append(("hardy.fft_points", "count"))
    names += [(f"cli.scenario.{s}_s", "s") for s in SCENARIOS]
    names += [("untraced_s", "s"), ("trace.overhead_s", "s")]
    return names


def _fft_points(g, f, *_, **__):
    """Padded FFT length times columns of one toeplitz_apply call."""
    columns = 1 if f.values.ndim == 1 else f.values.shape[1]
    return 2 * f.grid.n_samples * columns


class Tracer:
    """Spans as parallel lists; `stack` holds the open spans' indices and
    `fft_points` the FFT size of each toeplitz_apply span."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.fft_points = {}
        self.stack = []

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(None)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        fft = name == "hardy.toeplitz_apply"

        def traced(*args, **kwargs):
            idx = self.open(name)
            if fft:
                self.fft_points[idx] = _fft_points(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def spans(self):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 **({"fft_points": self.fft_points[i]}
                    if i in self.fft_points else {})}
                for i, (n, s, e, p) in enumerate(zip(
                    self.names, self.starts, self.ends, self.parents))]


def _targets():
    """(module, attribute, span name) for every traced function: the public
    functions of each layer module plus the private cross-module calls."""
    out = []
    for layer in LAYERS:
        if layer == "cli":
            continue  # the benchmark opens one span per scenario call
        module = sys.modules[f"hardycalc.{layer}"]
        for attr in module.__all__:
            if inspect.isfunction(getattr(module, attr)):
                out.append((module, attr, f"{layer}.{attr}"))
    for layer, attr, name in PRIVATE:
        out.append((sys.modules[f"hardycalc.{layer}"], attr, name))
    return out


def install(tracer):
    """Rebind every traced function in every hardycalc module, so calls
    through `from .x import f` bindings and within a module are traced."""
    modules = [m for n, m in sys.modules.items()
               if n == "hardycalc" or n.startswith("hardycalc.")]
    for module, attr, name in _targets():
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = s
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def layer_metrics(tracer, run_s):
    """Per-layer metrics of one traced run (all but trace.overhead_s)."""
    names, parents = tracer.names, tracer.parents
    selfs = self_times(tracer.starts, tracer.ends, parents)
    has_child = set(p for p in parents if p >= 0)
    values = {name: 0 for name, _ in metric_names()}
    for i, name in enumerate(names):
        values[f"{name.partition('.')[0]}.self_s"] += selfs[i]
        if f"{name}.calls" in values:
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += selfs[i]
        if name in MEMOIZED and i in has_child:
            values[f"{name}.misses"] += 1
        if (name == "numkernel.hermitian_eigs" and parents[i] >= 0
                and names[parents[i]] == "numkernel.operator_norm"):
            values["numkernel.operator_norm.jacobi_fallbacks"] += 1
        if name.startswith("cli.scenario."):
            values[f"{name}_s"] += tracer.ends[i] - tracer.starts[i]
    values["hardy.fft_points"] = sum(tracer.fft_points.values())
    covered = sum(e - s for s, e, p in zip(tracer.starts, tracer.ends,
                                           parents) if p < 0)
    values["untraced_s"] = run_s - covered
    return values
