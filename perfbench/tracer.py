"""Span tracer that wraps ddopt's functions from outside the package.

``Tracer.install`` replaces each function or method named in ``LAYERS`` with
a wrapper that records a span on entry and exit; ``Tracer.uninstall`` puts
the originals back. Nothing inside ddopt is edited: ddopt looks these names
up through their module or class at call time, so patching the attribute is
enough for internal calls to pass through the wrapper too.

Two kinds of layer are recorded:

* ordinary layers keep every span in memory: name, start, end, parent span
  and self time;
* hot layers, called once or more per integrator step (the flow right-hand
  side, cost methods, recording helpers, the estimator output), are only
  aggregated as (calls, summed self time) per (name, parent name). One
  ``track`` pass makes about 750,000 such calls, so storing their spans would
  cost more memory than the program itself.

Self time is a span's duration minus the time covered by its child spans.
Every call is synchronous, so no span measures waiting.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

FLOAT_BYTES = 8

COSTS = ("QuadraticTrackingCost", "LogCoshTrackingCost")
COST_METHODS = ("gradient", "cross_hessian", "solve_hessian", "value", "minimizer")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _interconnection_counts(args, kwargs, result):
    cfg = _arg(args, kwargs, 3, "cfg")
    return {"steps": cfg.num_steps}


def _scan_counts(args, kwargs, result):
    # x[j+1] = T x[j] + V[j]: one (n, n) @ (n, m) product and one add per
    # step. Bytes are computed from array sizes (V read, X written, T read
    # once), not measured, and ignore cache behaviour.
    T, V = _arg(args, kwargs, 0, "T"), _arg(args, kwargs, 1, "V")
    steps = V.shape[0]
    n = T.shape[0]
    m = V[0].size // n if steps else 0
    return {"steps": steps,
            "flops": steps * (2 * n * n * m),
            "bytes": FLOAT_BYTES * (steps * n * m + (steps + 1) * n * m + n * n)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _svg_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute path, hot, extra counters) for every traced layer. The
# names double as metric prefixes: "<module>.<attribute path>.<stat>".
LAYERS = [
    ("cli", "main", False, None),
    ("sim", "run_interconnection", False, _interconnection_counts),
    ("sim", "run_derivative_experiment", False, None),
    ("sim", "simulate_realization", False, None),
    ("sim", "_scan_linear", False, _scan_counts),
    ("sim", "Trajectory.to_csv", False, _csv_bytes),
    ("flows", "corrected_newton_rhs", True, None),
    ("flows", "ideal_correction", True, None),
    ("flows", "lyapunov_gradients", True, None),
    ("flows", "check_redesign_condition", True, None),
    *[("flows", f"{cost}.{method}", True, None) for cost in COSTS for method in COST_METHODS],
    ("estimator", "DirtyDerivativeEstimator.output", True, None),
    ("estimator", "build_estimator", False, None),
    ("estimator", "compose_cascade", False, None),
    ("estimator", "zoh_discretize", False, None),
    ("estimator", "rk4_step_maps", False, None),
    ("estimator", "frequency_response", False, None),
    ("signals", "sample_noisy_grid", False, None),
    ("signals", "AnalyticSignal.eval_many", False, None),
    ("numerics", "expm", False, None),
    ("numerics", "solve_linear", False, None),
    ("numerics", "lyapunov_solve", False, None),
    ("numerics", "eig_extremes_symmetric", False, None),
    ("svg", "line_plot", False, _svg_bytes),
]

# Extra counters a layer reports besides calls, self_s and errors.
EXTRA_STATS = {
    "sim.run_interconnection": ("steps",),
    "sim._scan_linear": ("steps", "flops", "bytes"),
    "sim.Trajectory.to_csv": ("bytes",),
    "svg.line_plot": ("bytes",),
}


def layer_names():
    return [f"{module}.{path}" for module, path, _, _ in LAYERS]


class Tracer:
    """Collects spans for one pass; owned by the pass that creates it."""

    def __init__(self):
        self._stack = []            # frames: [name, span index or None, child seconds]
        self.spans = []             # [name, start, end, parent index, self seconds]
        self.hot = defaultdict(lambda: [0, 0.0])   # (name, parent name) -> [calls, self s]
        self.errors = defaultdict(int)
        self.counters = defaultdict(float)          # "<layer>.<stat>" -> total
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name, hot):
        index = None
        if not hot:
            parent = self._stack[-1][1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, 0.0])
        frame = [name, index, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self._stack.pop()
        duration = end - start
        self_s = duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[1] is None:
            parent = self._stack[-1][0] if self._stack else None
            entry = self.hot[(frame[0], parent)]
            entry[0] += 1
            entry[1] += self_s
        else:
            span = self.spans[frame[1]]
            span[1], span[2], span[4] = start, end, self_s

    @contextlib.contextmanager
    def span(self, name):
        """Record one ordinary span around a block."""
        frame = self._enter(name, False)
        start = perf_counter()
        try:
            yield
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            self._exit(frame, start, perf_counter())

    def _wrap(self, name, fn, hot, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, hot)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._exit(frame, start, perf_counter())
            if counts is not None:
                for stat, value in counts(args, kwargs, result).items():
                    tracer.counters[f"{name}.{stat}"] += value
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        for module_name, path, hot, counts in LAYERS:
            module = importlib.import_module(f"ddopt.{module_name}")
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(f"{module_name}.{path}", original, hot, counts))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_stats(self):
        """{"<layer>.calls"|".self_s"|".errors"|extra: value} over all layers
        that were called (uncalled layers are left out)."""
        stats = defaultdict(float)
        for name, _start, _end, _parent, self_s in self.spans:
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += self_s
        for (name, _parent), (calls, self_s) in self.hot.items():
            stats[f"{name}.calls"] += calls
            stats[f"{name}.self_s"] += self_s
        for name, count in self.errors.items():
            stats[f"{name}.errors"] += count
        stats.update(self.counters)
        return dict(stats)

    def write(self, path):
        """Spans one per line, then the hot-layer aggregates."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, self_s) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": self_s}) + "\n")
            for (name, parent), (calls, self_s) in sorted(self.hot.items(), key=str):
                fh.write(json.dumps({"name": name, "parent": parent, "calls": calls,
                                     "self_s": self_s}) + "\n")
