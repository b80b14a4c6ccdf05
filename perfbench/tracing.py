"""Layer spans recorded from outside the package.

`Tracer.install()` replaces the package's layer functions with wrappers that
record one span per call: (id, name, start, end, parent id, info).  Spans stay
in memory until `layer_metrics()` folds them into the per-layer numbers.  The
package itself is not changed; every module binding of a wrapped function is
replaced (a `from .cusum import run_until_alarm` in `simulate` is a second
binding, and a call through it would otherwise be missed).
`unpatched_bindings()`, called after the traced call, rescans the package's
modules for any binding that still holds an original: one in a module loaded
after `install()`, or one made after it.

Spans of worker threads (the Monte Carlo trial pool) take as parent the span
the main thread has open, which is the one waiting on the pool.  Self time is
a span's duration minus the part of it that its children cover, so parallel
children are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time

# Info functions see the wrapped function, its arguments and its result.


def _rows(fn, args, kwargs, result):
    return int(len(result))


def _iterations(fn, args, kwargs, result):
    return int(result.iterations)


def _run_info(fn, args, kwargs, result):
    return (int(result.increments_consumed), result.alarm_time is None)


def _trials(fn, args, kwargs, result):
    return int(inspect.signature(fn).bind(*args, **kwargs).arguments.get("trials", 0))


# (module, attribute path, span name, info function).  A dotted attribute
# path names a method on a class of that module.  Functions are rebound at
# every module that holds them; methods are replaced on their class.
FUNCTION_TARGETS = (
    ("config", "parse_config", "config.parse", None),
    ("simulate", "prepare_scenario", "simulate.prepare", None),
    ("simulate", "run_experiment", "simulate.experiment", None),
    ("simulate", "estimate_arl", "simulate.arl", None),
    ("simulate", "_delay_times", "simulate.delay", _trials),
    ("cusum", "calibrate_threshold_mc", "cusum.calibrate", None),
    ("cusum", "alarm_times_gaussian", "cusum.alarm_times", None),
    ("cusum", "run_until_alarm", "cusum.run", _run_info),
    ("gaussian", "sample_with", "gaussian.sample", _rows),
    ("gaussian", "SeededStream.generator", "gaussian.generator", None),
    ("gaussian", "Gaussian.__init__", "gaussian.gaussian", None),
    ("lfp", "solve_lfp", "lfp.solve", _iterations),
    ("lfp", "AffineDetector.increments", "lfp.increments", _rows),
    ("quadratic", "ClassSetup.__init__", "quadratic.class_setup", None),
    ("quadratic", "solve_saddle", "quadratic.solve_saddle", _iterations),
    ("quadratic", "build_quadratic_detector", "quadratic.build_detector", None),
    ("quadratic", "project_feasible", "quadratic.project_feasible", None),
    ("quadratic", "QuadraticDetector.increments", "quadratic.increments", _rows),
)
# symmetrize is counted only where the saddle solver calls it.
SITE_TARGETS = (("quadratic", "symmetrize", "quadratic.symmetrize"),)
NUMPY_TARGETS = (("eigh", "numpy.eigh"), ("eigvalsh", "numpy.eigvalsh"))
SET_METHODS = ("project", "support_linear", "sample_member")

# Per-layer metrics, in report order: name -> unit.
LAYER_UNITS = {
    "cusum.calibrate_s": "s",
    "cusum.calibrations": "count",
    "cusum.calibration_evals": "count",
    "cusum.calibration_steps": "count",
    "cusum.censored_runs": "count",
    "cusum.censored_step_share": "ratio",
    "cusum.runs": "count",
    "cusum.steps": "count",
    "cusum.run_self_s": "s",
    "cusum.steps_per_s": "1/s",
    "cusum.step_yield": "ratio",
    "cusum.run_s.p50": "s",
    "cusum.run_s.p99": "s",
    "gaussian.rows_sampled": "count",
    "gaussian.sample_s": "s",
    "gaussian.rows_per_s": "1/s",
    "gaussian.generators": "count",
    "gaussian.gaussians_built": "count",
    "lfp.solve_s": "s",
    "lfp.iterations": "count",
    "lfp.increments_s": "s",
    "lfp.increment_rows": "count",
    "quadratic.class_setup_s": "s",
    "quadratic.solve_saddle_s": "s",
    "quadratic.saddle_iterations": "count",
    "quadratic.eigh_calls": "count",
    "quadratic.eigvalsh_calls": "count",
    "quadratic.symmetrize_calls": "count",
    "quadratic.project_feasible_calls": "count",
    "quadratic.increments_s": "s",
    "quadratic.increment_rows": "count",
    "sets.project_calls": "count",
    "sets.support_linear_calls": "count",
    "sets.support_linear_s": "s",
    "sets.sample_member_calls": "count",
    "sets.sample_member_s": "s",
    "simulate.prepare_s": "s",
    "simulate.arl_s": "s",
    "simulate.delay_s": "s",
    "simulate.delay_trials": "count",
    "config.parse_s": "s",
    "cli.self_s": "s",
}

# Counts that are a pure function of the inputs; two traced runs at one seed
# must agree on them exactly.
# The benchmark wraps each CLI call in a span of this name.
ROOT_SPAN = "cli.dispatch"

EXACT_COUNTS = ("cusum.steps", "cusum.calibration_evals", "gaussian.rows_sampled", "quadratic.eigh_calls")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.missing = []  # targets the package no longer has
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None):
        spans, ids, main_stack = self.spans, self._ids, self._main_stack
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, info(fn, args, kwargs, result) if info and result is not None else None))

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Point every package-module binding of `original` at `wrapper`."""
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
        self._rebound[id(original)] = original

    def install(self):
        import numpy.linalg

        import robustcusum.cli  # noqa: F401  (loads every module the CLI uses)

        self._rebound = {}  # id -> original, for every function rebound at every binding
        for mod_name, path, span_name, info in FUNCTION_TARGETS:
            owner = sys.modules.get(f"robustcusum.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
            elif cls_path:
                self._set(owner, attr, self.wrap(span_name, original, info))
            else:
                self._rebind(original, self.wrap(span_name, original, info))
        for mod_name, attr, span_name in SITE_TARGETS:
            mod = sys.modules.get(f"robustcusum.{mod_name}")
            if hasattr(mod, attr):
                self._set(mod, attr, self.wrap(span_name, getattr(mod, attr)))
            else:
                self.missing.append(f"{mod_name}.{attr}")
        for attr, span_name in NUMPY_TARGETS:
            original = getattr(numpy.linalg, attr)
            wrapper = self.wrap(span_name, original)
            self._set(numpy.linalg, attr, wrapper)
            self._rebind(original, wrapper)
        sets = sys.modules.get("robustcusum.sets")
        for cls in vars(sets).values() if sets else ():
            if isinstance(cls, type) and cls.__module__ == sets.__name__:
                for method in SET_METHODS:
                    if method in vars(cls):
                        self._set(cls, method, self.wrap(f"sets.{method}", vars(cls)[method]))

    def unpatched_bindings(self):
        """Bindings in the package's modules, as loaded now, that still hold
        a function meant to be wrapped at every binding.  Calls through them
        would go untraced."""
        return sorted(
            f"{mod.__name__}.{name}"
            for mod in _package_modules()
            for name, value in vars(mod).items()
            if id(value) in self._rebound and self._rebound[id(value)] is value
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "robustcusum" or name.startswith("robustcusum."))
    ]


# ---------------------------------------------------------------------------
# folding spans into layer metrics
# ---------------------------------------------------------------------------


def _union_length(intervals, lo, hi):
    """Length of the union of the intervals, each clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _percentile(values, q):
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans):
    """Fold the recorded spans into LAYER_UNITS values."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))

    def has_ancestor(span, prefix):
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[1].startswith(prefix):
                return True
            parent = by_id.get(parent[4])
        return False

    def self_time(span):
        return (span[3] - span[2]) - _union_length(children.get(span[0], ()), span[2], span[3])

    total, count, info_sum, self_sum = {}, {}, {}, {}
    for s in spans:
        dur = s[3] - s[2]
        total[s[1]] = total.get(s[1], 0.0) + dur
        count[s[1]] = count.get(s[1], 0) + 1
        if isinstance(s[5], int):
            info_sum[s[1]] = info_sum.get(s[1], 0) + s[5]
    for name in ("cusum.run", ROOT_SPAN):
        self_sum[name] = float(sum(self_time(s) for s in spans if s[1] == name))

    runs = [s for s in spans if s[1] == "cusum.run"]
    run_steps = sum(s[5][0] for s in runs if s[5] is not None)
    cal_runs = [s for s in runs if s[5] is not None and has_ancestor(s, "cusum.calibrate")]
    cal_steps = sum(s[5][0] for s in cal_runs)
    censored = [s for s in cal_runs if s[5][1]]
    rows = info_sum.get("gaussian.sample", 0)
    sample_s = total.get("gaussian.sample", 0.0)
    run_s = total.get("cusum.run", 0.0)

    def quadratic_count(name):
        return sum(1 for s in spans if s[1] == name and has_ancestor(s, "quadratic."))

    out = {
        "cusum.calibrate_s": total.get("cusum.calibrate", 0.0),
        "cusum.calibrations": count.get("cusum.calibrate", 0),
        "cusum.calibration_evals": sum(
            1 for s in spans if s[1] == "cusum.alarm_times" and has_ancestor(s, "cusum.calibrate")
        ),
        "cusum.calibration_steps": cal_steps,
        "cusum.censored_runs": len(censored),
        "cusum.censored_step_share": (sum(s[5][0] for s in censored) / cal_steps) if cal_steps else 0.0,
        "cusum.runs": len(runs),
        "cusum.steps": run_steps,
        "cusum.run_self_s": self_sum["cusum.run"],
        "cusum.steps_per_s": run_steps / run_s if run_s > 0 else 0.0,
        "cusum.step_yield": run_steps / rows if rows else 0.0,
        "cusum.run_s.p50": _percentile([s[3] - s[2] for s in runs], 50),
        "cusum.run_s.p99": _percentile([s[3] - s[2] for s in runs], 99),
        "gaussian.rows_sampled": rows,
        "gaussian.sample_s": sample_s,
        "gaussian.rows_per_s": rows / sample_s if sample_s > 0 else 0.0,
        "gaussian.generators": count.get("gaussian.generator", 0),
        "gaussian.gaussians_built": count.get("gaussian.gaussian", 0),
        "lfp.solve_s": total.get("lfp.solve", 0.0),
        "lfp.iterations": info_sum.get("lfp.solve", 0),
        "lfp.increments_s": total.get("lfp.increments", 0.0),
        "lfp.increment_rows": info_sum.get("lfp.increments", 0),
        "quadratic.class_setup_s": total.get("quadratic.class_setup", 0.0),
        "quadratic.solve_saddle_s": total.get("quadratic.solve_saddle", 0.0),
        "quadratic.saddle_iterations": info_sum.get("quadratic.solve_saddle", 0),
        "quadratic.eigh_calls": quadratic_count("numpy.eigh"),
        "quadratic.eigvalsh_calls": quadratic_count("numpy.eigvalsh"),
        "quadratic.symmetrize_calls": count.get("quadratic.symmetrize", 0),
        "quadratic.project_feasible_calls": count.get("quadratic.project_feasible", 0),
        "quadratic.increments_s": total.get("quadratic.increments", 0.0),
        "quadratic.increment_rows": info_sum.get("quadratic.increments", 0),
        "sets.project_calls": count.get("sets.project", 0),
        "sets.support_linear_calls": count.get("sets.support_linear", 0),
        "sets.support_linear_s": total.get("sets.support_linear", 0.0),
        "sets.sample_member_calls": count.get("sets.sample_member", 0),
        "sets.sample_member_s": total.get("sets.sample_member", 0.0),
        "simulate.prepare_s": total.get("simulate.prepare", 0.0),
        "simulate.arl_s": total.get("simulate.arl", 0.0),
        "simulate.delay_s": total.get("simulate.delay", 0.0),
        "simulate.delay_trials": info_sum.get("simulate.delay", 0),
        "config.parse_s": total.get("config.parse", 0.0),
        "cli.self_s": self_sum[ROOT_SPAN],
    }
    return out
