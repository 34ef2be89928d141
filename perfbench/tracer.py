"""In-memory spans and counters around the public functions of valgrad.

The tracer patches the package from outside: every public function of the
traced modules is replaced, in every ``valgrad`` namespace that binds it, by
a wrapper that records a span (name, start, end, parent).  Patching each
name where it is looked up catches calls made through ``from .x import y``
bindings as well as module-attribute calls.  The public methods of
``StructuredProblem`` run millions of times inside the oracle loops, so they
get call counters instead of spans.  A target that a later version of the
package no longer has is skipped: it records nothing and raises nothing.

Spans stay in memory; ``summary`` derives per-name totals and self times
and ``layer_metrics`` the benchmark's per-layer numbers.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("linalg", "problems", "solvers", "estimators", "rates", "harness")

# The ground-truth dual solve runs this many FISTA iterations; estimator
# dual solves run far fewer.  Spans are split on it.
ORACLE_ITERATIONS = 10_000

MIB = float(1 << 20)

# metric -> (span name, statistic)
_SPAN_METRICS = {
    "estimators.fd_oracle.s": ("estimators.fd_oracle", "s"),
    "estimators.fd_oracle.calls": ("estimators.fd_oracle", "calls"),
    "estimators.oracle_primal_solve.s": ("estimators.oracle_primal_solve", "s"),
    "estimators.oracle_primal_solve.calls": ("estimators.oracle_primal_solve", "calls"),
    "estimators.dual_oracle.s": ("estimators.dual_oracle", "s"),
    "linalg.spectral_bounds.s": ("linalg.spectral_bounds", "s"),
    "linalg.spectral_bounds.calls": ("linalg.spectral_bounds", "calls"),
    "linalg.seeded_problem_data.s": ("linalg.seeded_problem_data", "s"),
    "estimators.run_primal.s": ("estimators.run_primal", "s"),
    "estimators.run_primal_bare.s": ("estimators.run_primal_bare", "s"),
    "estimators.sensitivity_step.s": ("estimators.sensitivity_step", "s"),
    "estimators.sensitivity_step.calls": ("estimators.sensitivity_step", "calls"),
    "estimators.analytic.s": ("estimators.analytic_estimator", "s"),
    "estimators.automatic.s": ("estimators.automatic_estimator", "s"),
    "estimators.implicit.s": ("estimators.implicit_estimator", "s"),
    "estimators.dual.s": ("estimators.dual", "s"),
    "rates.rate_report.s": ("rates.rate_report", "s"),
    "harness.emit_csv.s": ("harness.emit_csv", "s"),
    "harness.emit_plots.s": ("harness.emit_plots", "s"),
}
# counter metric -> unit
_COUNT_METRICS = {
    "problems.primal_value.calls": "count",
    "problems.primal_smooth_grad.calls": "count",
    "estimators.implicit.flagged": "count",
    "solvers.conjugate_gradient.iters": "count",
    "harness.csv_bytes": "bytes",
    "harness.svg_bytes": "bytes",
}
LAYER_UNITS = {
    **{m: ("count" if stat == "calls" else "s") for m, (_, stat) in _SPAN_METRICS.items()},
    **_COUNT_METRICS,
    "estimators.oracle_primal_solve.converged_ratio": "ratio",
    "estimators.cross_check_gap": "abs",
    "estimators.jacobian_mb": "MiB",
    "trace.overhead_s": "s",
}


def _bound_argument(fn, args, kwargs, name, default):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name, default)
    except (TypeError, ValueError):
        return default


class Tracer:
    """Install with ``install()``, run the traced code, then ``uninstall()``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.converged = 0
        self.cross_check_gap = 0.0
        self.jacobian_bytes = 0
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._last_dual_oracle = None  # (problem, final dual iterate)

    # -- installation ----------------------------------------------------

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "valgrad" or name.startswith("valgrad.")
        ]
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"valgrad.{short}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._span_wrapper(f"{short}.{attr}", fn)
                for owner in modules:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, name, wrapper)
        problems = sys.modules.get("valgrad.problems")
        cls = getattr(problems, "StructuredProblem", None)
        if cls is not None:
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    self._patch(cls, attr, self._count_wrapper(f"problems.{attr}.calls", fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = self._span_name(name, fn, args, kwargs)
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1:3] = start, end
            if observe is not None:
                try:
                    observe(fn, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    pass  # the package changed shape; record nothing
            return result

        return traced

    @staticmethod
    def _span_name(name, fn, args, kwargs):
        if name == "estimators.dual_estimator":
            cfg = _bound_argument(fn, args, kwargs, "cfg", None)
            oracle = getattr(cfg, "iterations", None) == ORACLE_ITERATIONS
            return "estimators.dual_oracle" if oracle else "estimators.dual"
        if name == "estimators.run_primal":
            bare = not _bound_argument(fn, args, kwargs, "with_sensitivity", True)
            return "estimators.run_primal_bare" if bare else name
        return name

    # -- observers: derived quantities read from results ------------------

    def _observe_dual_estimator(self, fn, args, kwargs, result):
        cfg = _bound_argument(fn, args, kwargs, "cfg", None)
        if getattr(cfg, "iterations", None) == ORACLE_ITERATIONS:
            self._last_dual_oracle = (args[0], result.final)

    def _observe_fd_oracle(self, fn, args, kwargs, result):
        last = self._last_dual_oracle
        if last is not None and last[0] is args[0]:
            gap = float(abs(last[1] - result.final).max())
            self.cross_check_gap = max(self.cross_check_gap, gap)

    def _observe_oracle_primal_solve(self, fn, args, kwargs, result):
        self.converged += bool(result[2])

    def _observe_run_primal(self, fn, args, kwargs, result):
        nbytes = sum(j.nbytes for j in result.jacobians)
        self.jacobian_bytes = max(self.jacobian_bytes, nbytes)

    def _observe_implicit_estimator(self, fn, args, kwargs, result):
        self.counts["estimators.implicit.flagged"] += bool(result.flagged)

    def _observe_conjugate_gradient(self, fn, args, kwargs, result):
        self.counts["solvers.conjugate_gradient.iters"] += len(result.points) - 1

    def _observe_emit_csv(self, fn, args, kwargs, result):
        self.counts["harness.csv_bytes"] += result.stat().st_size

    def _observe_emit_plots(self, fn, args, kwargs, result):
        self.counts["harness.svg_bytes"] += sum(p.stat().st_size for p in result)

    # -- reports -----------------------------------------------------------

    def summary(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_s[idx]
        return out

    def layer_metrics(self, overhead_s):
        """Every per-layer metric; a layer the workload never ran reads 0."""
        spans = self.summary()
        values = {}
        for metric, (name, stat) in _SPAN_METRICS.items():
            values[metric] = spans.get(name, {}).get(stat, 0)
        for metric in _COUNT_METRICS:
            values[metric] = self.counts[metric]
        solves = spans.get("estimators.oracle_primal_solve", {}).get("calls", 0)
        values["estimators.oracle_primal_solve.converged_ratio"] = (
            self.converged / solves if solves else 0.0
        )
        values["estimators.cross_check_gap"] = self.cross_check_gap
        values["estimators.jacobian_mb"] = self.jacobian_bytes / MIB
        values["trace.overhead_s"] = overhead_s
        return {m: {"value": v, "unit": LAYER_UNITS[m]} for m, v in values.items()}

    def dump(self):
        """Spans with a name table, counters and the per-name summary."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans],
            "counts": dict(self.counts),
            "summary": self.summary(),
        }
