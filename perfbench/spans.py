"""Span tracing around the public functions of every rareweak module.

Nothing in the package is edited: `install` replaces each traced function in
every module namespace (and module-level dict) that binds it, and patches
traced methods on their class. A span records its name, its parent (the
innermost open span of the same thread) and its start and end; spans stay in
memory and are summarized after the run. Counters are read at the same
boundaries, from arguments, results and raised exceptions.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import weakref

import numpy as np

# Spans in report order; PERCENTILE_SPANS also report duration percentiles.
SPANS = (
    "numerics.rng_draw", "numerics.chol_banded", "numerics.sym_sqrt",
    "numerics.restricted_quadform",
    "models.precision_factor", "models.sample_noise", "models.gen_banded_sample",
    "models.gen_arw", "models.gen_class_sample", "models.class_rows",
    "models.quadform", "models.draw_paired_beta",
    "graph.graph_from_matrix", "graph.enum_connected_subgraphs",
    "graph.connected_components",
    "detect.critical_value", "detect.power_estimate", "detect.hc", "detect.pvalues",
    "select.gs_screen", "select.gs_clean", "select.hard_threshold",
    "classify.train_hct", "classify.classify_batch",
    "apps.estimate_bandwidth", "apps.rank_features_gs", "apps.rank_features_us",
    "apps.roc_curve",
    "phase.boundary_grid",
    "cli.run_detect_power", "cli.run_recover", "cli.run_bandwidth",
    "cli.run_ranking", "cli.run_classify", "cli.run_phase",
    "cli.resolve_config", "cli.write_csv",
)
PERCENTILE_SPANS = (
    "models.gen_banded_sample", "detect.hc", "select.gs_screen", "select.gs_clean",
    "classify.train_hct", "apps.estimate_bandwidth", "apps.rank_features_gs",
)
RUNNER_SPANS = tuple(s for s in SPANS if s.startswith("cli.run_"))

COUNTERS = (
    "rng_values", "rng_streams", "chol_banded_failures", "subgraphs_enumerated",
    "null_reps", "clamped", "screen_retained", "screen_nodes",
    "degenerate_skips", "degenerate_rules",
)

# module-level functions: (module, attribute) -> span
FUNCTION_SPANS = {
    ("numerics", "chol_banded"): "numerics.chol_banded",
    ("numerics", "sym_sqrt"): "numerics.sym_sqrt",
    ("numerics", "restricted_quadform"): "numerics.restricted_quadform",
    ("models", "gen_banded_sample"): "models.gen_banded_sample",
    ("models", "gen_arw"): "models.gen_arw",
    ("models", "gen_class_sample"): "models.gen_class_sample",
    ("models", "class_rows"): "models.class_rows",
    ("models", "draw_paired_beta"): "models.draw_paired_beta",
    ("graph", "graph_from_matrix"): "graph.graph_from_matrix",
    ("graph", "enum_connected_subgraphs"): "graph.enum_connected_subgraphs",
    ("graph", "connected_components"): "graph.connected_components",
    ("detect", "critical_value"): "detect.critical_value",
    ("detect", "power_estimate"): "detect.power_estimate",
    ("detect", "hc_statistic"): "detect.hc",
    ("detect", "hc_plus_statistic"): "detect.hc",
    ("detect", "pvalues"): "detect.pvalues",
    ("select", "gs_screen"): "select.gs_screen",
    ("select", "gs_clean"): "select.gs_clean",
    ("select", "hard_threshold"): "select.hard_threshold",
    ("classify", "train_hct"): "classify.train_hct",
    ("classify", "classify_batch"): "classify.classify_batch",
    ("apps", "estimate_bandwidth"): "apps.estimate_bandwidth",
    ("apps", "rank_features_gs"): "apps.rank_features_gs",
    ("apps", "rank_features_us"): "apps.rank_features_us",
    ("apps", "roc_curve"): "apps.roc_curve",
    ("phase", "boundary_grid"): "phase.boundary_grid",
    ("cli", "run_detect_power"): "cli.run_detect_power",
    ("cli", "run_recover"): "cli.run_recover",
    ("cli", "run_bandwidth"): "cli.run_bandwidth",
    ("cli", "run_ranking"): "cli.run_ranking",
    ("cli", "run_classify"): "cli.run_classify",
    ("cli", "run_phase"): "cli.run_phase",
    ("cli", "resolve_config"): "cli.resolve_config",
}

# methods: (module, class, method) -> span
METHOD_SPANS = {
    ("numerics", "RngStream", "standard_normal"): "numerics.rng_draw",
    ("numerics", "RngStream", "uniform"): "numerics.rng_draw",
    ("models", "RegressionInstance", "quadform"): "models.quadform",
    ("cli", "ResultTable", "write_csv"): "cli.write_csv",
}

# PrecisionModel factors itself lazily inside the first of these calls, so
# the first one on each instance is the `models.precision_factor` span.
FACTORING_METHODS = ("sample_noise", "sqrt_matvec", "sqrt_matrix", "sigma_diag")

# Names the package imports from a sibling module; each must end up traced.
REQUIRED_BINDINGS = (
    ("cli", "gen_banded_sample"), ("cli", "gen_arw"), ("cli", "draw_paired_beta"),
    ("cli", "sym_sqrt"), ("detect", "gen_arw"), ("apps", "hc_plus_statistic"),
    ("models", "chol_banded"), ("models", "restricted_quadform"),
)

WARNING_COUNTERS = {
    "screen skipped degenerate subgraph": "degenerate_skips",
    "HCT selected no features": "degenerate_rules",
}


class Tracer:
    """In-memory spans ([name, parent index, start, end]) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()
        self._local = threading.local()

    def call(self, name, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            stack.pop()

    def add(self, counter, n):
        with self._lock:
            self.counts[counter] += int(n)

    def count_warnings(self, records):
        for rec in records:
            text = str(rec.message)
            for prefix, counter in WARNING_COUNTERS.items():
                if text.startswith(prefix):
                    self.add(counter, 1)

    def summary(self):
        """Per-span calls, self time and duration percentiles; runner coverage.

        Self time is a span's duration minus the durations of its direct
        children. Coverage is the share of a runner span's duration spent in
        its direct children.
        """
        covered = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        calls = dict.fromkeys(SPANS, 0)
        self_s = dict.fromkeys(SPANS, 0.0)
        durations = {name: [] for name in PERCENTILE_SPANS}
        coverage = []
        for index, (name, _, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - covered[index]
            if name in durations:
                durations[name].append(t1 - t0)
            if name in RUNNER_SPANS:
                coverage.append([name, covered[index] / (t1 - t0)])
        spans = {}
        for name in SPANS:
            entry = {"calls": calls[name], "self_s": self_s[name]}
            if name in durations:
                ms = np.asarray(durations[name]) * 1e3
                entry["p50_ms"] = float(np.percentile(ms, 50)) if ms.size else 0.0
                entry["p95_ms"] = float(np.percentile(ms, 95)) if ms.size else 0.0
            spans[name] = entry
        return {"spans": spans, "counts": dict(self.counts), "coverage": coverage}


def _wrap(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(result, args)
        return result
    return traced


def _counting_failures(tracer, fn, exc_type, counter):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except exc_type:
            tracer.add(counter, 1)
            raise
    return counted


def _factoring_method(tracer, name, fn, seen, lock):
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        with lock:
            first = self not in seen
            seen.add(self)
        if first:
            return tracer.call("models.precision_factor", fn, (self,) + args, kwargs)
        if name == "sample_noise":
            return tracer.call("models.sample_noise", fn, (self,) + args, kwargs)
        return fn(self, *args, **kwargs)
    return traced


def _rebind(modules, orig, wrapper):
    """Replace orig by wrapper wherever a module or module-level dict binds it."""
    for mod in modules.values():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if item is orig:
                        val[key] = wrapper


def install(tracer):
    """Trace every span in SPANS.

    Raises RuntimeError when a required cross-module binding was not found,
    so a refactor that renames an import cannot silently drop a span.
    """
    from rareweak import cli, errors
    from rareweak.numerics import RngStream

    modules = {name.partition(".")[2] or "rareweak": mod
               for name, mod in sys.modules.items()
               if name == "rareweak" or name.startswith("rareweak.")}
    hooks = {
        "numerics.rng_draw": lambda res, args: tracer.add("rng_values", np.size(res)),
        "graph.enum_connected_subgraphs":
            lambda res, args: tracer.add("subgraphs_enumerated", len(res)),
        "detect.critical_value":
            lambda res, args: tracer.add("null_reps", res.num_null_reps),
        "detect.hc": lambda res, args: tracer.add("clamped", res.clamped),
        "select.gs_screen": lambda res, args: (
            tracer.add("screen_retained", len(res)),
            tracer.add("screen_nodes", args[0].p)),
    }
    for (mod_name, attr), span in FUNCTION_SPANS.items():
        orig = getattr(modules[mod_name], attr)
        fn = orig
        if span == "numerics.chol_banded":
            fn = _counting_failures(tracer, orig, errors.FactorizationError,
                                    "chol_banded_failures")
        _rebind(modules, orig, _wrap(tracer, span, fn, hooks.get(span)))

    for (mod_name, cls_name, meth), span in METHOD_SPANS.items():
        cls = getattr(modules[mod_name], cls_name)
        setattr(cls, meth, _wrap(tracer, span, getattr(cls, meth), hooks.get(span)))

    init = RngStream.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        tracer.add("rng_streams", 1)
        init(self, *args, **kwargs)
    RngStream.__init__ = counted_init

    precision = modules["models"].PrecisionModel
    seen, lock = weakref.WeakSet(), threading.Lock()
    for meth in FACTORING_METHODS:
        setattr(precision, meth,
                _factoring_method(tracer, meth, getattr(precision, meth), seen, lock))

    missing = [f"{m}.{a}" for m, a in REQUIRED_BINDINGS
               if not hasattr(getattr(modules[m], a), "__wrapped__")]
    if cli.RngStream is not RngStream:
        missing.append("cli.RngStream")
    if missing:
        raise RuntimeError(f"traced functions not bound where expected: {missing}")
