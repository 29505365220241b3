"""Batch experiment harness and command-line entry point.

Each subcommand reproduces one study: detection size/power grids, Hamming
scaling of recovery methods, covariance bandwidth estimation, graph-guided
feature ranking, trained-classifier error curves, and phase-boundary grids.
Configs are strict JSON with explicit defaults per scale preset; outputs are
CSV with a comment header carrying the seed and a hash of the resolved
config, and replicate-level seeding makes results identical under any thread
count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import apps, classify, detect, phase, select
from .errors import ConfigError, RareWeakError
from .models import (
    ArwParams,
    PrecisionModel,
    RegressionInstance,
    banded_true_bandwidth,
    draw_paired_beta,
    gen_arw,
    gen_banded_sample,
)
from .numerics import RngStream, sym_sqrt

EXPERIMENTS = ("detect", "recover", "bandwidth", "ranking", "classify", "phase")

# Stream lanes: lane 0 simulates critical-value tables, lane 1 feeds
# replicate work. Replicate k of unit u always uses child(u * reps + k).
_TABLE_LANE = 0
_WORK_LANE = 1


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


@dataclass
class ResultTable:
    experiment: str
    columns: list
    rows: list
    config: dict

    def header_lines(self):
        blob = canonical_config_json(self.config)
        digest = config_hash(self.config)
        return [
            f"# rareweak v{__version__} experiment={self.experiment}",
            f"# config_hash={digest}",
            f"# seed={self.config['seed']}",
            f"# config={blob}",
        ]

    def body_lines(self):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return lines

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            for line in self.header_lines() + self.body_lines():
                fh.write(line + "\n")


# Execution-only fields: they never influence results, so they stay out of
# the config identity that gets hashed and echoed.
_EXECUTION_KEYS = ("out", "threads")


def canonical_config_json(cfg: dict) -> str:
    core = {k: v for k, v in cfg.items() if k not in _EXECUTION_KEYS}
    return json.dumps(core, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_config_json(cfg).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_COMMON_DEFAULTS = {"seed": 20260801, "threads": 1, "out": ".", "scale": "desk"}

_SIX_BANDWIDTH_CASES = [[0.01, 0.175], [0.01, 0.2], [0.01, 0.225],
                        [0.005, 0.225], [0.005, 0.25], [0.01, 0.275]]

_PRESETS = {
    "detect": {
        "desk": {"p": 2000, "omega": {"kind": "identity"}, "alpha": 0.05,
                 "grid": [[0.6, 1.2]], "variants": ["ohc"], "reps": 100,
                 "null_reps": 500, "alpha0": 0.5},
        "paper": {"p": 10000, "omega": {"kind": "block2", "h0": 0.5},
                  "alpha": 0.05, "grid": [[0.6, 1.2]],
                  "variants": ["bhc", "whc", "ihc"], "reps": 200,
                  "null_reps": 2000, "alpha0": 0.5},
    },
    "recover": {
        "desk": {"vartheta": 0.5, "r": 2.0, "p_grid": [512, 1024, 2048],
                 "reps": 50, "methods": ["ht_ideal", "ht_universal"],
                 "m0": 1, "q": select.DEFAULT_SCREEN_Q,
                 "omega": {"kind": "identity"}},
        "paper": {"vartheta": 0.5, "r": 2.0,
                  "p_grid": [512, 1024, 2048, 4096, 8192, 16384],
                  "reps": 200, "methods": ["ht_ideal"], "m0": 1,
                  "q": select.DEFAULT_SCREEN_Q, "omega": {"kind": "identity"}},
    },
    "bandwidth": {
        "desk": {"p": 2000, "n": 200, "b": 2, "b0": 10, "alpha": 0.05,
                 "cases": [[0.01, 0.225]], "reps": 50, "null_reps": 4000,
                 "alpha0": 0.5},
        "paper": {"p": 5000, "n": 200, "b": 2, "b0": 10, "alpha": 0.05,
                  "cases": _SIX_BANDWIDTH_CASES, "reps": 200,
                  "null_reps": 20000, "alpha0": 0.5},
    },
    "ranking": {
        "desk": {"p": 400, "epsilon": 0.05,
                 "cases": [[-0.8, 4.0], [0.8, 1.5]], "reps": 50,
                 "m0": 2, "delta": 0.5},
        "paper": {"p": 1000, "epsilon": 0.05,
                  "cases": [[-0.8, 4.0], [0.8, 1.5]], "reps": 200,
                  "m0": 2, "delta": 0.5},
    },
    "classify": {
        "desk": {"p": 2000, "theta": 0.4, "grid": [[0.3, 1.2]], "reps": 20,
                 "test_size": 200, "alpha0": 0.1, "omega": {"kind": "identity"}},
        "paper": {"p": 10000, "theta": 0.4, "grid": [[0.3, 1.2], [0.5, 0.02]],
                  "reps": 50, "test_size": 200, "alpha0": 0.1,
                  "omega": {"kind": "identity"}},
    },
    "phase": {
        "desk": {"vartheta_grid": {"start": 0.05, "stop": 0.95, "num": 19},
                 "theta": 0.2, "h0": None},
        "paper": {"vartheta_grid": {"start": 0.05, "stop": 0.95, "num": 181},
                  "theta": 0.2, "h0": None},
    },
}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _is_number(x, kinds=(int, float)):
    return isinstance(x, kinds) and not isinstance(x, bool)


def _check_omega_spec(spec):
    _require(isinstance(spec, dict) and "kind" in spec,
             "omega must be an object with a 'kind'")
    kind = spec["kind"]
    _require(kind in ("identity", "block2"),
             f"omega kind must be 'identity' or 'block2', got {kind!r}")
    if kind == "block2":
        _require("h0" in spec and _is_number(spec["h0"]) and -1.0 < spec["h0"] < 1.0,
                 "block2 omega needs a number h0 with |h0| < 1")
        _require(set(spec) <= {"kind", "h0"}, f"unknown omega keys in {spec}")
    else:
        _require(set(spec) <= {"kind"}, f"unknown omega keys in {spec}")


def _build_omega(spec, p) -> PrecisionModel:
    if spec["kind"] == "identity":
        return PrecisionModel.identity(p)
    return PrecisionModel.block2(p, float(spec["h0"]))


def _check_pairs(val, name):
    _require(isinstance(val, list), f"{name} must be a list")
    for item in val:
        _require(isinstance(item, list) and len(item) == 2
                 and all(_is_number(x) for x in item),
                 f"{name} entries must be [a, b] pairs of numbers, got {item!r}")


_VALIDATORS = {}


def _validator(kind):
    def deco(fn):
        _VALIDATORS[kind] = fn
        return fn
    return deco


@_validator("detect")
def _validate_detect(cfg):
    _require(cfg["p"] >= 4, "p must be >= 4")
    _check_pairs(cfg["grid"], "grid")
    for v, r in cfg["grid"]:
        _require(0 < v < 1 and r > 0, f"grid point ({v}, {r}) out of range")
    _require(isinstance(cfg["variants"], list) and cfg["variants"],
             "variants must be a nonempty list")
    for var in cfg["variants"]:
        _require(var in detect.VARIANTS, f"unknown variant {var!r}")
    _require(0 < cfg["alpha"] < 1, "alpha must lie in (0, 1)")
    _require(cfg["reps"] >= 50, "reps must be >= 50")
    _require(cfg["null_reps"] >= 100, "null_reps must be >= 100")
    _check_omega_spec(cfg["omega"])


@_validator("recover")
def _validate_recover(cfg):
    _require(0 < cfg["vartheta"] < 1, "vartheta must lie in (0, 1)")
    _require(cfg["r"] > 0, "r must be positive")
    _require(isinstance(cfg["p_grid"], list) and cfg["p_grid"],
             "p_grid must be a nonempty list")
    for p in cfg["p_grid"]:
        _require(_is_number(p, int) and p >= 8,
                 f"p_grid entries must be integers >= 8, got {p!r}")
    _require(cfg["reps"] >= 1, "reps must be >= 1")
    _require(isinstance(cfg["methods"], list) and cfg["methods"],
             "methods must be a nonempty list")
    for m in cfg["methods"]:
        _require(m in ("ht_ideal", "ht_universal", "gs"), f"unknown method {m!r}")
    _require(cfg["m0"] >= 1, "m0 must be >= 1")
    _require(cfg["q"] > 0, "q must be positive")
    _check_omega_spec(cfg["omega"])


@_validator("bandwidth")
def _validate_bandwidth(cfg):
    _require(cfg["p"] >= 8, "p must be >= 8")
    _require(cfg["n"] >= 2, "n must be >= 2")
    _require(1 <= cfg["b"] <= cfg["b0"], "need 1 <= b <= b0")
    _require(cfg["b0"] < cfg["p"], "b0 must be below p")
    _require(0 < cfg["alpha"] < 1, "alpha must lie in (0, 1)")
    _check_pairs(cfg["cases"], "cases")
    for eps, tau in cfg["cases"]:
        _require(0 <= eps <= 1 and tau >= 0, f"case ({eps}, {tau}) out of range")
    _require(cfg["reps"] >= 1, "reps must be >= 1")
    _require(cfg["null_reps"] >= 100, "null_reps must be >= 100")


@_validator("ranking")
def _validate_ranking(cfg):
    _require(cfg["p"] >= 4 and cfg["p"] % 2 == 0, "p must be even and >= 4")
    _require(0 <= cfg["epsilon"] <= 1, "epsilon must lie in [0, 1]")
    _check_pairs(cfg["cases"], "cases")
    for h0, tau in cfg["cases"]:
        _require(-1 < h0 < 1 and tau >= 0, f"case ({h0}, {tau}) out of range")
    _require(cfg["reps"] >= 1, "reps must be >= 1")
    _require(cfg["m0"] >= 1, "m0 must be >= 1")
    _require(cfg["delta"] >= 0, "delta must be non-negative")


@_validator("classify")
def _validate_classify(cfg):
    _require(cfg["p"] >= 10, "p must be >= 10")
    _require(0 < cfg["theta"] < 1, "theta must lie in (0, 1)")
    _check_pairs(cfg["grid"], "grid")
    for v, r in cfg["grid"]:
        _require(0 < v < 1 and r > 0, f"grid point ({v}, {r}) out of range")
    _require(cfg["reps"] >= 20, "reps must be >= 20")
    _require(cfg["test_size"] >= 1, "test_size must be >= 1")
    _require(0 < cfg["alpha0"] <= 0.5, "alpha0 must lie in (0, 0.5]")
    _check_omega_spec(cfg["omega"])


@_validator("phase")
def _validate_phase(cfg):
    grid = cfg["vartheta_grid"]
    if isinstance(grid, dict):
        _require(set(grid) == {"start", "stop", "num"},
                 "vartheta_grid object needs start/stop/num")
        _require(_is_number(grid["start"]) and _is_number(grid["stop"])
                 and _is_number(grid["num"], int),
                 "vartheta_grid start/stop must be numbers and num an integer")
        _require(0 < grid["start"] <= grid["stop"] < 1 and grid["num"] >= 1,
                 "vartheta_grid out of range")
    else:
        _require(isinstance(grid, list) and grid, "vartheta_grid must be a list")
        for v in grid:
            _require(0 < v < 1, f"vartheta {v} out of range")
    _require(0 <= cfg["theta"] < 1, "theta must lie in [0, 1)")
    if cfg["h0"] is not None:
        _require(_is_number(cfg["h0"]) and -1 < cfg["h0"] < 1,
                 "h0 must be null or a number with |h0| < 1")


def _check_scalar_type(key, value, default):
    """A user value must have the type of its preset default: int fields take
    an int but not a bool, float fields an int or a float, str fields a str.
    Lists, objects and null defaults are left to the validators."""
    if isinstance(default, str):
        ok, what = isinstance(value, str), "a string"
    elif _is_number(default, int):
        ok, what = _is_number(value, int), "an integer"
    elif isinstance(default, float):
        ok, what = _is_number(value), "a number"
    else:
        return
    _require(ok, f"{key} must be {what}, got {value!r}")


def resolve_config(experiment: str, raw: dict | None, overrides: dict | None = None) -> dict:
    """Merge preset defaults, the user config, and CLI overrides; validate.

    Every field is explicit in the result, unknown keys are rejected, and
    the validated dict is what gets hashed and echoed into output headers.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    raw = dict(raw or {})
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    scale = overrides.get("scale") or raw.get("scale") or _COMMON_DEFAULTS["scale"]
    if scale not in ("desk", "paper"):
        raise ConfigError(f"scale must be 'desk' or 'paper', got {scale!r}")
    cfg = dict(_COMMON_DEFAULTS)
    cfg["experiment"] = experiment
    cfg["scale"] = scale
    cfg.update(_PRESETS[experiment][scale])
    allowed = set(cfg)
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    if raw.get("experiment", experiment) != experiment:
        raise ConfigError(
            f"config is for {raw['experiment']!r}, not {experiment!r}"
        )
    for key, value in raw.items():
        _check_scalar_type(key, value, cfg[key])
    cfg.update(raw)
    for key in ("seed", "threads", "out", "scale"):
        if key in overrides:
            cfg[key] = overrides[key]
    cfg["seed"] = int(cfg["seed"])
    cfg["threads"] = int(cfg["threads"])
    _require(cfg["seed"] >= 0, "seed must be non-negative")
    _require(cfg["threads"] >= 1, "threads must be >= 1")
    try:
        _VALIDATORS[experiment](cfg)
    except (TypeError, ValueError) as exc:  # e.g. a string inside a list
        raise ConfigError(f"malformed {experiment} config: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# deterministic replicate mapping
# ---------------------------------------------------------------------------

def _parallel_map(fn, count: int, threads: int):
    """Map fn over range(count) preserving order; thread pool when asked.

    Every task derives its randomness from its own index, so the result is
    identical whatever the worker count.
    """
    if threads <= 1 or count <= 1:
        return [fn(k) for k in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_detect_power(cfg: dict) -> ResultTable:
    """Size/power grid for HC variants at a shared simulated critical value."""
    root = cfg["seed"]
    p = int(cfg["p"])
    omega = _build_omega(cfg["omega"], p)
    table_rng = RngStream(root, _TABLE_LANE)
    tables = {}
    needed = {"hcplus" if v == "hcplus" else "ohc" for v in cfg["variants"]}
    for functional in sorted(needed):
        tables[functional] = detect.critical_value(
            p, [cfg["alpha"]], variant=functional,
            num_null_reps=int(cfg["null_reps"]), rng=table_rng.child(len(tables)),
            alpha0=cfg["alpha0"])

    jobs = [(v, r, variant) for v, r in cfg["grid"] for variant in cfg["variants"]]

    def one(k):
        v, r, variant = jobs[k]
        params = ArwParams(p=p, vartheta=float(v), r=float(r))
        functional = "hcplus" if variant == "hcplus" else "ohc"
        est = detect.power_estimate(
            params, omega, variant, cfg["alpha"], int(cfg["reps"]),
            RngStream(root, _WORK_LANE), table=tables[functional],
            alpha0=cfg["alpha0"])
        return (float(v), float(r), variant, est.size, est.power, est.power_se)

    rows = _parallel_map(one, len(jobs), cfg["threads"])
    return ResultTable("detect", ["vartheta", "r", "variant", "size", "power", "se"],
                       rows, cfg)


def run_recover(cfg: dict) -> ResultTable:
    """Mean Hamming distance versus dimension for the recovery methods."""
    root = cfg["seed"]
    vartheta, r = float(cfg["vartheta"]), float(cfg["r"])
    reps = int(cfg["reps"])
    methods = list(cfg["methods"])
    rows = []
    for p in cfg["p_grid"]:
        p = int(p)
        omega = _build_omega(cfg["omega"], p)
        params = ArwParams(p=p, vartheta=vartheta, r=r)
        t_ideal = select.ideal_threshold(p, vartheta, r)
        t_univ = select.universal_threshold(p)

        def one(k, p=p, omega=omega, params=params, t_ideal=t_ideal, t_univ=t_univ):
            # streams key on the grid value, so duplicate grid entries replay
            rng = RngStream(root, _WORK_LANE).child(p).child(k)
            inst = gen_arw(params, omega, rng)
            out = {}
            for method in methods:
                if method == "ht_ideal":
                    est = select.hard_threshold(inst.y, t_ideal)
                elif method == "ht_universal":
                    est = select.hard_threshold(inst.y, t_univ)
                else:
                    est = select.gs_estimate(inst.y, omega, vartheta, r,
                                             m0=int(cfg["m0"]), q=float(cfg["q"]))
                out[method] = select.hamming(est.beta_hat, inst.beta)
            return out

        per_rep = _parallel_map(one, reps, cfg["threads"])
        for method in methods:
            counts = np.array([d[method] for d in per_rep], dtype=float)
            report = select.hamming_report(counts)
            rows.append((p, method, report.mean, report.se))
    return ResultTable("recover", ["p", "method", "mean_hamming", "se"], rows, cfg)


def run_bandwidth(cfg: dict) -> ResultTable:
    """Bandwidth-estimation error rates across (epsilon, tau) mixtures.

    Per-replicate rows are followed, for each case, by a summary row with
    rep = -1 and b_hat = -1 whose `correct` column holds the error rate.
    """
    root = cfg["seed"]
    p, n, b, b0 = (int(cfg[k]) for k in ("p", "n", "b", "b0"))
    alpha = float(cfg["alpha"])
    reps = int(cfg["reps"])
    table = detect.critical_value(
        p, [alpha / b0], variant="hcplus", num_null_reps=int(cfg["null_reps"]),
        rng=RngStream(root, _TABLE_LANE), alpha0=cfg["alpha0"])
    rows = []
    for ci, (eps, tau) in enumerate(cfg["cases"]):
        def one(k, eps=eps, tau=tau, ci=ci):
            rng = RngStream(root, _WORK_LANE).child(ci).child(k)
            samples, sigma = gen_banded_sample(p, n, [(eps, tau)] * b, rng)
            est = apps.estimate_bandwidth(samples, b0, alpha, table,
                                          alpha0=cfg["alpha0"])
            truth = banded_true_bandwidth(sigma)
            return est.b_hat, est.b_hat == truth
        results = _parallel_map(one, reps, cfg["threads"])
        for k, (b_hat, correct) in enumerate(results):
            rows.append((float(eps), float(tau), k, b_hat, int(correct)))
        error_rate = 1.0 - sum(c for _, c in results) / reps
        rows.append((float(eps), float(tau), -1, -1, error_rate))
    return ResultTable("bandwidth", ["epsilon", "tau", "rep", "b_hat", "correct"],
                       rows, cfg)


def _ranking_case_operators(p: int, h0: float):
    """Sigma = I_{p/2} (x) B of one ranking case, B = [[1, h0], [h0, 1]], as a
    sparse matrix, and the 2x2 diagonal blocks of Sigma and
    Sigma^{1/2} = I_{p/2} (x) B^{1/2} as (p, 2) rows: row i holds the entries
    in columns cols[i].

    Both matrices vanish outside those blocks, so the product with v is
    (rows * v[cols]).sum(axis=1), at O(p) cost.
    """
    block = np.array([[1.0, h0], [h0, 1.0]])
    rows = np.arange(p)[:, None]
    cols = (rows & ~1) + np.arange(2)
    return (PrecisionModel.block2(p, h0).omega, cols, np.tile(block, (p // 2, 1)),
            np.tile(sym_sqrt(block), (p // 2, 1)))


def run_ranking(cfg: dict) -> ResultTable:
    """Feature-ranking AUC contrast between marginal and graph-guided scores.

    Signals follow the paired mixture; the ranking statistics are drawn from
    the exact-Gram regression equivalent (see the module README note), so
    the per-feature statistic is N((Sigma beta)_j, 1): the scale at which
    the signal-cancellation effect is visible. Summary rows use rep = -1.
    """
    root = cfg["seed"]
    p = int(cfg["p"])
    eps = float(cfg["epsilon"])
    reps = int(cfg["reps"])
    work_rng = RngStream(root, _WORK_LANE)
    rows = []
    for ci, (h0, tau) in enumerate(cfg["cases"]):
        sigma, cols, sigma_rows, sqrt_rows = _ranking_case_operators(p, float(h0))
        plan = apps.gs_plan(sigma, float(cfg["delta"]), int(cfg["m0"]))
        case_rng = work_rng.child(ci)

        def one(k, tau=tau, sigma=sigma, cols=cols, sigma_rows=sigma_rows,
                sqrt_rows=sqrt_rows, plan=plan, case_rng=case_rng):
            rng = case_rng.child(k)
            beta = draw_paired_beta(p, eps, float(tau), rng)
            truth = beta != 0.0
            if not truth.any() or truth.all():
                return math.nan, math.nan
            z = rng.standard_normal(p)
            xtw = (sigma_rows * beta[cols]).sum(axis=1) + (sqrt_rows * z[cols]).sum(axis=1)
            instance = RegressionInstance(gram=sigma, xtw=xtw)
            auc_us = apps.roc_curve(apps.rank_features_us(instance), truth).auc
            auc_gs = apps.roc_curve(apps.rank_features_gs(instance, plan), truth).auc
            return auc_us, auc_gs

        results = _parallel_map(one, reps, cfg["threads"])
        for k, (auc_us, auc_gs) in enumerate(results):
            rows.append((float(h0), float(tau), k, auc_us, auc_gs))
        valid = [(u, g) for u, g in results if not math.isnan(u)]
        mean_us = float(np.mean([u for u, _ in valid])) if valid else math.nan
        mean_gs = float(np.mean([g for _, g in valid])) if valid else math.nan
        rows.append((float(h0), float(tau), -1, mean_us, mean_gs))
    return ResultTable("ranking", ["h0", "tau", "rep", "auc_us", "auc_gs"],
                       rows, cfg)


def run_classify(cfg: dict) -> ResultTable:
    """Held-out error of the HC-thresholded classifier over a (vartheta, r) grid."""
    root = cfg["seed"]
    p = int(cfg["p"])
    theta = float(cfg["theta"])
    omega = _build_omega(cfg["omega"], p)
    rows = []
    threads = cfg["threads"]
    for v, r in cfg["grid"]:
        def map_fn(fn, xs):
            items = list(xs)
            return _parallel_map(lambda k: fn(items[k]), len(items), threads)
        report = classify.classification_error(
            float(v), float(r), theta, p, omega, int(cfg["reps"]),
            int(cfg["test_size"]), RngStream(root, _WORK_LANE),
            alpha0=float(cfg["alpha0"]), map_fn=map_fn)
        rows.append((float(v), float(r), theta, p, report.mean_error, report.se))
    return ResultTable("classify", ["vartheta", "r", "theta", "p", "mean_error", "se"],
                       rows, cfg)


def run_phase(cfg: dict) -> ResultTable:
    """Boundary-curve grid export for plotting."""
    grid = cfg["vartheta_grid"]
    if isinstance(grid, dict):
        varthetas = np.linspace(grid["start"], grid["stop"], int(grid["num"]))
    else:
        varthetas = [float(v) for v in grid]
    rows = phase.boundary_grid(varthetas, theta=float(cfg["theta"]), h0=cfg["h0"])
    return ResultTable("phase",
                       ["vartheta", "rho_detect", "rho_exact", "rho_classify_theta"],
                       rows, cfg)


_RUNNERS = {
    "detect": run_detect_power,
    "recover": run_recover,
    "bandwidth": run_bandwidth,
    "ranking": run_ranking,
    "classify": run_classify,
    "phase": run_phase,
}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rareweak",
        description="Seeded Monte Carlo harness for rare/weak inference studies",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="root seed override")
        p.add_argument("--scale", choices=["desk", "paper"],
                       help="preset scale (default desk)")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--threads", type=int,
                       help="worker threads (default RAREWEAK_THREADS or 1)")
    return parser


def _read_config(path) -> dict:
    """The JSON object in a config file; anything else is a ConfigError."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return raw


def _env_threads():
    value = os.environ.get("RAREWEAK_THREADS")
    if not value:
        return None
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"RAREWEAK_THREADS must be an integer, got {value!r}") from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = _read_config(args.config) if args.config else None
        threads = args.threads if args.threads is not None else _env_threads()
        overrides = {"seed": args.seed, "scale": args.scale, "out": args.out,
                     "threads": threads}
        cfg = resolve_config(args.experiment, raw, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        table = _RUNNERS[args.experiment](cfg)
    except RareWeakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.experiment}.csv")
    table.write_csv(path)
    print(f"wrote {path} ({len(table.rows)} rows, config {config_hash(cfg)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
