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
import copy
import functools
import hashlib
import json
import math
import operator
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import apps, classify, detect, phase, select
from .errors import ConfigError, RareWeakError
from .graph import graph_from_matrix
from .models import (
    ArwParams,
    PrecisionModel,
    RegressionInstance,
    banded_true_bandwidth,
    draw_paired_beta,
    gen_arw,
    gen_banded_sample,
    pair_blocks,
)
from .numerics import BLOCK_VALUES, RngStream, row_blocks, sym_sqrt

EXPERIMENTS = ("detect", "recover", "bandwidth", "ranking", "classify", "phase")

# Stream lanes: lane 0 simulates critical-value tables (detect's i-th table
# uses its child(i)), lane 1 feeds replicate work. Replicate k of unit u uses
# lane 1's child(u).child(k), where u is the case index for bandwidth and
# ranking and the grid value p for recover. detect and classify hand lane 1
# itself to the library: replicate k of detect.power_estimate uses
# child(1).child(k), and of classify.classification_error child(k), at every
# grid point and variant, so grid points share draws.
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

class _Check(NamedTuple):
    """One config rule. `ok` tests a value's JSON type before it compares, so
    it answers True or False for any value; `what` words the rule for the
    error message."""
    what: str
    ok: Callable[[object], bool]


def _finite(x) -> bool:
    """A JSON number that is a finite double: not a bool, NaN, +-Infinity or
    an integer beyond the float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return math.isfinite(x) if isinstance(x, float) else abs(x) <= sys.float_info.max


def _number(interval: str) -> _Check:
    """Finite numbers, integers included, in an interval written "(0, 0.5]"."""
    lo, hi = (float(t) for t in interval[1:-1].split(","))
    above = operator.lt if interval[0] == "(" else operator.le
    below = operator.lt if interval[-1] == ")" else operator.le
    return _Check(f"a finite number in {interval}",
                  lambda x: _finite(x) and above(lo, x) and below(x, hi))


def _integer(lo: int, hi=math.inf) -> _Check:
    what = f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]"
    return _Check(what, lambda x: _finite(x) and isinstance(x, int) and lo <= x <= hi)


def _one_of(*options) -> _Check:
    return _Check("one of " + ", ".join(map(repr, options)),
                  lambda x: isinstance(x, str) and x in options)


def _list_of(item: _Check, nonempty: bool = False) -> _Check:
    return _Check(f"a {'nonempty ' if nonempty else ''}list, each {item.what}",
                  lambda x: isinstance(x, list) and (len(x) > 0 or not nonempty)
                  and all(item.ok(v) for v in x))


def _pair(a: _Check, b: _Check) -> _Check:
    return _Check(f"[{a.what}, {b.what}]",
                  lambda x: isinstance(x, list) and len(x) == 2
                  and a.ok(x[0]) and b.ok(x[1]))


def _either(a: _Check, b: _Check) -> _Check:
    return _Check(f"{a.what} or {b.what}", lambda x: a.ok(x) or b.ok(x))


_IDENTITY = {"kind": "identity"}
_VARTHETA = _number("(0, 1)")
_H0 = _number("(-1, 1)")
_GRID = _list_of(_pair(_VARTHETA, _number("(0, inf)")))  # (vartheta, r) points
_OMEGA = _Check(
    f"{{'kind': 'identity'}} or {{'kind': 'block2', 'h0': h0}} with h0 {_H0.what}",
    lambda x: x == _IDENTITY or (
        isinstance(x, dict) and set(x) == {"kind", "h0"} and x["kind"] == "block2"
        and _H0.ok(x["h0"])))
_LINSPACE = _Check(
    "{'start': a, 'stop': b, 'num': n} with 0 < a <= b < 1 and an integer n >= 1",
    lambda x: isinstance(x, dict) and set(x) == {"start", "stop", "num"}
    and _VARTHETA.ok(x["start"]) and _VARTHETA.ok(x["stop"])
    and x["start"] <= x["stop"] and _integer(1).ok(x["num"]))

_SIX_BANDWIDTH_CASES = [[0.01, 0.175], [0.01, 0.2], [0.01, 0.225],
                        [0.005, 0.225], [0.005, 0.25], [0.01, 0.275]]

# field: (desk default, paper default, check). Every experiment has the
# _COMMON fields; "scale" picks the default column and "experiment" must
# name the experiment being run.
_COMMON = {
    "seed": (20260801, 20260801, _integer(0, 2**64 - 1)),
    "threads": (1, 1, _integer(1)),
    "out": (".", ".", _Check("a string", lambda x: isinstance(x, str))),
}

_SCHEMA = {
    "detect": {
        "p": (2000, 10000, _integer(4)),
        "omega": (_IDENTITY, {"kind": "block2", "h0": 0.5}, _OMEGA),
        "alpha": (0.05, 0.05, _number("(0, 1)")),
        "grid": ([[0.6, 1.2]], [[0.6, 1.2]], _GRID),
        "variants": (["ohc"], ["bhc", "whc", "ihc"],
                     _list_of(_one_of(*detect.VARIANTS), nonempty=True)),
        "reps": (100, 200, _integer(50)),
        "null_reps": (500, 2000, _integer(100)),
        "alpha0": (0.5, 0.5, _number("(0, 0.5]")),
    },
    "recover": {
        "vartheta": (0.5, 0.5, _VARTHETA),
        "r": (2.0, 2.0, _number("(0, inf)")),
        "p_grid": ([512, 1024, 2048], [512, 1024, 2048, 4096, 8192, 16384],
                   _list_of(_integer(8), nonempty=True)),
        "reps": (50, 200, _integer(1)),
        "methods": (["ht_ideal", "ht_universal"], ["ht_ideal"],
                    _list_of(_one_of("ht_ideal", "ht_universal", "gs"), nonempty=True)),
        "m0": (1, 1, _integer(1)),
        "q": (select.DEFAULT_SCREEN_Q, select.DEFAULT_SCREEN_Q, _number("(0, inf)")),
        "omega": (_IDENTITY, _IDENTITY, _OMEGA),
    },
    "bandwidth": {
        "p": (2000, 5000, _integer(8)),
        "n": (200, 200, _integer(2)),
        "b": (2, 2, _integer(1)),
        "b0": (10, 10, _integer(1)),
        "alpha": (0.05, 0.05, _number("(0, 1)")),
        "cases": ([[0.01, 0.225]], _SIX_BANDWIDTH_CASES,  # (epsilon, tau)
                  _list_of(_pair(_number("[0, 1]"), _number("[0, inf)")))),
        "reps": (50, 200, _integer(1)),
        "null_reps": (4000, 20000, _integer(100)),
        "alpha0": (0.5, 0.5, _number("(0, 0.5]")),
    },
    "ranking": {
        "p": (400, 1000, _integer(4)),
        "epsilon": (0.05, 0.05, _number("[0, 1]")),
        "cases": ([[-0.8, 4.0], [0.8, 1.5]], [[-0.8, 4.0], [0.8, 1.5]],  # (h0, tau)
                  _list_of(_pair(_H0, _number("[0, inf)")))),
        "reps": (50, 200, _integer(1)),
        "m0": (2, 2, _integer(1)),
        "delta": (0.5, 0.5, _number("[0, inf)")),
    },
    "classify": {
        "p": (2000, 10000, _integer(10)),
        "theta": (0.4, 0.4, _number("(0, 1)")),
        "grid": ([[0.3, 1.2]], [[0.3, 1.2], [0.5, 0.02]], _GRID),
        "reps": (20, 50, _integer(20)),
        "test_size": (200, 200, _integer(1)),
        "alpha0": (0.1, 0.1, _number("(0, 0.5]")),
        "omega": (_IDENTITY, _IDENTITY, _OMEGA),
    },
    "phase": {
        "vartheta_grid": ({"start": 0.05, "stop": 0.95, "num": 19},
                          {"start": 0.05, "stop": 0.95, "num": 181},
                          _either(_LINSPACE, _list_of(_VARTHETA, nonempty=True))),
        "theta": (0.2, 0.2, _number("[0, 1)")),
        "h0": (None, None, _either(_Check("null", lambda x: x is None), _H0)),
    },
}

# The rules that relate fields, checked once every field has passed its own,
# so that a config a runner would reject fails before any simulation.
_EVEN_BLOCK2 = _Check(
    "an even p under a block2 omega",
    lambda c: c["omega"] == _IDENTITY
    or all(p % 2 == 0 for p in c.get("p_grid", [c.get("p")])))
# HC+ and HCT maximize over the first floor(alpha0 * p) sorted P-values, so
# a product below 1 leaves none
_ALPHA0_P = _Check("alpha0 * p >= 1", lambda c: math.floor(c["alpha0"] * c["p"]) >= 1)
_CROSS_CHECKS = {
    "detect": (_EVEN_BLOCK2,
               _Check("alpha0 * p >= 1 for the hcplus variant",
                      lambda c: "hcplus" not in c["variants"] or _ALPHA0_P.ok(c))),
    "recover": (_EVEN_BLOCK2,),
    # the scan's last diagonal, b0, needs two entries for its HC+ statistic
    "bandwidth": (_Check("b <= b0 <= p - 2", lambda c: c["b"] <= c["b0"] <= c["p"] - 2),
                  _ALPHA0_P),
    "ranking": (_Check("an even p", lambda c: c["p"] % 2 == 0),),
    "classify": (_EVEN_BLOCK2, _ALPHA0_P),
}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _build_omega(spec, p) -> PrecisionModel:
    if spec["kind"] == "identity":
        return PrecisionModel.identity(p)
    return PrecisionModel.block2(p, float(spec["h0"]))


def resolve_config(experiment: str, raw: dict | None, overrides: dict | None = None) -> dict:
    """Merge the scale's defaults, the user config and the CLI overrides, and
    check every field against the experiment's schema.

    Every field is explicit in the result, unknown keys are rejected, and
    values are kept as written: the dict is what gets hashed and echoed into
    output headers. Overrides (None means absent) pass the same checks.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    raw = dict(raw or {})
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    schema = {**_COMMON, **_SCHEMA[experiment]}
    unknown = set(raw) - set(schema) - {"experiment", "scale"}
    _require(not unknown, f"unknown config keys for {experiment}: {sorted(unknown)}")
    _require(raw.get("experiment", experiment) == experiment,
             f"config is for {raw.get('experiment')!r}, not {experiment!r}")
    scale = overrides.get("scale", raw.get("scale", "desk"))
    _require(isinstance(scale, str) and scale in ("desk", "paper"),
             f"scale must be 'desk' or 'paper', got {scale!r}")
    cfg = {"experiment": experiment, "scale": scale}
    for key, (desk, paper, check) in schema.items():
        default = copy.deepcopy(paper if scale == "paper" else desk)
        value = overrides.get(key, raw.get(key, default))
        _require(check.ok(value), f"{key} must be {check.what}, got {value!r}")
        cfg[key] = value
    for cross in _CROSS_CHECKS.get(experiment, ()):
        _require(cross.ok(cfg), f"{experiment} config needs {cross.what}")
    return cfg


# ---------------------------------------------------------------------------
# deterministic replicate mapping
# ---------------------------------------------------------------------------

def _parallel_map(fn, items, threads: int) -> list:
    """list(map(fn, items)), on a pool of this many threads when above one.

    Every task derives its randomness from its own item, so the result is
    identical whatever the worker count.
    """
    if threads <= 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_detect_power(cfg: dict) -> ResultTable:
    """Size/power grid for HC variants at a shared simulated critical value."""
    root = cfg["seed"]
    p = cfg["p"]
    omega = _build_omega(cfg["omega"], p)
    table_rng = RngStream(root, _TABLE_LANE)
    needed = sorted({detect.TABLE_FUNCTIONAL[v] for v in cfg["variants"]})
    tables = {functional: detect.critical_value(
        p, [cfg["alpha"]], variant=functional, num_null_reps=cfg["null_reps"],
        rng=table_rng.child(i), alpha0=cfg["alpha0"])
        for i, functional in enumerate(needed)}

    jobs = [(v, r, variant) for v, r in cfg["grid"] for variant in cfg["variants"]]

    def one(job):
        v, r, variant = job
        params = ArwParams(p=p, vartheta=float(v), r=float(r))
        est = detect.power_estimate(
            params, omega, variant, cfg["alpha"], cfg["reps"],
            RngStream(root, _WORK_LANE),
            table=tables[detect.TABLE_FUNCTIONAL[variant]], alpha0=cfg["alpha0"])
        return (float(v), float(r), variant, est.size, est.power, est.power_se)

    rows = _parallel_map(one, jobs, cfg["threads"])
    return ResultTable("detect", ["vartheta", "r", "variant", "size", "power", "se"],
                       rows, cfg)


def run_recover(cfg: dict) -> ResultTable:
    """Mean Hamming distance versus dimension for the recovery methods."""
    root = cfg["seed"]
    vartheta, r = float(cfg["vartheta"]), float(cfg["r"])
    methods = list(cfg["methods"])
    rows = []
    for p in cfg["p_grid"]:
        p = int(p)
        omega = _build_omega(cfg["omega"], p)
        params = ArwParams(p=p, vartheta=vartheta, r=r)
        t_ideal = select.ideal_threshold(p, vartheta, r)
        t_univ = select.universal_threshold(p)
        plan = (select.gs_plan(omega.omega, omega.graph(), cfg["m0"])
                if "gs" in methods else None)

        def one(k):
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
                    est = select.gs_estimate(inst.y, omega, plan, vartheta, r,
                                             q=float(cfg["q"]))
                out[method] = select.hamming(est.beta_hat, inst.beta)
            return out

        per_rep = _parallel_map(one, range(cfg["reps"]), cfg["threads"])
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
    p, n, b, b0 = cfg["p"], cfg["n"], cfg["b"], cfg["b0"]
    alpha = float(cfg["alpha"])
    reps = cfg["reps"]
    table = detect.critical_value(
        p, [alpha / b0], variant="hcplus", num_null_reps=cfg["null_reps"],
        rng=RngStream(root, _TABLE_LANE), alpha0=cfg["alpha0"])
    rows = []
    for ci, (eps, tau) in enumerate(cfg["cases"]):
        def one(k):
            rng = RngStream(root, _WORK_LANE).child(ci).child(k)
            blocks, sigma = gen_banded_sample(p, n, [(eps, tau)] * b, rng)
            b_hat = apps.estimate_bandwidth(blocks, b0, alpha, table,
                                            alpha0=cfg["alpha0"])
            return b_hat, b_hat == banded_true_bandwidth(sigma)
        results = _parallel_map(one, range(reps), cfg["threads"])
        for k, (b_hat, correct) in enumerate(results):
            rows.append((float(eps), float(tau), k, b_hat, int(correct)))
        error_rate = 1.0 - sum(c for _, c in results) / reps
        rows.append((float(eps), float(tau), -1, -1, error_rate))
    return ResultTable("bandwidth", ["epsilon", "tau", "rep", "b_hat", "correct"],
                       rows, cfg)


def run_ranking(cfg: dict) -> ResultTable:
    """Feature-ranking AUC contrast between marginal and graph-guided scores.

    Signals follow the paired mixture; the ranking statistics are drawn from
    the exact-Gram regression equivalent (see the module README note), so
    the per-feature statistic is N((Sigma beta)_j, 1): the scale at which
    the signal-cancellation effect is visible. Summary rows use rep = -1.

    Each replicate draws from its own stream, and a replicate whose support
    is empty or everything draws no noise and gets NaN AUCs. The others are
    scored together in the consecutive replicates of numerics.row_blocks(reps,
    p): per block, one pair of Sigma products, US scores that GS starts from,
    and ROC areas, each row equal to scoring its replicate alone.

    cfg["threads"] is the most threads used. The blocks go to a pool only
    when they are at row_blocks' 4-row floor and each holds more than
    BLOCK_VALUES values (4 p > BLOCK_VALUES, so p >= 2,049); smaller blocks
    make short numpy calls that hand the interpreter lock back and forth,
    and two threads lose to one, so they run in order on this thread.
    """
    root = cfg["seed"]
    p = cfg["p"]
    eps = float(cfg["epsilon"])
    threads = cfg["threads"] if 4 * p > BLOCK_VALUES else 1
    work_rng = RngStream(root, _WORK_LANE)
    rows = []
    for ci, (h0, tau) in enumerate(cfg["cases"]):
        tile = np.array([[1.0, h0], [h0, 1.0]])
        sigma, sigma_sqrt = pair_blocks(p, tile), pair_blocks(p, sym_sqrt(tile))
        plan = select.gs_plan(sigma, graph_from_matrix(sigma, float(cfg["delta"])),
                              cfg["m0"])
        case_rng = work_rng.child(ci)

        def block(span):
            ks = range(*span)
            aucs = np.full((len(ks), 2), math.nan)  # (auc_us, auc_gs) per replicate
            scored, beta_rows, noise_rows = [], [], []
            for row, k in enumerate(ks):
                rng = case_rng.child(k)
                beta = draw_paired_beta(p, eps, tau, rng)
                if 0 < np.count_nonzero(beta) < p:
                    scored.append(row)
                    beta_rows.append(beta)
                    noise_rows.append(rng.standard_normal(p))
            if not scored:
                return aucs
            beta, noise = np.array(beta_rows), np.array(noise_rows)
            xtw = (sigma @ beta.T + sigma_sqrt @ noise.T).T
            instance = RegressionInstance(gram=sigma, xtw=xtw)
            truth = beta != 0.0
            us = apps.rank_features_us(instance)
            aucs[scored, 1] = apps.roc_curve(apps.rank_features_gs(instance, plan, us), truth)
            aucs[scored, 0] = apps.roc_curve(us, truth)
            return aucs

        aucs = np.concatenate(_parallel_map(block, row_blocks(cfg["reps"], p), threads))
        for k, (auc_us, auc_gs) in enumerate(aucs.tolist()):
            rows.append((float(h0), float(tau), k, auc_us, auc_gs))
        # contiguous columns, so that np.mean sums each one pairwise
        valid = aucs[~np.isnan(aucs[:, 0])].T.copy()
        mean_us, mean_gs = (float(np.mean(col)) if col.size else math.nan for col in valid)
        rows.append((float(h0), float(tau), -1, mean_us, mean_gs))
    return ResultTable("ranking", ["h0", "tau", "rep", "auc_us", "auc_gs"],
                       rows, cfg)


def run_classify(cfg: dict) -> ResultTable:
    """Held-out error of the HC-thresholded classifier over a (vartheta, r) grid."""
    root = cfg["seed"]
    p = cfg["p"]
    theta = float(cfg["theta"])
    omega = _build_omega(cfg["omega"], p)
    rows = []
    map_fn = functools.partial(_parallel_map, threads=cfg["threads"])
    for v, r in cfg["grid"]:
        report = classify.classification_error(
            float(v), float(r), theta, p, omega, cfg["reps"],
            cfg["test_size"], RngStream(root, _WORK_LANE),
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


def _output_path(out_dir: str, experiment: str) -> str:
    """The CSV path in out_dir, creating the directory; checked before the
    run so that an unusable --out fails at once, not after the whole run."""
    path = os.path.join(out_dir, f"{experiment}.csv")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: "
                          f"{exc.strerror or exc}") from exc
    if os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")
    return path


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = _read_config(args.config) if args.config else None
        threads = args.threads if args.threads is not None else _env_threads()
        overrides = {"seed": args.seed, "scale": args.scale, "out": args.out,
                     "threads": threads}
        cfg = resolve_config(args.experiment, raw, overrides)
        path = _output_path(cfg["out"], args.experiment)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        table = _RUNNERS[args.experiment](cfg)
    except RareWeakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        table.write_csv(path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(f"wrote {path} ({len(table.rows)} rows, config {config_hash(cfg)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
