"""Output checks: CSV shape and value ranges, body digests, replicate NaNs.

A CSV body is every line after the ``#`` header. Bodies are compared by
SHA-256 digest: across the runs of one invocation, and for recorded seeds
against ``digests.json`` (made from the parent code, ranking at one thread,
so a two-thread run also re-checks thread invariance).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

COLUMNS = {
    "detect": ["vartheta", "r", "variant", "size", "power", "se"],
    "recover": ["p", "method", "mean_hamming", "se"],
    "bandwidth": ["epsilon", "tau", "rep", "b_hat", "correct"],
    "ranking": ["h0", "tau", "rep", "auc_us", "auc_gs"],
    "classify": ["vartheta", "r", "theta", "p", "mean_error", "se"],
    "phase": ["vartheta", "rho_detect", "rho_exact", "rho_classify_theta"],
}

TEXT_COLUMN = {"detect": 2, "recover": 1}  # variant, method


def read_csv(path):
    """Return (resolved config echoed in the header, header lines, body text)."""
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    header = [ln for ln in lines if ln.startswith("#")]
    body = "".join(ln for ln in lines if not ln.startswith("#"))
    echo = [ln[len("# config="):] for ln in header if ln.startswith("# config=")]
    cfg = json.loads(echo[0]) if echo else None
    return cfg, header, body


def digest(body: str) -> str:
    return hashlib.sha256(body.encode()).hexdigest()


def _unit(x):
    return 0.0 <= x <= 1.0


def check_body(experiment, body, cfg):
    """Problems with one CSV body, as strings (an empty list means valid)."""
    lines = body.splitlines()
    if not lines or lines[0].split(",") != COLUMNS[experiment]:
        return [f"{experiment}: unexpected column line {lines[:1]}"]
    rows = [ln.split(",") for ln in lines[1:]]
    problems = []
    if any(len(r) != len(COLUMNS[experiment]) for r in rows):
        return [f"{experiment}: ragged rows"]
    try:
        problems += _check_rows(experiment, rows, cfg)
    except ValueError as exc:
        problems.append(f"{experiment}: unparsable value ({exc})")
    return problems


def _check_rows(experiment, rows, cfg):
    text = TEXT_COLUMN.get(experiment)
    num = [[float(v) for i, v in enumerate(r) if i != text] for r in rows]
    bad = []
    if experiment == "bandwidth":
        expect = len(cfg["cases"]) * (cfg["reps"] + 1)
        for _, _, rep, b_hat, correct in num:
            ok = (b_hat == -1 and _unit(correct)) if rep == -1 else (
                0 <= b_hat <= cfg["b0"] and correct in (0.0, 1.0))
            bad += [] if ok else [f"bandwidth row rep={rep} out of range"]
    elif experiment == "ranking":
        expect = len(cfg["cases"]) * (cfg["reps"] + 1)
        for _, _, rep, us, gs in num:
            ok = (_unit(us) and _unit(gs)) or (rep >= 0 and math.isnan(us)
                                                and math.isnan(gs))
            bad += [] if ok else [f"ranking row rep={rep} out of range"]
    elif experiment == "detect":
        expect = len(cfg["grid"]) * len(cfg["variants"])
        for _, _, size, power, se in num:
            bad += [] if (_unit(size) and _unit(power) and 0 <= se <= 1) else [
                "detect row out of range"]
    elif experiment == "recover":
        expect = len(cfg["p_grid"]) * len(cfg["methods"])
        for p, mean, se in num:
            bad += [] if (0 <= mean <= p and 0 <= se <= p) else [
                "recover row out of range"]
    elif experiment == "classify":
        expect = len(cfg["grid"])
        for *_, mean, se in num:
            bad += [] if (_unit(mean) and 0 <= se <= 1) else [
                "classify row out of range"]
    else:
        grid = cfg["vartheta_grid"]
        expect = grid["num"] if isinstance(grid, dict) else len(grid)
        for v, det, exact, cls in num:
            ok = all(math.isfinite(x) and x >= 0 for x in (v, det, exact)) and (
                cls >= 0 if math.isfinite(cls) else v >= 1 - cfg["theta"])
            bad += [] if ok else [f"phase row vartheta={v} out of range"]
    if len(rows) != expect:
        bad.append(f"{experiment}: {len(rows)} rows, expected {expect}")
    return bad


def nan_replicates(body):
    """Ranking replicate rows (rep >= 0) whose AUCs are NaN."""
    rows = [ln.split(",") for ln in body.splitlines()[1:]]
    return sum(1 for r in rows if int(r[2]) >= 0 and r[3] == "nan")


def load_digests():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)
