"""Sparse-signal detection via the Higher Criticism family.

P-value pipelines under three noise transforms (marginal, whitened,
innovated), the orthodox HC statistic and its heavy-tail-guarded variant,
simulated critical values, and Monte Carlo size/power estimation, where the
innovated variant's threshold is inflated by the precision matrix's maximum
row-nonzero count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import PrecisionModel, gen_arw
from .numerics import RngStream, normal_sf, row_blocks

# P-values equal to 0 or 1 are clamped here to keep the HC denominator finite.
PVALUE_CLAMP = 1e-15

TRANSFORMS = ("none", "whitened", "innovated")
SIDES = ("upper", "two")

# Each HC variant is a P-value pipeline: variant -> (transform, side).
_VARIANT_PVALUES = {
    "ohc": ("none", "upper"),
    "hcplus": ("none", "upper"),
    "bhc": ("none", "two"),
    "whc": ("whitened", "two"),
    "ihc": ("innovated", "two"),
}
VARIANTS = tuple(_VARIANT_PVALUES)


@dataclass(frozen=True)
class DetectionResult:
    statistic: float
    clamped: bool = False


def pvalues(y: np.ndarray, omega: PrecisionModel, transform: str = "none",
            side: str = "upper") -> np.ndarray:
    """Per-coordinate P-values of the observation under a noise transform.

    transform "none" standardizes each Y_i by sqrt(Sigma(i,i)); "whitened"
    applies Omega^{1/2} (unit noise variance); "innovated" applies Omega,
    whose unit diagonal makes the transformed variance 1. Upper-side
    P-values are P(N(0,1) >= t), two-sided are P(|N(0,1)| >= |t|).
    """
    if transform not in TRANSFORMS:
        raise DomainError(f"unknown transform {transform!r}")
    if side not in SIDES:
        raise DomainError(f"unknown side {side!r}")
    y = np.asarray(y, dtype=float)
    if y.shape != (omega.p,):
        raise DomainError("y length must match omega dimension")
    if transform == "none":
        t = y / np.sqrt(omega.sigma_diag())
    elif transform == "whitened":
        t = omega.sqrt_matvec(y)
    else:
        t = omega.matvec(y)
    if side == "upper":
        return normal_sf(t)
    return 2.0 * normal_sf(np.abs(t))


def _pvalue_array(pv) -> np.ndarray:
    vals = np.asarray(pv, dtype=float)
    if vals.ndim != 1 or vals.size < 2:
        raise DomainError("need a vector of at least two P-values")
    return vals


def _hc_objective(sorted_p: np.ndarray, p: int,
                  denom: np.ndarray | None = None) -> np.ndarray:
    """sqrt(p) (i/p - pi_(i)) / sqrt(d (1 - d)) along the last axis of the
    leading sorted P-values.

    d is the P-value itself unless a denominator (HCT uses i/p) is given.
    """
    i = np.arange(1, sorted_p.shape[-1] + 1)
    d = sorted_p if denom is None else denom
    obj = i / p - sorted_p
    obj *= math.sqrt(p)
    den = 1.0 - d
    den *= d
    obj /= np.sqrt(den, out=den)
    return obj


def _hc(rows: np.ndarray, frac: float, floor: bool):
    """Maximum of the HC objective of each row over i <= frac * p.

    rows is an (m, p) block of P-value rows. With floor, indices whose sorted
    P-value is at most 1/p are infeasible; an empty feasible set gives
    statistic -inf. Returns per-row statistics and clamped flags (some
    P-value equal to 0 or 1).
    """
    m, p = rows.shape
    srt = np.sort(rows, axis=1)
    lo, hi = srt[:, 0], srt[:, -1]
    # NaN sorts last, so a row holding one fails the upper check
    if not (np.all(lo >= 0.0) and np.all(hi <= 1.0)):
        raise DomainError("P-values must lie in [0, 1]")
    clamped = (lo <= 0.0) | (hi >= 1.0)
    # clipping is monotone, so clipping the sorted head equals sorting the clipped row
    head = srt[:, : int(math.floor(frac * p))]
    if head.shape[1] == 0:
        return np.full(m, -math.inf), clamped
    np.clip(head, PVALUE_CLAMP, 1.0 - PVALUE_CLAMP, out=head)
    obj = _hc_objective(head, p)
    if floor:
        obj[head <= 1.0 / p] = -math.inf
    return obj.max(axis=1), clamped


def _hc_result(pv, frac: float, floor: bool) -> DetectionResult:
    stat, clamped = _hc(_pvalue_array(pv)[None, :], frac, floor)
    return DetectionResult(statistic=float(stat[0]), clamped=bool(clamped[0]))


def hc_statistic(pv) -> DetectionResult:
    """Orthodox HC: maximize the standardized rank discrepancy over i <= p/2."""
    return _hc_result(pv, 0.5, False)


def hc_plus_statistic(pv, alpha0: float = 0.5) -> DetectionResult:
    """HC restricted to i <= alpha0 * p with sorted P-values above 1/p.

    The feasible set may be empty, in which case the statistic is -inf and
    no threshold rejects.
    """
    _check_alpha0(alpha0)
    return _hc_result(pv, alpha0, True)


def _check_alpha0(alpha0: float):
    if not 0.0 < alpha0 <= 0.5:
        raise DomainError("alpha0 must lie in (0, 0.5]")


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalValueTable:
    """Simulated null quantiles of an HC variant at one dimension."""

    p: int
    variant: str
    alphas: tuple
    quantiles: tuple
    num_null_reps: int
    alpha0: float = 0.5

    def value(self, alpha: float) -> float:
        for a, q in zip(self.alphas, self.quantiles):
            if abs(a - alpha) <= 1e-12:
                return q
        raise DomainError(f"alpha {alpha} not in simulated grid {self.alphas}")

    def check(self, p: int, functional: str, alpha0: float = 0.5):
        """Raise DomainError unless the table fits data of dimension p.

        The table must have been simulated for this functional, at this p,
        and, for the HC+ functional, at this alpha0.
        """
        if self.variant != functional:
            raise DomainError(
                f"need a table for the {functional!r} functional, got {self.variant!r}")
        if self.p != p:
            raise DomainError(f"table dimension {self.p} != data dimension {p}")
        if functional == "hcplus" and self.alpha0 != alpha0:
            raise DomainError(f"table alpha0 {self.alpha0} != alpha0 {alpha0}")


def critical_value(p: int, alphas, variant: str = "ohc",
                   num_null_reps: int = 1000, *, rng: RngStream,
                   alpha0: float = 0.5) -> CriticalValueTable:
    """Simulate null quantiles of an HC variant over iid uniform P-values.

    The null draws take Y ~ N(0, I_p), under which the P-values are exactly
    iid uniform, so the statistic is simulated on sorted uniforms directly.
    """
    if num_null_reps < 100:
        raise DomainError("num_null_reps must be at least 100")
    if variant not in ("ohc", "hcplus"):
        raise DomainError("tables are simulated for the 'ohc' or 'hcplus' functional")
    alphas = [float(a) for a in np.atleast_1d(alphas)]
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise DomainError(f"alpha {a} outside (0, 1)")
    if p < 2:
        raise DomainError("p must be at least 2")
    if variant == "hcplus":
        _check_alpha0(alpha0)
    frac, floor = (0.5, False) if variant == "ohc" else (alpha0, True)
    # Row blocks hold the values of consecutive uniform(p) draws, in order.
    stats = np.empty(num_null_reps)
    for lo, hi in row_blocks(num_null_reps, p):
        stats[lo:hi] = _hc(rng.uniform((hi - lo, p)), frac, floor)[0]
    quantiles = tuple(float(np.quantile(stats, 1.0 - a)) for a in alphas)
    return CriticalValueTable(p=int(p), variant=variant, alphas=tuple(alphas),
                              quantiles=quantiles, num_null_reps=num_null_reps,
                              alpha0=alpha0)


# ---------------------------------------------------------------------------
# size and power
# ---------------------------------------------------------------------------

def _variant_statistic(y: np.ndarray, omega: PrecisionModel, variant: str,
                       alpha0: float = 0.5) -> DetectionResult:
    pv = pvalues(y, omega, *_VARIANT_PVALUES[variant])
    if variant == "hcplus":
        return hc_plus_statistic(pv, alpha0=alpha0)
    return hc_statistic(pv)


def variant_threshold(omega: PrecisionModel, variant: str, alpha: float,
                      table: CriticalValueTable) -> float:
    """The table's critical value at alpha; the innovated variant multiplies
    it by the maximum row-nonzero count of the precision matrix."""
    mult = omega.row_nonzero_max() if variant == "ihc" else 1.0
    return mult * table.value(alpha)


@dataclass(frozen=True)
class PowerEstimate:
    size: float
    power: float
    size_se: float
    power_se: float


def power_estimate(params, omega: PrecisionModel, variant: str,
                   alpha: float, reps: int, rng: RngStream,
                   table: CriticalValueTable, alpha0: float = 0.5) -> PowerEstimate:
    """Monte Carlo size and power at a shared simulated critical value.

    params is an ArwParams or MixtureParams; only (p, epsilon, tau) are used.
    table must be simulated at p for the variant's functional: 'hcplus' for
    HC+, at this alpha0, and 'ohc' for every other variant.

    Replicate k draws its null and alternative data from substreams
    rng.child(1).child(k), so calls sharing a root stream are paired draw
    for draw (common random numbers across parameter grids).
    """
    if reps < 50:
        raise DomainError("reps must be at least 50")
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    table.check(params.p, "hcplus" if variant == "hcplus" else "ohc", alpha0)
    threshold = variant_threshold(omega, variant, alpha, table)
    null_rejects = 0
    alt_rejects = 0
    lane = rng.child(1)
    for k in range(reps):
        rep = lane.child(k)
        y0 = omega.sample_noise(rep.child(0))
        if _variant_statistic(y0, omega, variant, alpha0).statistic >= threshold:
            null_rejects += 1
        inst = gen_arw(params, omega, rep.child(1))
        if _variant_statistic(inst.y, omega, variant, alpha0).statistic >= threshold:
            alt_rejects += 1
    size = null_rejects / reps
    power = alt_rejects / reps
    return PowerEstimate(
        size=size, power=power,
        size_se=math.sqrt(max(size * (1 - size), 1e-12) / reps),
        power_se=math.sqrt(max(power * (1 - power), 1e-12) / reps),
    )
