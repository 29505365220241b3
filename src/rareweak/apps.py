"""Stylized applications of the detection and screening machinery.

Bandwidth estimation for banded covariance matrices (an HC scan across
off-diagonals of the sample covariance, with a Bonferroni-corrected
simulated threshold) and graph-guided feature ranking with ROC evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detect import CriticalValueTable, hc_plus_statistic
from .errors import DegeneracyError, DomainError
from .models import RegressionInstance
from .numerics import chisq_sf, normal_sf
from .select import GsPlan

HCPLUS_ALPHA0 = 0.5


# ---------------------------------------------------------------------------
# covariance bandwidth estimation
# ---------------------------------------------------------------------------

def sample_cov_offdiagonals(samples: np.ndarray, max_k: int):
    """Off-diagonals 1..max_k of S_n = (1/n) X'X without forming S_n.

    Returns a list of length max_k; entry k-1 holds the (p-k)-vector of
    S_n(i, i+k).
    """
    x = np.asarray(samples, dtype=float)
    n, p = x.shape
    if not 1 <= max_k <= p - 1:
        raise DomainError(f"max_k must lie in [1, p-1], got {max_k}")
    out = []
    for k in range(1, max_k + 1):
        out.append(np.einsum("ij,ij->j", x[:, : p - k], x[:, k:]) / n)
    return out


def sample_cov_diagonal(samples: np.ndarray) -> np.ndarray:
    """Diagonal of S_n = (1/n) X'X."""
    x = np.asarray(samples, dtype=float)
    return np.einsum("ij,ij->j", x, x) / x.shape[0]


def estimate_bandwidth(samples: np.ndarray, b0: int, alpha: float,
                       null_table: CriticalValueTable,
                       alpha0: float = HCPLUS_ALPHA0) -> int:
    """HC bandwidth estimate b_hat from n rows of p-dimensional data.

    For each off-diagonal k = 1..b0 the entries of sqrt(n) * S_n^(k) get
    normal P-values and an HC+ score; the estimate is the largest k whose
    score clears the simulated threshold at level alpha / b0 (Bonferroni
    over the b0 scans), or 0 when none does.

    Each entry is studentized by the sample variances: the raw product
    statistic at moderate n has fatter-than-normal tails, which inflates
    every scan's HC score and ruins the uniform calibration of the
    threshold. P-values are upper-tail, matching searched-for couplings that
    are positive point masses. null_table must be an HC+ table simulated at
    this p and alpha0.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise DomainError(f"samples must be a 2-d (n, p) array, got {x.ndim}-d")
    n, p = x.shape
    if n < 2:
        raise DomainError("need at least two sample rows")
    if b0 < 1:
        raise DomainError("b0 must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    null_table.check(p, "hcplus", alpha0)
    threshold = null_table.value(alpha / b0)
    scores = np.empty(b0)
    sqrt_n = math.sqrt(n)
    diag = sample_cov_diagonal(x)
    if not np.all(np.isfinite(diag)):
        raise DomainError(f"column {np.flatnonzero(~np.isfinite(diag))[0]} holds a "
                          "non-finite entry or one too large to square")
    if not np.all(diag):
        raise DomainError(f"column {np.flatnonzero(diag == 0)[0]} has zero sample variance")
    for k, xi in enumerate(sample_cov_offdiagonals(x, b0), start=1):
        with np.errstate(over="ignore"):
            scale = diag[: p - k] * diag[k:]
        bad = np.flatnonzero(~np.isfinite(scale))
        if bad.size:
            raise DomainError(f"columns {bad[0]} and {bad[0] + k} have sample "
                              "variances too large to multiply")
        z = sqrt_n * xi / np.sqrt(scale)
        scores[k - 1] = hc_plus_statistic(normal_sf(z), alpha0=alpha0).statistic
    qualifying = np.flatnonzero(scores >= threshold)
    return int(qualifying[-1]) + 1 if qualifying.size else 0


# ---------------------------------------------------------------------------
# feature ranking
# ---------------------------------------------------------------------------

def rank_features_us(instance: RegressionInstance) -> np.ndarray:
    """Marginal ranking: P(chi2_1 > (x_j, W)^2 / g_jj) per feature, the
    two-sided normal P-value of (x_j, W) / sqrt(g_jj); lower means more
    significant.

    The instance may hold one response or an (r, p) block of them; each row
    of the scores is the one-response result, bit for bit.
    """
    b = np.asarray(instance.xtw, dtype=float)
    return chisq_sf(1, b ** 2 / instance.gram_diag())


def rank_features_gs(instance: RegressionInstance, plan: GsPlan) -> np.ndarray:
    """Graph-guided ranking via chi-square P-values of subgraph projections.

    Every subgraph I of the plan gets the P-value P(chi2_{|I|} > ||P^I W||^2),
    and feature j scores the minimum over subgraphs containing j (its
    singleton, scored as in rank_features_us, always participates).
    Degenerate subgraphs are skipped. The plan must come from select.gs_plan
    on the instance's Gram matrix.

    An (r, p) block of responses is scored in one pass: singletons and pairs
    elementwise over the block, pair minima folded in with one np.minimum.at
    on flat indices in each row's pair order, and subgraphs of three or more
    nodes row by row through quadform. Each row equals the one-response
    scores bit for bit.
    """
    if plan.p != instance.p:
        raise DomainError(f"plan is for p={plan.p}, instance has p={instance.p}")
    b = np.ascontiguousarray(instance.xtw, dtype=float)
    scores = chisq_sf(1, b ** 2 / plan.single_diag)

    ok = plan.pair_ok
    g = plan.pair_grams[ok]
    gii, gij, gjj = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
    ii, jj = plan.ii[ok], plan.jj[ok]
    bi, bj = b[..., ii], b[..., jj]
    quad = (gjj * bi ** 2 - 2 * gij * bi * bj + gii * bj ** 2) / (gii * gjj - gij * gij)
    pv = chisq_sf(2, quad).ravel()
    offsets = np.arange(0, scores.size, plan.p)[:, None]
    flat = scores.reshape(-1)
    np.minimum.at(flat, (offsets + ii).ravel(), pv)
    np.minimum.at(flat, (offsets + jj).ravel(), pv)

    if plan.larger:
        for row, xtw in zip(scores.reshape(-1, plan.p), b.reshape(-1, plan.p)):
            one = replace(instance, xtw=xtw)
            for sub in plan.larger:
                try:
                    quad = one.quadform(sub)
                except DegeneracyError:
                    continue
                pv = chisq_sf(len(sub), quad)
                for j in sub:
                    row[j] = min(row[j], pv)

    return scores


# ---------------------------------------------------------------------------
# ROC evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_curve(scores, truth) -> RocCurve | list[RocCurve]:
    """ROC of a significance ranking against a true support set.

    scores is an array, lower = more significant. truth is a boolean mask of
    the same shape and must mark a nonempty proper subset. Tied scores
    advance the sweep together: the curve has one point per tie group, at
    the group's last element, and AUC is the trapezoidal area, so ties
    contribute half credit.

    An (r, p) block of score rows returns one RocCurve per row, sorted in one
    argsort. The counts at a tie group's end do not depend on the order
    inside the group, so the sort need not be stable, and each row's area is
    np.trapezoid of its own curve: every RocCurve equals the one-row result
    bit for bit.
    """
    vals = np.asarray(scores, dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[0] == 0:
        raise DomainError("scores must be a nonempty vector or (r, p) block of rows")
    if not np.all(np.isfinite(vals)):
        raise DomainError("scores must be finite")
    mask = np.asarray(truth)
    if mask.dtype != bool or mask.shape != vals.shape:
        raise DomainError(f"truth must be a boolean mask of shape {vals.shape}")
    p = vals.shape[-1]
    block, masks = vals.reshape(-1, p), mask.reshape(-1, p)
    npos = masks.sum(axis=1)
    if np.any((npos == 0) | (npos == p)):
        raise DomainError("truth must be a nonempty proper subset")
    r = block.shape[0]
    order = np.argsort(block, axis=1)
    flat = order + np.arange(0, r * p, p)[:, None]
    sorted_vals = block.take(flat)
    # sweep counts behind a leading zero point; a point is kept at the last
    # element of each tie group
    tp = np.zeros((r, p + 1), dtype=np.int64)
    np.cumsum(masks.take(flat), axis=1, dtype=np.int64, out=tp[:, 1:])
    keep = np.ones((r, p + 1), dtype=bool)
    keep[:, 1:-1] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
    sizes = keep.sum(axis=1)
    tpr = tp[keep] / np.repeat(npos, sizes)
    fpr = (np.arange(p + 1) - tp)[keep] / np.repeat(p - npos, sizes)
    cuts = np.cumsum(sizes)[:-1]
    curves = [RocCurve(fpr=f, tpr=t, auc=float(np.trapezoid(t, f)))
              for f, t in zip(np.split(fpr, cuts), np.split(tpr, cuts))]
    return curves if vals.ndim == 2 else curves[0]
