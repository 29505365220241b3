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

def sample_cov_bands(blocks, b0: int):
    """Diagonals 0..b0 of S_n = (1/n) X'X from X's row blocks, without
    forming X or S_n.

    blocks is an iterable of 2-d (h, p) row blocks of X, all of width p; an
    (n, p) array passes as [x]. Returns (n, bands) with bands a (b0 + 1, p)
    array whose row k holds S_n(i, i + k) in its first p - k entries (the rest
    is zero). Each block's products are summed over its rows and added to the
    running sums in block order, so only one block, a zero-padded copy of it
    and the O(b0 * p) sums are held at a time.
    """
    sums = part = pad = lagged = None
    n = 0
    # a non-finite or overflowing entry shows up in the diagonal, which the
    # caller checks; the running sums must not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            x = np.asarray(block, dtype=float)
            if x.ndim != 2:
                raise DomainError(f"sample blocks must be 2-d (rows, p) arrays, "
                                  f"got {x.ndim}-d")
            h, p = x.shape
            if sums is None:
                if not 1 <= b0 <= p - 1:
                    raise DomainError(f"b0 must lie in [1, p-1], got {b0}")
                sums, part = np.zeros((b0 + 1, p)), np.empty((b0 + 1, p))
            elif p != sums.shape[1]:
                raise DomainError(f"sample blocks must all have {sums.shape[1]} "
                                  f"columns, got {p}")
            if pad is None or h > pad.shape[0]:
                # lagged[i, k, j] = x[i, j + k], zero past column p - 1
                pad = np.zeros((h, p + b0))
                row, col = pad.strides
                lagged = np.lib.stride_tricks.as_strided(
                    pad, (h, b0 + 1, p), (row, col, col), writeable=False)
            pad[:h, :p] = x
            np.einsum("ij,ikj->kj", pad[:h, :p], lagged[:h], out=part)
            sums += part
            n += h
            del block, x  # free this block before the next one is drawn
    if n < 2:
        raise DomainError("need at least two sample rows")
    sums /= n
    return n, sums


def estimate_bandwidth(blocks, b0: int, alpha: float,
                       null_table: CriticalValueTable,
                       alpha0: float = HCPLUS_ALPHA0) -> int:
    """HC bandwidth estimate b_hat from n rows of p-dimensional data.

    blocks is an iterable of the data's 2-d row blocks, as
    models.gen_banded_sample yields them (an (n, p) array passes as [x]);
    S_n's diagonals 0..b0 are summed block by block (sample_cov_bands), so
    memory is O(b0 * p) plus one block.

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
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    n, bands = sample_cov_bands(blocks, b0)
    p = bands.shape[1]
    null_table.check(p, "hcplus", alpha0)
    threshold = null_table.value(alpha / b0)
    scores = np.empty(b0)
    sqrt_n = math.sqrt(n)
    diag = bands[0]
    if not np.all(np.isfinite(diag)):
        raise DomainError(f"column {np.flatnonzero(~np.isfinite(diag))[0]} holds a "
                          "non-finite entry or one too large to square")
    if not np.all(diag):
        raise DomainError(f"column {np.flatnonzero(diag == 0)[0]} has zero sample variance")
    for k in range(1, b0 + 1):
        with np.errstate(over="ignore"):
            scale = diag[: p - k] * diag[k:]
        bad = np.flatnonzero(~np.isfinite(scale))
        if bad.size:
            raise DomainError(f"columns {bad[0]} and {bad[0] + k} have sample "
                              "variances too large to multiply")
        z = sqrt_n * bands[k, : p - k] / np.sqrt(scale)
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
    inside the group, so the sort need not be stable. The trapezoid terms
    are taken once over all rows' points, and each row's area is the
    pairwise sum of its own terms: the values and the summation that
    np.trapezoid(tpr, fpr) uses, so every RocCurve equals the one-row result
    and its area equals np.trapezoid of its curve bit for bit.
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
    # trapezoid terms over the flat curves; each row's AUC reduces its own
    # slice, which drops the one term that straddles two rows
    seg = np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0
    ends = np.cumsum(sizes).tolist()
    curves = [RocCurve(fpr=fpr[a:b], tpr=tpr[a:b],
                       auc=float(np.add.reduce(seg[a:b - 1])))
              for a, b in zip([0] + ends[:-1], ends)]
    return curves if vals.ndim == 2 else curves[0]
