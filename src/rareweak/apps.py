"""Stylized applications of the detection and screening machinery.

Bandwidth estimation for banded covariance matrices (an HC scan across
off-diagonals of the sample covariance, with a Bonferroni-corrected
simulated threshold) and graph-guided feature ranking with ROC evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .detect import CriticalValueTable, hc_plus_statistic
from .errors import DegeneracyError, DomainError
from .graph import SUBGRAPH_CAP, enum_connected_subgraphs, graph_from_matrix
from .models import RegressionInstance
from .numerics import chisq_sf, gram_rank_deficient, normal_sf

RANKING_DEFAULT_M0 = 2
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


@dataclass(frozen=True)
class BandwidthEstimate:
    b_hat: int
    scores: np.ndarray
    threshold: float
    alpha: float
    b0: int


def estimate_bandwidth(samples: np.ndarray, b0: int, alpha: float,
                       null_table: CriticalValueTable,
                       alpha0: float = HCPLUS_ALPHA0) -> BandwidthEstimate:
    """HC bandwidth estimate from n rows of p-dimensional data.

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
    for k, xi in enumerate(sample_cov_offdiagonals(x, b0), start=1):
        z = sqrt_n * xi / np.sqrt(diag[: p - k] * diag[k:])
        scores[k - 1] = hc_plus_statistic(normal_sf(z), alpha0=alpha0).statistic
    qualifying = np.flatnonzero(scores >= threshold)
    b_hat = int(qualifying[-1]) + 1 if qualifying.size else 0
    return BandwidthEstimate(b_hat=b_hat, scores=scores, threshold=threshold,
                             alpha=alpha, b0=b0)


# ---------------------------------------------------------------------------
# feature ranking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankingResult:
    """Per-feature significance scores; lower means more significant."""

    scores: np.ndarray
    method: str


def rank_features_us(instance: RegressionInstance) -> RankingResult:
    """Marginal ranking: two-sided normal P-value of each (x_j, W)."""
    b = np.asarray(instance.xtw, dtype=float)
    scale = np.sqrt(instance.gram_diag())
    scores = 2.0 * normal_sf(np.abs(b) / scale)
    return RankingResult(scores=scores, method="US")


@dataclass(frozen=True)
class GsPlan:
    """The part of graph-guided ranking that depends on the Gram matrix alone.

    Built once per design by gs_plan and shared by every response ranked
    under it: the subgraphs of the neighborhood graph, split by size, with
    the Gram entries of the singletons and pairs and the pairs' degeneracy.
    """

    p: int
    singles: np.ndarray      # singleton nodes
    single_diag: np.ndarray  # their Gram diagonal
    ii: np.ndarray           # pair (ii[k], jj[k]), ii[k] < jj[k]
    jj: np.ndarray
    gii: np.ndarray
    gjj: np.ndarray
    gij: np.ndarray
    det: np.ndarray          # gii * gjj - gij ** 2
    pair_ok: np.ndarray      # False where the pair Gram is rank deficient
    larger: tuple            # subgraphs of three or more nodes, sorted tuples


def gs_plan(gram, delta: float = 0.0, m0: int = RANKING_DEFAULT_M0,
            cap: int = SUBGRAPH_CAP) -> GsPlan:
    """Enumerate the ranking subgraphs of a Gram matrix (dense or sparse).

    The neighborhood graph keeps edges where |gram(i, j)| >= delta, and
    every connected subgraph of size <= m0 is enumerated. Pairs are
    degenerate under check_gram's eigenvalue rule.
    """
    if not sp.issparse(gram):
        gram = np.asarray(gram, dtype=float)
    subsets = enum_connected_subgraphs(graph_from_matrix(gram, delta), m0, cap=cap)
    diag = np.asarray(gram.diagonal())
    singles = np.asarray([s[0] for s in subsets if len(s) == 1], dtype=int)
    pairs = np.asarray([s for s in subsets if len(s) == 2], dtype=int).reshape(-1, 2)
    ii, jj = pairs[:, 0], pairs[:, 1]
    # sparse indexing gives a matrix, or a sparse matrix when there are no pairs
    gij = np.asarray(gram[ii, jj]).ravel() if ii.size else np.zeros(0)
    gii, gjj = diag[ii], diag[jj]
    pair_grams = np.stack([gii, gij, gij, gjj], axis=-1).reshape(-1, 2, 2)
    return GsPlan(p=gram.shape[0], singles=singles, single_diag=diag[singles],
                  ii=ii, jj=jj, gii=gii, gjj=gjj, gij=gij,
                  det=gii * gjj - gij * gij,
                  pair_ok=~gram_rank_deficient(np.linalg.eigvalsh(pair_grams)),
                  larger=tuple(s for s in subsets if len(s) > 2))


def rank_features_gs(instance: RegressionInstance, plan: GsPlan) -> RankingResult:
    """Graph-guided ranking via chi-square P-values of subgraph projections.

    Every subgraph I of the plan gets the P-value P(chi2_{|I|} > ||P^I W||^2),
    and feature j scores the minimum over subgraphs containing j (its
    singleton always participates). Degenerate subgraphs are skipped. The
    plan must come from gs_plan on the instance's Gram matrix.
    """
    if plan.p != instance.p:
        raise DomainError(f"plan is for p={plan.p}, instance has p={instance.p}")
    b = np.asarray(instance.xtw, dtype=float)
    scores = np.ones(instance.p)
    np.minimum.at(scores, plan.singles,
                  chisq_sf(1, b[plan.singles] ** 2 / plan.single_diag))

    ok = plan.pair_ok
    bi, bj = b[plan.ii[ok]], b[plan.jj[ok]]
    quad = (plan.gjj[ok] * bi ** 2 - 2 * plan.gij[ok] * bi * bj
            + plan.gii[ok] * bj ** 2) / plan.det[ok]
    pv = chisq_sf(2, quad)
    np.minimum.at(scores, plan.ii[ok], pv)
    np.minimum.at(scores, plan.jj[ok], pv)

    for sub in plan.larger:
        try:
            quad = instance.quadform(sub)
        except DegeneracyError:
            continue
        pv = chisq_sf(len(sub), quad)
        for j in sub:
            scores[j] = min(scores[j], pv)

    return RankingResult(scores=scores, method="GS")


# ---------------------------------------------------------------------------
# ROC evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_curve(scores, truth) -> RocCurve:
    """ROC of a significance ranking against a true support set.

    scores may be a RankingResult or an array (lower = more significant).
    truth is a boolean mask or an index set, and must be a nonempty proper
    subset. Tied scores advance the sweep together; AUC is the trapezoidal
    area, so ties contribute half credit.
    """
    vals = np.asarray(getattr(scores, "scores", scores), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("scores must be finite")
    p = vals.shape[0]
    mask = np.zeros(p, dtype=bool)
    truth_arr = np.asarray(truth)
    if truth_arr.dtype == bool:
        if truth_arr.shape != (p,):
            raise DomainError("truth mask length must match scores")
        mask = truth_arr
    else:
        mask[np.asarray(truth_arr, dtype=int)] = True
    npos = int(mask.sum())
    if npos == 0 or npos == p:
        raise DomainError("truth must be a nonempty proper subset")
    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]
    sorted_true = mask[order]
    # group ties: cumulative counts at the last element of each tie block
    boundaries = np.flatnonzero(np.diff(sorted_vals) != 0)
    ends = np.append(boundaries, p - 1)
    cum_tp = np.cumsum(sorted_true)[ends]
    cum_fp = np.cumsum(~sorted_true)[ends]
    tpr = np.concatenate([[0.0], cum_tp / npos])
    fpr = np.concatenate([[0.0], cum_fp / (p - npos)])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)
