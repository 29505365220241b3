"""HC-thresholded linear classification.

Reads the training rows' z-vector (models.gen_class_sample sums it block by
block, never holding the rows), estimates the contrast direction by clipping
the innovated transform at a data-driven Higher Criticism threshold, and
classifies fresh rows with the resulting linear rule. Includes Monte Carlo
misclassification estimation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detect import _check_alpha0, _hc_objective
from .errors import DomainError
from .models import PrecisionModel, gen_class_sample, ClassSample
from .numerics import RngStream, normal_sf

DEFAULT_ALPHA0 = 0.10

DOT_SLICE = 10**4  # OpenBLAS threads a longer ddot, which moves its last bits


def clip_threshold(z: np.ndarray, t: float) -> np.ndarray:
    """Clipping rule sgn(z) * 1{|z| >= t}, entries in {-1, 0, +1}."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"threshold must be positive and finite, got {t!r}")
    z = np.asarray(z, dtype=float)
    return np.where(np.abs(z) >= t, np.sign(z), 0.0).astype(np.int8)


def hct_threshold(z: np.ndarray, omega: PrecisionModel,
                  alpha0: float = DEFAULT_ALPHA0) -> tuple[float, np.ndarray]:
    """Higher Criticism threshold for feature selection, with the innovated
    transform Omega Z it thresholds.

    Two-sided P-values of Omega Z are sorted and the score
    sqrt(p) (i/p - pi_(i)) / sqrt((i/p)(1 - i/p)) is maximized over
    i <= alpha0 * p (ties to the smallest i). The threshold is the i-th
    largest |Omega Z| at the maximizer; the denominator here uses i/p, not
    the P-value, unlike the detection statistic.
    """
    _check_alpha0(alpha0)
    z = np.asarray(z, dtype=float)
    p = z.shape[0]
    if omega.p != p:
        raise DomainError("omega dimension must match z")
    upper = int(math.floor(alpha0 * p))
    if upper < 1:
        raise DomainError(f"alpha0 * p < 1 (p={p}); input too small for HCT")
    wz = omega.matvec(z)
    pv = 2.0 * normal_sf(np.abs(wz))
    srt = np.sort(pv)[:upper]
    scores = _hc_objective(srt, p, np.arange(1, upper + 1) / p)
    k = int(np.argmax(scores))
    return float(np.sort(np.abs(wz))[::-1][k]), wz


@dataclass
class HctModel:
    """Trained rule: the clipped contrast estimate mu_hat (weights Omega mu_hat)."""

    mu_hat: np.ndarray
    omega: PrecisionModel
    degenerate: bool


def train_hct(sample: ClassSample, omega: PrecisionModel,
              alpha0: float = DEFAULT_ALPHA0) -> HctModel:
    """Fit the HC-thresholded rule: mu_hat = clip(Omega Z) at the HCT."""
    threshold, wz = hct_threshold(sample.z, omega, alpha0)
    if threshold > 0.0:
        mu_hat = clip_threshold(wz, threshold)
    else:
        mu_hat = np.zeros(omega.p, dtype=np.int8)  # all statistics exactly zero
    degenerate = not np.any(mu_hat)
    if degenerate:
        warnings.warn("HCT selected no features; classifier degenerates to +1")
    return HctModel(mu_hat=mu_hat, omega=omega, degenerate=degenerate)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed left to right over DOT_SLICE-entry slices, the same at any
    BLAS thread count; at len(a) <= DOT_SLICE it is exactly a @ b."""
    return sum(np.dot(a[i:i + DOT_SLICE], b[i:i + DOT_SLICE])
               for i in range(0, len(a), DOT_SLICE))


def classify_batch(model: HctModel, draws, labels: np.ndarray,
                   mu: np.ndarray) -> np.ndarray:
    """Labels sign((mu_hat)' Omega x) per row x; exact zeros classify as +1.

    draws iterates over (k, p) blocks of the standard-normal draws G of the
    rows x_i = labels_i mu + Sigma^{1/2} g_i that class_rows would build from
    them, as PrecisionModel.noise_blocks yields them. Each row is scored
    without forming it, as labels_i (mu . w) + g_i . (Sigma^{1/2}' w) with
    w = Omega mu_hat, so only one block of draws need exist at a time; mu . w
    is summed in DOT_SLICE slices, the same at any BLAS thread count. labels
    holds one entry per row and mu has length p.
    """
    omega = model.omega
    if np.shape(mu) != (omega.p,):
        raise DomainError(f"mu has shape {np.shape(mu)}, not ({omega.p},)")
    w = omega.matvec(model.mu_hat.astype(float))
    v = omega.sigma_sqrt_rmatvec(w)
    scores = []
    for block in draws:
        if block.shape[1] != omega.p:
            raise DomainError(f"row dimension {block.shape[1]} != p {omega.p}")
        scores.append(block @ v)
    if not scores:
        raise DomainError("no rows to classify")
    scores = np.concatenate(scores)
    if np.shape(labels) != scores.shape:
        raise DomainError(f"labels have shape {np.shape(labels)}, not {scores.shape}")
    scores += np.asarray(labels, dtype=float) * _dot(mu, w)
    return np.where(scores >= 0.0, 1, -1).astype(int)


@dataclass(frozen=True)
class ClassificationErrorReport:
    mean_error: float
    se: float
    errors: np.ndarray


def classification_error(vartheta: float, r: float, theta: float, p: int,
                         omega: PrecisionModel, reps: int, test_size: int,
                         rng: RngStream, alpha0: float = DEFAULT_ALPHA0,
                         map_fn=None) -> ClassificationErrorReport:
    """Held-out misclassification of the trained rule, averaged over replicates.

    Replicate k trains on a fresh sample (substream k.0) and evaluates on
    test_size fresh rows with the same contrast vector (substream k.1). The
    rule is linear, so the test rows are scored from their draws and never
    formed. The draws come from omega.noise_blocks and are scored block by
    block, and the training rows are summed into Z as they are drawn, so
    memory per replicate is O(p) plus one block of rows, and each row scores
    as it would in one (test_size, p) product on one BLAS thread. map_fn may
    supply a parallel map; replicates seed themselves, so any execution
    order gives the same result.
    """
    if reps < 20:
        raise DomainError("reps must be at least 20")
    if test_size < 1:
        raise DomainError("test_size must be positive")

    def one_rep(k):
        rep = rng.child(k)
        sample = gen_class_sample(p, vartheta, r, theta, omega, rep.child(0))
        model = train_hct(sample, omega, alpha0=alpha0)
        test_rng = rep.child(1)
        labels = np.where(test_rng.uniform(test_size) < 0.5, 1, -1).astype(int)
        pred = classify_batch(model, omega.noise_blocks(test_rng, test_size),
                              labels, sample.mu)
        return float(np.mean(pred != labels))

    mapper = map if map_fn is None else map_fn
    errors = np.asarray(list(mapper(one_rep, range(reps))), dtype=float)
    mean = float(np.mean(errors))
    se = float(np.std(errors, ddof=1) / math.sqrt(reps))
    return ClassificationErrorReport(mean_error=mean, se=se, errors=errors)
