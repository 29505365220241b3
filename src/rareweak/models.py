"""Synthetic data generators for rare/weak signal studies.

Provides the sparse-signal mean model (signals of strength sqrt(2 r log p)
planted at rate p^-vartheta), Gaussian observations under structured
precision matrices (factored by numerics.component_factors, never densified),
the regression reformulation used by screening, two-class
classification samples, banded-covariance samples, and the paired-signal
design used for feature-ranking studies.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import graph as graphmod
from .errors import DomainError, FactorizationError, GenerationError
from .numerics import (
    BandedSymmetric,
    RngStream,
    chol_banded,
    component_factors,
    restricted_quadform,
    row_blocks,
    symmetric_array,
)

# gen_banded_sample's repair of a covariance that is not positive definite.
SHRINK_RETRIES = 20
SHRINK_FACTOR = 0.9


def sparsity_level(p, vartheta: float) -> float:
    """Signal prevalence epsilon_p = p^-vartheta."""
    return float(p) ** (-vartheta)


def signal_strength(p, r: float) -> float:
    """Per-signal magnitude tau_p = sqrt(2 r log p)."""
    return math.sqrt(2.0 * r * math.log(p))


def sample_size(p, theta: float) -> int:
    """Training size n = round(p^theta), banker's rounding."""
    return int(round(float(p) ** theta))


@dataclass(frozen=True)
class ArwParams:
    """Rare/weak calibration: dimension p, sparsity exponent, strength exponent."""

    p: int
    vartheta: float
    r: float

    def __post_init__(self):
        if self.p < 2:
            raise DomainError("p must be >= 2")
        if not 0.0 < self.vartheta < 1.0:
            raise DomainError("vartheta must lie in (0, 1)")
        if not 0.0 < self.r < math.inf:
            raise DomainError(f"r must be positive and finite, got {self.r!r}")

    @property
    def epsilon(self) -> float:
        return sparsity_level(self.p, self.vartheta)

    @property
    def tau(self) -> float:
        return signal_strength(self.p, self.r)


@dataclass(frozen=True)
class MixtureParams:
    """Raw two-point mixture calibration, untied from the (vartheta, r) scaling.

    Useful for degenerate corners such as epsilon = 0, where the alternative
    coincides with the null.
    """

    p: int
    epsilon: float
    tau: float

    def __post_init__(self):
        if self.p < 2:
            raise DomainError("p must be >= 2")
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError("epsilon must lie in [0, 1)")
        if not 0.0 <= self.tau < math.inf:
            raise DomainError(f"tau must be non-negative and finite, got {self.tau!r}")


class PrecisionModel:
    """A p x p symmetric positive-definite precision matrix with unit diagonal.

    Three kinds are supported: the identity, the two-by-two block model
    (diagonal 1, within-pair coupling h0), and an arbitrary user matrix.
    Derived objects (square root, inverse diagonal, noise factor) come from
    numerics.component_factors, the blockwise factorization sym_sqrt also
    uses, and are cached, so instances should be treated as immutable.
    Omega stays in sparse storage, so memory is O(nnz(Omega)) plus the
    component blocks, never O(p^2).
    """

    def __init__(self, kind: str, p: int, h0: float | None = None, matrix=None):
        self.kind = kind
        self.p = int(p)
        self.h0 = h0
        if self.p < 1:
            raise DomainError("p must be >= 1")
        if kind == "identity":
            self._omega = sp.identity(self.p, format="csr")
        elif kind == "block2":
            if self.p % 2 != 0:
                raise DomainError("block2 requires even p")
            if h0 is None or not -1.0 < h0 < 1.0:
                raise DomainError("block2 requires |h0| < 1")
            i = np.arange(self.p)
            partner = i ^ 1
            rows = np.concatenate([i, i])
            cols = np.concatenate([i, partner])
            vals = np.concatenate([np.ones(self.p), np.full(self.p, float(h0))])
            self._omega = sp.csr_matrix((vals, (rows, cols)), shape=(self.p, self.p))
        elif kind == "custom":
            a = symmetric_array(matrix)
            if a.shape != (self.p, self.p):
                raise DomainError("matrix shape must be (p, p)")
            if np.max(np.abs(np.diag(a) - 1.0)) > 1e-8:
                raise DomainError("precision matrix must have unit diagonal")
            a = np.where(np.abs(a) > graphmod.ZERO_TOL, a, 0.0)
            self._omega = sp.csr_matrix(a)
        else:
            raise DomainError(f"unknown precision kind {kind!r}")
        self._graph = None
        self._factor_lock = threading.Lock()
        self._sqrt = None  # set last: marks the factors below as ready
        self._sigma_sqrt = None
        self._sigma_diag = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, p: int) -> "PrecisionModel":
        return cls("identity", p)

    @classmethod
    def block2(cls, p: int, h0: float) -> "PrecisionModel":
        return cls("block2", p, h0=h0)

    @classmethod
    def custom(cls, matrix) -> "PrecisionModel":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:  # __init__ checks the rest, once p is known
            raise DomainError(f"matrix must be square, got shape {matrix.shape}")
        return cls("custom", matrix.shape[0], matrix=matrix)

    # -- structure ----------------------------------------------------------

    @property
    def omega(self) -> sp.csr_matrix:
        return self._omega

    def dense(self) -> np.ndarray:
        return self._omega.toarray()

    def graph(self) -> graphmod.DependencyGraph:
        """The strict-nonzero sparsity graph of Omega, built once."""
        if self._graph is None:
            self._graph = graphmod.graph_from_matrix(self._omega)
        return self._graph

    def row_nonzero_max(self) -> int:
        return graphmod.row_nonzero_max(self.graph())

    def _component_factors(self):
        """Factor once per instance, also when threads share the model.

        Concurrent first callers wait on a lock; self._sqrt is published
        after the other factors, so a caller that sees it sees them all.
        """
        if self._sqrt is not None:
            return
        with self._factor_lock:
            if self._sqrt is None:
                sqrt, self._sigma_sqrt, self._sigma_diag = self._factor()
                self._sqrt = sqrt

    def _factor(self):
        """Omega^{1/2}, Sigma^{1/2} = Omega^{-1/2} and the diagonal of Sigma,
        from numerics.component_factors over the components of Omega."""
        if self.kind == "identity":
            eye = sp.identity(self.p, format="csr")
            return eye, eye, np.ones(self.p)
        return component_factors(self._omega, *graphmod.component_labels(self.graph()))

    # -- linear maps --------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Omega @ v."""
        return self._omega @ np.asarray(v, dtype=float)

    def sqrt_matvec(self, v: np.ndarray) -> np.ndarray:
        """Omega^{1/2} @ v."""
        self._component_factors()
        return self._sqrt @ np.asarray(v, dtype=float)

    def sigma_sqrt_rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Sigma^{1/2}' @ v, for the factor sample_noise applies: the rows it
        returns for draws G score against v as G @ (Sigma^{1/2}' v)."""
        v = np.asarray(v, dtype=float)
        if self.kind == "identity":
            return v
        self._component_factors()
        return self._sigma_sqrt.T @ v

    def sqrt_matrix(self) -> sp.csr_matrix:
        self._component_factors()
        return self._sqrt

    def sigma_diag(self) -> np.ndarray:
        """Diagonal of Sigma = Omega^{-1}."""
        self._component_factors()
        return self._sigma_diag

    def sample_noise(self, rng: RngStream, size: int | None = None) -> np.ndarray:
        """Draw from N(0, Sigma): one vector, or size independent rows.

        Rows are drawn and multiplied by Sigma^{1/2} in numerics.row_blocks,
        written into one (size, p) output; the draws and sums are those of
        one (size, p) draw, bit for bit.
        """
        self._component_factors()
        if size is None:
            g = rng.standard_normal(self.p)
            if self.kind == "identity":
                return g
            return self._sigma_sqrt @ g
        n = int(size)
        if self.kind == "identity":
            return rng.standard_normal((n, self.p))
        out = np.empty((n, self.p))
        for lo, hi in row_blocks(n, self.p):
            g = rng.standard_normal((hi - lo, self.p))
            out[lo:hi] = (self._sigma_sqrt @ g.T).T
        return out

    def __repr__(self):
        extra = f", h0={self.h0}" if self.kind == "block2" else ""
        return f"PrecisionModel(kind={self.kind!r}, p={self.p}{extra})"


@dataclass
class ArwInstance:
    """One generated draw: signal vector, observation, and its calibration."""

    beta: np.ndarray
    y: np.ndarray
    omega: PrecisionModel


def gen_arw(params, omega: PrecisionModel, rng: RngStream) -> ArwInstance:
    """Generate signals iid Bernoulli(epsilon) * tau and add N(0, Sigma) noise.

    params is an ArwParams (epsilon and tau derived from the exponents) or a
    MixtureParams with raw values. Draw order is fixed (support first, then
    noise) so streams replay exactly.
    """
    if omega.p != params.p:
        raise DomainError(f"omega dimension {omega.p} != p {params.p}")
    support = rng.uniform(params.p) < params.epsilon
    beta = np.where(support, params.tau, 0.0)
    y = beta + omega.sample_noise(rng)
    return ArwInstance(beta=beta, y=y, omega=omega)


def gram_blocks(gram: sp.csr_matrix, sets) -> np.ndarray:
    """The dense blocks gram[s][:, s] for the rows s of a (k, n) index array,
    as a (k, n, n) stack; an index set need not be sorted."""
    sets = np.asarray(sets, dtype=int)
    k, n = sets.shape
    if not sets.size:
        return np.zeros((k, n, n))
    rows = np.repeat(sets, n, axis=1).ravel()
    cols = np.tile(sets, (1, n)).ravel()
    return np.asarray(gram[rows, cols]).reshape(k, n, n)


@dataclass
class RegressionInstance:
    """Regression form W = X beta + z with Gram matrix G = X'X.

    Projections only need (gram, xtw). For a precision model Omega,
    X = Omega^{1/2}, W = X Y, G = Omega, and X'W = Omega Y. The Gram matrix
    is held as CSR; dense input is converted once, here. xtw is one response
    or an (r, p) block of them sharing the Gram matrix; quadform takes one.
    """

    gram: sp.csr_matrix
    xtw: np.ndarray

    def __post_init__(self):
        if not (sp.isspmatrix_csr(self.gram) and self.gram.dtype == float):
            self.gram = sp.csr_matrix(self.gram, dtype=float)
        if np.shape(self.xtw)[-1:] != self.gram.shape[:1]:
            raise DomainError(f"xtw has shape {np.shape(self.xtw)}, "
                              f"Gram matrix is {self.gram.shape[0]} x {self.gram.shape[1]}")

    @property
    def p(self) -> int:
        return self.xtw.shape[-1]

    def gram_sub(self, idx) -> np.ndarray:
        """The dense block gram[idx][:, idx]; idx need not be sorted."""
        return gram_blocks(self.gram, np.asarray(idx, dtype=int)[None])[0]

    def gram_diag(self) -> np.ndarray:
        return self.gram.diagonal()

    def quadform(self, idx) -> float:
        """||P^I W||^2 over the columns in idx, via the Gram system."""
        if self.xtw.ndim != 1:
            raise DomainError("quadform takes an instance with one response")
        idx = np.asarray(sorted(set(int(i) for i in idx)), dtype=int)
        return restricted_quadform(self.gram_sub(idx), self.xtw[idx], index_set=idx)


def to_regression(inst: ArwInstance) -> RegressionInstance:
    """Rewrite Y = beta + noise as W = X beta + z with X = Omega^{1/2}."""
    return regression_from_y(inst.y, inst.omega)


def regression_from_y(y: np.ndarray, omega: PrecisionModel) -> RegressionInstance:
    y = np.asarray(y, dtype=float)
    if y.shape != (omega.p,):
        raise DomainError("y length must match omega dimension")
    return RegressionInstance(gram=omega.omega, xtw=omega.matvec(y))


# ---------------------------------------------------------------------------
# classification samples
# ---------------------------------------------------------------------------

@dataclass
class ClassSample:
    """Two-class training data: rows distributed N(label * mu, Sigma)."""

    features: np.ndarray
    labels: np.ndarray
    mu: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


def class_rows(mu: np.ndarray, labels: np.ndarray, omega: PrecisionModel,
               rng: RngStream) -> np.ndarray:
    """Feature rows N(label_i * mu, Sigma) for given labels.

    The means are added into sample_noise's rows in place, in
    numerics.row_blocks, so no second (n, p) array is formed.
    """
    labels = np.asarray(labels, dtype=float)
    rows = omega.sample_noise(rng, size=labels.shape[0])
    for lo, hi in row_blocks(rows.shape[0], omega.p):
        rows[lo:hi] += labels[lo:hi, None] * mu
    return rows


def gen_class_sample(p: int, vartheta: float, r: float, theta: float,
                     omega: PrecisionModel, rng: RngStream) -> ClassSample:
    """Two-class sample with contrast sqrt(n) * mu_i iid from the rare/weak mixture.

    n = round(p^theta) (sample_size). Draw order: contrast support, labels, noise.
    """
    if omega.p != p:
        raise DomainError("omega dimension must equal p")
    if not 0.0 < theta < 1.0:
        raise DomainError("theta must lie in (0, 1)")
    n = sample_size(p, theta)
    if n < 1:
        raise DomainError(f"derived sample size n={n} is too small")
    eps = sparsity_level(p, vartheta)
    tau = signal_strength(p, r)
    mu = np.where(rng.uniform(p) < eps, tau / math.sqrt(n), 0.0)
    labels = np.where(rng.uniform(n) < 0.5, 1, -1).astype(int)
    features = class_rows(mu, labels, omega, rng)
    return ClassSample(features=features, labels=labels, mu=mu)


# ---------------------------------------------------------------------------
# banded covariance samples
# ---------------------------------------------------------------------------

def gen_banded_sample(p: int, n: int, band_spec, rng: RngStream):
    """Draw n rows of N(0, Sigma) where Sigma has unit diagonal and sparse bands.

    band_spec lists one (epsilon, tau) mixture per off-diagonal k = 1..b;
    each band entry is tau with probability epsilon, else 0. If the drawn
    matrix is not positive definite, all off-diagonals are shrunk by the
    factor SHRINK_FACTOR and the factorization retried up to SHRINK_RETRIES
    times.

    Rows are drawn and multiplied by the factor in numerics.row_blocks; the
    draws and sums are those of one (n, p) draw, bit for bit.

    Returns (samples, sigma) with sigma a BandedSymmetric.
    """
    p, n = int(p), int(n)
    if p < 2 or n < 1:
        raise DomainError("need p >= 2 and n >= 1")
    b = len(band_spec)
    if b >= p:
        raise DomainError("bandwidth must be smaller than p")
    bands = np.zeros((b + 1, p))
    bands[0] = 1.0
    for k, (eps, tau) in enumerate(band_spec, start=1):
        if not 0.0 <= eps <= 1.0:
            raise DomainError("band epsilon must lie in [0, 1]")
        if not math.isfinite(tau):
            raise DomainError(f"band tau must be finite, got {tau!r}")
        bands[k, : p - k] = np.where(rng.uniform(p - k) < eps, float(tau), 0.0)
    factor = None
    for _ in range(SHRINK_RETRIES + 1):
        sigma = BandedSymmetric(bands)
        try:
            factor = chol_banded(sigma)
            break
        except FactorizationError:
            bands = bands.copy()
            bands[1:] *= SHRINK_FACTOR
    if factor is None:
        from scipy.linalg import eig_banded

        w = eig_banded(bands, lower=True, eigvals_only=True, select="i",
                       select_range=(0, 0))
        raise GenerationError(
            f"covariance not positive definite after {SHRINK_RETRIES} shrink retries "
            f"(min eigenvalue about {w[0]:.3e})"
        )
    samples = np.empty((n, p))
    for lo, hi in row_blocks(n, p):
        samples[lo:hi] = factor.right_apply(rng.standard_normal((hi - lo, p)))
    return samples, sigma


def banded_true_bandwidth(sigma: BandedSymmetric) -> int:
    """Largest k whose off-diagonal holds any entry above graph.ZERO_TOL, else 0."""
    b = 0
    for k in range(1, sigma.bandwidth + 1):
        if np.any(np.abs(sigma.offdiagonal(k)) > graphmod.ZERO_TOL):
            b = k
    return b


# ---------------------------------------------------------------------------
# paired-signal design
# ---------------------------------------------------------------------------

def draw_paired_beta(p: int, epsilon: float, tau: float, rng: RngStream) -> np.ndarray:
    """Signal pairs iid: (tau, tau) w.p. eps/2, (tau, 0) w.p. eps/2, else (0, 0)."""
    if p % 2 != 0:
        raise DomainError("paired design requires even p")
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError("epsilon must lie in [0, 1]")
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau!r}")
    u = rng.uniform(p // 2)
    beta = np.zeros(p)
    both = u < epsilon / 2.0
    single = (u >= epsilon / 2.0) & (u < epsilon)
    beta[0::2] = np.where(both | single, float(tau), 0.0)
    beta[1::2] = np.where(both, float(tau), 0.0)
    return beta

