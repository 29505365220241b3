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


def pair_blocks(p: int, block) -> sp.csr_matrix:
    """I_{p/2} (x) block for an even p and a 2 x 2 block, as CSR.

    Row i holds its pair's row of the block in columns i & ~1 and
    (i & ~1) + 1, zeros included, so a product with v sums two terms per
    row, in column order, at O(p) cost. The index arrays are int32, the type
    scipy picks itself while 2 p < 2^31, so it need not scan them to choose.
    """
    cols = np.arange(p, dtype=np.int32) & ~1
    indices = (cols[:, None] + np.arange(2, dtype=np.int32)).ravel()
    indptr = np.arange(0, 2 * p + 1, 2, dtype=np.int32)
    data = np.tile(np.asarray(block, dtype=float), (p // 2, 1)).ravel()
    return sp.csr_matrix((data, indices, indptr), shape=(p, p))


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
        self._graph = None
        self._factor_lock = threading.Lock()
        self._factor_cache = None
        if kind == "identity":
            self._omega = sp.identity(self.p, format="csr")  # its own root, in closed form
            self._factor_cache = (self._omega, self._omega, np.ones(self.p))
        elif kind == "block2":
            if self.p % 2 != 0:
                raise DomainError("block2 requires even p")
            if h0 is None or not -1.0 < h0 < 1.0:
                raise DomainError("block2 requires |h0| < 1")
            self._omega = pair_blocks(self.p, [[1.0, h0], [h0, 1.0]])
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

    def _factors(self):
        """(Omega^{1/2}, Sigma^{1/2} = Omega^{-1/2}, diag Sigma) by numerics.component_factors
        (the identity's are set in __init__), once per instance, also when threads
        share the model: first callers wait on a lock, and the tuple is published whole."""
        if self._factor_cache is None:
            with self._factor_lock:
                if self._factor_cache is None:
                    self._factor_cache = component_factors(
                        self._omega, graphmod.component_labels(self.graph()))
        return self._factor_cache

    # -- linear maps --------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Omega @ v."""
        return self._omega @ np.asarray(v, dtype=float)

    def sqrt_matvec(self, v: np.ndarray) -> np.ndarray:
        """Omega^{1/2} @ v."""
        return self._factors()[0] @ np.asarray(v, dtype=float)

    def sigma_sqrt_rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Sigma^{1/2}' @ v, for the factor noise_rows applies: the rows it
        yields for draws G score against v as G @ (Sigma^{1/2}' v)."""
        return self._factors()[1].T @ np.asarray(v, dtype=float)

    def sqrt_matrix(self) -> sp.csr_matrix:
        return self._factors()[0]

    def sigma_diag(self) -> np.ndarray:
        """Diagonal of Sigma = Omega^{-1}."""
        return self._factors()[2]

    def noise_blocks(self, rng: RngStream, n: int):
        """The standard-normal draws G of n noise rows, in (h, p) blocks of
        numerics.row_blocks; noise_rows' rows are (Sigma^{1/2} G')'."""
        for lo, hi in row_blocks(n, self.p):
            yield rng.standard_normal((hi - lo, self.p))

    def noise_rows(self, rng: RngStream, n: int):
        """n rows from N(0, Sigma) as C-ordered (h, p) blocks of
        numerics.row_blocks, one held at a time: (Sigma^{1/2} G')' for each
        noise_blocks draw G, the identity's rows being G. Stacked, the blocks
        equal one (n, p) draw's rows bit for bit."""
        if self.kind == "identity":
            yield from self.noise_blocks(rng, n)
            return
        sigma_sqrt = self._factors()[1]
        for g in self.noise_blocks(rng, n):
            rows = np.ascontiguousarray((sigma_sqrt @ g.T).T)
            # hold neither block while the next one is drawn
            del g
            yield rows
            del rows

    def sample_noise(self, rng: RngStream) -> np.ndarray:
        """One draw from N(0, Sigma): row 0 of noise_rows(rng, 1)."""
        return next(self.noise_rows(rng, 1))[0]

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

    params is an ArwParams or any object with p, epsilon and tau. Draw order
    is fixed (support first, then noise) so streams replay exactly.
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


def as_csr(gram) -> sp.csr_matrix:
    """gram (dense or sparse) as float64 CSR; one that already is comes back
    as given, so that objects built from one Gram matrix share it."""
    if sp.isspmatrix_csr(gram) and gram.dtype == float:
        return gram
    return sp.csr_matrix(gram, dtype=float)


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
        self.gram = as_csr(self.gram)
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
    """Two-class training data, rows x_i distributed N(labels_i * mu, Sigma),
    kept as all the HCT rule reads of them: Z = (1/sqrt(n)) sum_i labels_i x_i."""

    z: np.ndarray
    labels: np.ndarray
    mu: np.ndarray

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def class_rows(mu: np.ndarray, labels: np.ndarray, omega: PrecisionModel,
               rng: RngStream):
    """Feature rows N(label_i * mu, Sigma) for given labels, as a one-pass
    iterator over omega.noise_rows' C-ordered (h, p) blocks: each block is
    drawn when reached and its means are added in place, so one block is
    held at a time."""
    labels = np.asarray(labels, dtype=float)
    lo = 0
    for rows in omega.noise_rows(rng, labels.shape[0]):
        rows += labels[lo:lo + len(rows), None] * mu
        lo += len(rows)
        yield rows
        del rows  # before the next block is drawn


def z_vector(blocks, labels) -> np.ndarray:
    """Z = (1/sqrt(n)) sum_i labels_i x_i over the rows x_i of 2-d (h, p) row
    blocks, without stacking them; an (n, p) array passes as [x]. For
    class_rows' blocks Z is distributed N(sqrt(n) mu, Sigma).

    The sums follow OpenBLAS's dgemv_n on one thread: each block adds
    rows.T @ labels over groups of 4 rows, then 2, then 1 at its tail, and
    the last p % 4 entries add row by row. So when every block but the last
    has a multiple of 4 rows, as in numerics.row_blocks, Z equals one
    C-ordered (n, p) array's x.T @ labels / sqrt(n) bit for bit (p >= 4).
    """
    labels = np.asarray(labels, dtype=float)
    z, n = None, 0
    for block in blocks:
        x = np.ascontiguousarray(block, dtype=float)
        if x.ndim != 2 or (z is not None and x.shape[1] != z.shape[0]):
            raise DomainError(f"row blocks must be 2-d and of one width, got shape {x.shape}")
        if z is None:
            z = np.zeros(x.shape[1])
            m = x.shape[1] // 4 * 4
        h = x.shape[0]
        l = labels[n:n + h]
        if l.shape[0] != h:
            raise DomainError(f"labels have {labels.shape[0]} entries, fewer than the rows")
        a = 0
        while a < h:
            b = a + (4 if h - a >= 4 else 2 if h - a >= 2 else 1)
            z[:m] += x[a:b, :m].T @ l[a:b]
            a = b
        if m < z.shape[0]:
            for a in range(h):
                z[m:] += x[a, m:] * l[a]
        n += h
        del block, x  # before the next block is drawn
    if n < 1:
        raise DomainError("need at least one training row")
    if n != labels.shape[0]:
        raise DomainError(f"labels have {labels.shape[0]} entries, the blocks {n} rows")
    return z / math.sqrt(n)


def gen_class_sample(p: int, vartheta: float, r: float, theta: float,
                     omega: PrecisionModel, rng: RngStream) -> ClassSample:
    """Two-class sample with contrast sqrt(n) * mu_i iid from the rare/weak mixture.

    n = round(p^theta) (sample_size). Draw order: contrast support, labels, noise.
    The rows are summed into Z block by block as class_rows draws them, so
    memory is O(p) plus one block, not the (n, p) rows.
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
    z = z_vector(class_rows(mu, labels, omega, rng), labels)
    return ClassSample(z=z, labels=labels, mu=mu)


# ---------------------------------------------------------------------------
# banded covariance samples
# ---------------------------------------------------------------------------

def gen_banded_sample(p: int, n: int, band_spec, rng: RngStream):
    """n rows of N(0, Sigma) where Sigma has unit diagonal and sparse bands.

    band_spec lists one (epsilon, tau) mixture per off-diagonal k = 1..b;
    each band entry is tau with probability epsilon, else 0. If the drawn
    matrix is not positive definite, all off-diagonals are shrunk by the
    factor SHRINK_FACTOR and the factorization retried up to SHRINK_RETRIES
    times. The bands are drawn and Sigma factored here, so a bad spec or a
    GenerationError surfaces at the call.

    Returns (blocks, sigma) with sigma a BandedSymmetric. blocks is a
    one-pass iterator over the (h, p) row blocks of numerics.row_blocks(n, p):
    each block's normals are drawn from rng when the block is reached and
    multiplied by the factor, so only one block is held at a time. Stacked,
    the blocks equal one (n, p) draw times the factor, bit for bit.
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
    blocks = (factor.right_apply(rng.standard_normal((hi - lo, p)))
              for lo, hi in row_blocks(n, p))
    return blocks, sigma


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
    beta[0::2] = np.where(u < epsilon, float(tau), 0.0)
    beta[1::2] = np.where(u < epsilon / 2.0, float(tau), 0.0)
    return beta

