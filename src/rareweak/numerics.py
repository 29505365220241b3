"""Deterministic numerical kernels used by every other module.

Covers Gaussian and chi-square tail probabilities, seeded counter-based
random streams, banded Cholesky factorization, symmetric positive-definite
square roots computed blockwise over the sparsity graph, and restricted
least-squares projections.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpbtrf
from scipy.special import erfc, gammaincc

from .errors import (
    CapacityError,
    DegeneracyError,
    DomainError,
    FactorizationError,
    NotPositiveDefiniteError,
)
from .graph import ZERO_TOL, connected_components, graph_from_matrix

_SQRT2 = math.sqrt(2.0)

# Linear-independence tolerance on restricted Gram matrices: the smallest
# eigenvalue must exceed GRAM_RCOND times the largest.
GRAM_RCOND = 1e-10

# Relative accuracy the tail functions are expected to deliver wherever the
# result is representable in double precision.
SPECIAL_FN_RTOL = 1e-10

# Default cap on the size of a single connected component in sym_sqrt.
SYM_SQRT_COMPONENT_CAP = 2000


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def normal_sf(x):
    """Standard normal survival function P(N(0,1) >= x).

    Accepts scalars or arrays. Relative error is below SPECIAL_FN_RTOL
    wherever the result is representable; in the extreme tail (x > ~38)
    the true value underflows double precision and 0.0 is returned.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("normal_sf requires finite input")
    out = 0.5 * erfc(arr / _SQRT2)
    if arr.ndim == 0:
        return float(out)
    return out


def chisq_sf(df, x):
    """Chi-square survival function with df degrees of freedom.

    Computed as the regularized upper incomplete gamma Q(df/2, x/2).
    """
    if df < 1 or int(df) != df:
        raise DomainError(f"chisq_sf requires integer df >= 1, got {df!r}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("chisq_sf requires finite input")
    if np.any(arr < 0):
        raise DomainError("chisq_sf requires x >= 0")
    out = gammaincc(df / 2.0, arr / 2.0)
    if arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

class RngStream:
    """Counter-based random stream keyed by (root_seed, stream path).

    The same (root_seed, stream_id) always yields the same sample sequence,
    on every platform and regardless of what other streams are doing, which
    makes replicate-level parallelism schedule independent. Streams are
    stateful and single owner: hand distinct child streams to concurrent
    workers instead of sharing one.
    """

    def __init__(self, root_seed: int, stream_id: int = 0, _path=None):
        root_seed = int(root_seed)
        if root_seed < 0 or root_seed >= 2**64:
            raise DomainError("root_seed must be an unsigned 64-bit integer")
        if _path is None:
            stream_id = int(stream_id)
            if stream_id < 0:
                raise DomainError("stream_id must be non-negative")
            path = (stream_id,)
        else:
            path = tuple(int(k) for k in _path)
        self.root_seed = root_seed
        self.path = path
        seq = np.random.SeedSequence(entropy=root_seed, spawn_key=path)
        self.generator = np.random.Generator(np.random.Philox(seq))

    @property
    def stream_id(self) -> int:
        return self.path[0]

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream; index extends the stream path."""
        if index < 0:
            raise DomainError("substream index must be non-negative")
        return RngStream(self.root_seed, _path=self.path + (int(index),))

    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def uniform(self, size=None):
        return self.generator.random(size)

    def __repr__(self):
        return f"RngStream(root_seed={self.root_seed}, path={self.path})"


# ---------------------------------------------------------------------------
# banded symmetric matrices and Cholesky
# ---------------------------------------------------------------------------

class BandedSymmetric:
    """Symmetric banded matrix in lower-band storage.

    bands has shape (bandwidth + 1, p); bands[d, i] holds A[i + d, i], so
    row 0 is the diagonal and row d the d-th subdiagonal (trailing d slots
    of row d are ignored).
    """

    def __init__(self, bands: np.ndarray):
        bands = np.asarray(bands, dtype=float)
        if bands.ndim != 2 or bands.shape[0] < 1:
            raise DomainError("bands must be a 2-d array with at least one row")
        self.bands = bands
        self.p = bands.shape[1]
        self.bandwidth = bands.shape[0] - 1

    @classmethod
    def from_dense(cls, a: np.ndarray, bandwidth: int) -> "BandedSymmetric":
        a = np.asarray(a, dtype=float)
        p = a.shape[0]
        if a.shape != (p, p):
            raise DomainError("matrix must be square")
        if np.max(np.abs(a - a.T)) > 1e-10:
            raise DomainError("matrix must be symmetric")
        if bandwidth < 0 or bandwidth >= p:
            raise DomainError("bandwidth must satisfy 0 <= bandwidth < p")
        for d in range(bandwidth + 1, p):
            if np.any(np.abs(np.diag(a, -d)) > ZERO_TOL):
                raise DomainError(f"entries outside the band are nonzero at offset {d}")
        bands = np.zeros((bandwidth + 1, p))
        for d in range(bandwidth + 1):
            bands[d, : p - d] = np.diag(a, -d)
        return cls(bands)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.p, self.p))
        for d in range(self.bandwidth + 1):
            idx = np.arange(self.p - d)
            out[idx + d, idx] = self.bands[d, : self.p - d]
            out[idx, idx + d] = self.bands[d, : self.p - d]
        return out

    def offdiagonal(self, k: int) -> np.ndarray:
        """The k-th off-diagonal as a length p - k vector (k = 0 is the diagonal)."""
        if k < 0 or k > self.bandwidth:
            raise DomainError(f"offdiagonal {k} outside stored bandwidth {self.bandwidth}")
        return self.bands[k, : self.p - k].copy()


class BandedCholesky:
    """Lower-triangular banded Cholesky factor L with L @ L.T = sigma."""

    def __init__(self, bands: np.ndarray):
        self.bands = np.asarray(bands, dtype=float)
        self.p = self.bands.shape[1]
        self.bandwidth = self.bands.shape[0] - 1

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.p, self.p))
        for d in range(self.bandwidth + 1):
            idx = np.arange(self.p - d)
            out[idx + d, idx] = self.bands[d, : self.p - d]
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """L @ v."""
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        p = self.p
        for d in range(self.bandwidth + 1):
            out[d:] += self.bands[d, : p - d] * v[: p - d]
        return out

    def right_apply(self, z: np.ndarray) -> np.ndarray:
        """Z @ L.T for a 2-d array Z whose rows are independent draws."""
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        p = self.p
        for d in range(self.bandwidth + 1):
            out[:, d:] += z[:, : p - d] * self.bands[d, : p - d]
        return out


def chol_banded(sigma, bandwidth: int | None = None) -> BandedCholesky:
    """Cholesky factor of a symmetric positive-definite banded matrix.

    Accepts a dense symmetric matrix (bandwidth required, entries outside
    the band must be zero) or a BandedSymmetric. Cost is O(p * bandwidth^2).
    Raises FactorizationError naming the failing pivot when a leading minor
    is not positive definite.
    """
    if isinstance(sigma, BandedSymmetric):
        banded = sigma
    else:
        if bandwidth is None:
            raise DomainError("bandwidth is required for dense input")
        banded = BandedSymmetric.from_dense(np.asarray(sigma, dtype=float), bandwidth)
    ab = np.array(banded.bands, dtype=float, order="F")
    c, info = dpbtrf(ab, lower=1)
    if info > 0:
        pivot = int(info) - 1
        raise FactorizationError(
            f"matrix is not positive definite: pivot {pivot} failed", pivot=pivot
        )
    if info < 0:
        raise FactorizationError(f"banded Cholesky: illegal argument {-info}")
    return BandedCholesky(np.asarray(c))


# ---------------------------------------------------------------------------
# symmetric square root, blockwise over the sparsity graph
# ---------------------------------------------------------------------------

def _component_sqrt(block: np.ndarray) -> np.ndarray:
    """Symmetric PD square root of a small dense block via eigendecomposition."""
    w, v = np.linalg.eigh(block)
    if w[0] < -1e-10:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: eigenvalue {w[0]:.3e}"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def sym_sqrt(omega: np.ndarray, component_cap: int = SYM_SQRT_COMPONENT_CAP) -> np.ndarray:
    """Unique symmetric positive-definite square root of a symmetric PD matrix.

    The computation runs independently on each connected component of the
    sparsity graph, which keeps the cost near linear for block or banded
    matrices. Components larger than component_cap raise CapacityError.
    """
    a = np.asarray(omega, dtype=float)
    p = a.shape[0]
    if a.shape != (p, p):
        raise DomainError("matrix must be square")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise DomainError("matrix must be symmetric")
    out = np.zeros_like(a)
    for comp in connected_components(graph_from_matrix(a)):
        if len(comp) > component_cap:
            raise CapacityError(
                f"sparsity component of size {len(comp)} exceeds cap {component_cap}"
            )
        block = a[np.ix_(comp, comp)]
        out[np.ix_(comp, comp)] = _component_sqrt(block)
    return out


# ---------------------------------------------------------------------------
# restricted least-squares projections
# ---------------------------------------------------------------------------

def _as_index_array(index_set) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in index_set)), dtype=int)
    return idx


def check_gram(g: np.ndarray, index_set=None) -> None:
    """Raise DegeneracyError when a restricted Gram matrix is rank deficient.

    A single column is degenerate when its squared norm is at most
    GRAM_RCOND; a larger system when its smallest eigenvalue is at most
    GRAM_RCOND times the largest (or times 1, whichever is bigger).
    """
    if g.shape[0] == 1:
        if g[0, 0] <= GRAM_RCOND:
            raise DegeneracyError("degenerate single column", index_set=index_set)
        return
    w = np.linalg.eigvalsh(g)
    if gram_rank_deficient(w):
        raise DegeneracyError(
            f"restricted Gram is rank deficient (eig range {w[0]:.3e}..{w[-1]:.3e})",
            index_set=index_set,
        )


def gram_rank_deficient(w: np.ndarray):
    """check_gram's rule for two or more columns, on the ascending eigenvalues
    (last axis) of one Gram matrix or a stack, as np.linalg.eigvalsh gives them."""
    return w[..., 0] <= GRAM_RCOND * np.maximum(w[..., -1], 1.0)


def restricted_quadform(gram_sub: np.ndarray, b_sub: np.ndarray, index_set=None) -> float:
    """b' G^{-1} b for a small restricted Gram G and correlation vector b.

    This is the squared norm of the projection of the response onto the
    columns indexed by the set. Raises DegeneracyError when G is rank
    deficient within GRAM_RCOND.
    """
    g = np.atleast_2d(np.asarray(gram_sub, dtype=float))
    b = np.atleast_1d(np.asarray(b_sub, dtype=float))
    check_gram(g, index_set)
    if g.shape[0] == 1:
        return float(b[0] * b[0] / g[0, 0])
    return float(b @ np.linalg.solve(g, b))


def project_norm_sq_gram(gram: np.ndarray, xtw: np.ndarray, index_set) -> float:
    """||P^I W||^2 from the full Gram matrix G = X'X and the vector X'W."""
    idx = _as_index_array(index_set)
    if idx.size == 0:
        raise DomainError("index_set must be nonempty")
    gram = np.asarray(gram)
    xtw = np.asarray(xtw, dtype=float)
    g = gram[np.ix_(idx, idx)]
    return restricted_quadform(g, xtw[idx], index_set=idx)


def project_norm_sq(design: np.ndarray, response: np.ndarray, index_set) -> float:
    """||P^I W||^2 where P^I projects onto the design columns indexed by I."""
    idx = _as_index_array(index_set)
    if idx.size == 0:
        raise DomainError("index_set must be nonempty")
    x = np.asarray(design, dtype=float)
    w = np.asarray(response, dtype=float)
    cols = x[:, idx]
    g = cols.T @ cols
    b = cols.T @ w
    return restricted_quadform(g, b, index_set=idx)
