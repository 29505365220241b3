"""Deterministic numerical kernels used by every other module.

Covers Gaussian and chi-square tail probabilities, seeded counter-based
random streams, banded Cholesky factorization, the blockwise factorization
over the sparsity graph (one stacked eigh per component size) that sym_sqrt
and models.PrecisionModel share, and restricted least-squares projections.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
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

    def right_apply(self, z: np.ndarray) -> np.ndarray:
        """Z @ L.T for a 2-d array Z whose rows are independent draws."""
        z = np.asarray(z, dtype=float)
        out = z * self.bands[0]
        p = self.p
        for d in range(1, self.bandwidth + 1):
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
# blockwise factorization over the sparsity graph
# ---------------------------------------------------------------------------

def component_factors(a, comps):
    """A^{1/2}, A^{-1/2} and the diagonal of A^{-1} for a symmetric A (sparse
    or dense).

    comps partitions the nodes into the connected components of A's sparsity
    graph, as graph.connected_components gives them (sorted members, ordered
    by smallest member); entries of A between components must be zeros
    below ZERO_TOL and are dropped. The COO entries of A are scattered into
    one (k, s, s) stack per component size s, each stack takes one eigh
    call, and the roots come back as sparse maps holding each component's
    full s x s block: for sparse A, memory is O(nnz(A)) plus the blocks.
    Raises NotPositiveDefiniteError naming the first component (by smallest
    member) whose smallest eigenvalue is at most 1e-12.
    """
    comps = [np.asarray(c, dtype=int) for c in comps]
    p = a.shape[0]
    sizes = np.array([c.size for c in comps])
    starts = np.cumsum(sizes) - sizes
    nodes = np.concatenate(comps)
    # the factors hold each component's full s x s block, row-major, in
    # component order; base is where each block starts in that layout
    area = sizes * sizes
    base = np.cumsum(area) - area
    label = np.empty(p, dtype=int)
    label[nodes] = np.repeat(np.arange(len(comps)), sizes)
    pos = np.empty(p, dtype=int)
    pos[nodes] = np.arange(p) - np.repeat(starts, sizes)
    coo = sp.coo_matrix(a)
    inside = label[coo.row] == label[coo.col]
    r, c = coo.row[inside], coo.col[inside]
    a_vals = np.zeros(area.sum())
    a_vals[base[label[r]] + pos[r] * sizes[label[r]] + pos[c]] = coo.data[inside]
    rows = np.repeat(nodes, np.repeat(sizes, sizes))
    offset = np.arange(area.sum()) - np.repeat(base, area)
    cols = nodes[np.repeat(starts, area) + offset % np.repeat(sizes, area)]
    sqrt_vals, isqrt_vals = np.empty(area.sum()), np.empty(area.sum())
    inv_diag = np.empty(p)
    lowest = np.empty(len(comps))
    for s in np.unique(sizes):
        cid = np.flatnonzero(sizes == s)
        flat = base[cid][:, None] + np.arange(s * s)
        w, v = np.linalg.eigh(a_vals[flat].reshape(-1, s, s))
        lowest[cid] = w[:, 0]
        if w[:, 0].min() <= 1e-12:
            continue
        root = np.sqrt(w)[:, None, :]
        vt = v.transpose(0, 2, 1)
        sqrt_vals[flat] = ((v * root) @ vt).reshape(cid.size, -1)
        isqrt_vals[flat] = ((v / root) @ vt).reshape(cid.size, -1)
        members = nodes[starts[cid][:, None] + np.arange(s)]
        inv_diag[members] = np.sum(v * v / w[:, None, :], axis=2)
    bad = np.flatnonzero(lowest <= 1e-12)
    if bad.size:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite on component starting at "
            f"{comps[bad[0]][0]} (min eigenvalue {lowest[bad[0]]:.3e})"
        )
    shape = (p, p)
    return (sp.csr_matrix((sqrt_vals, (rows, cols)), shape=shape),
            sp.csr_matrix((isqrt_vals, (rows, cols)), shape=shape), inv_diag)


def sym_sqrt(omega: np.ndarray, component_cap: int = SYM_SQRT_COMPONENT_CAP) -> np.ndarray:
    """Unique symmetric positive-definite square root of a symmetric PD matrix.

    A dense front end to component_factors: the root is computed per
    connected component of the sparsity graph, which keeps the cost near
    linear for block or banded matrices. Components larger than
    component_cap raise CapacityError; a component whose smallest
    eigenvalue is at most 1e-12 raises NotPositiveDefiniteError.
    """
    a = np.asarray(omega, dtype=float)
    p = a.shape[0]
    if a.shape != (p, p):
        raise DomainError("matrix must be square")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise DomainError("matrix must be symmetric")
    comps = connected_components(graph_from_matrix(a))
    for comp in comps:
        if len(comp) > component_cap:
            raise CapacityError(
                f"sparsity component of size {len(comp)} exceeds cap {component_cap}"
            )
    return component_factors(a, comps)[0].toarray()


# ---------------------------------------------------------------------------
# restricted least-squares projections
# ---------------------------------------------------------------------------

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
