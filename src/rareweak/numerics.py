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
from scipy.special import erfc, erfcx, gammaincc

from .errors import (
    CapacityError,
    DegeneracyError,
    DomainError,
    FactorizationError,
    NotPositiveDefiniteError,
)
from .graph import component_labels, graph_from_matrix

_SQRT2 = math.sqrt(2.0)

# Linear-independence tolerance on restricted Gram matrices: the smallest
# eigenvalue must exceed GRAM_RCOND times the largest.
GRAM_RCOND = 1e-10

# Cap on the size of a single connected component in sym_sqrt.
SYM_SQRT_COMPONENT_CAP = 2000

# About this many values (64 KiB) per row block, so blocks stay in cache;
# row_blocks sets the heights. A full block stays below glibc's default 128
# KiB mmap threshold only while p < 4,096, since the 4-row floor holds 32·p
# bytes (160 KB at p = 5,000); the last block, which takes the remainder,
# can pass it from p = 2,341.
BLOCK_VALUES = 2**13


def row_blocks(n: int, p: int) -> list[tuple[int, int]]:
    """Half-open row ranges (lo, hi) that tile range(n) in cache-sized blocks
    of rows of p values: null tables, banded and PrecisionModel sampling
    (the bandwidth scan sums the banded sample's blocks as they come), class
    rows (summed into Z as they come), classify scoring (its held-out draws
    come through PrecisionModel.noise_blocks) and ranking's replicates all
    draw and use their rows block by block.

    Each block holds max(4, BLOCK_VALUES // p // 4 * 4) rows and the last one
    also takes the remainder, so n below one full height gives one block.
    Classify is the reason for the rule: OpenBLAS's dgemv_t sums rows in
    groups of four and a short tail takes another path, so only blocks of
    whole groups score each row as one (n, p) product does on one BLAS
    thread, and Z, summed in dgemv_n's groups of four rows, equals one
    (n, p) product's only if no block but the last ends in a partial group.
    The bandwidth scan's S_n adds per-block sums, so its last bits follow
    the heights too. Every other blocked loop gives the same bytes at any
    height: the HC statistic works row by row, a CSR product sums the same
    terms for each output entry, the banded factor and added means work
    element by element, and ranking scores each replicate as if alone.
    """
    height = max(4, BLOCK_VALUES // p // 4 * 4)
    starts = list(range(0, n - height + 1, height)) or [0]
    return [(lo, hi) for lo, hi in zip(starts, starts[1:] + [n]) if hi > lo]


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def normal_sf(x):
    """Standard normal survival function P(N(0,1) >= x).

    Accepts scalars or arrays. Relative error is below 1e-10 wherever the
    result is representable; in the extreme tail (x > ~38) the true value
    underflows double precision and 0.0 is returned.
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

    Closed forms at df = 1, erfc(sqrt(x/2)), and at df = 2, exp(-x/2); the
    regularized upper incomplete gamma Q(df/2, x/2) for df >= 3. The df = 1
    tail is evaluated as erfcx(sqrt(x/2)) * exp(-x/2): erfc of a rounded
    sqrt(x/2) would carry a relative error of about x times the rounding,
    1e-13 near x = 1000, while this product stays within a few ulps.
    """
    if df < 1 or int(df) != df:
        raise DomainError(f"chisq_sf requires integer df >= 1, got {df!r}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("chisq_sf requires finite input")
    if np.any(arr < 0):
        raise DomainError("chisq_sf requires x >= 0")
    half = arr / 2.0
    if df == 1:
        out = erfcx(np.sqrt(half)) * np.exp(-half)
    elif df == 2:
        out = np.exp(-half)
    else:
        out = gammaincc(df / 2.0, half)
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
    workers instead of sharing one. Deriving a child reads only the parent's
    key, so several threads may derive children of one shared parent.

    The Philox generator is built on the first draw, not here: a stream that
    only derives children never pays for its SeedSequence and Philox state.
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
            path = tuple(map(int, _path))
        self.root_seed = root_seed
        self.path = path
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(entropy=self.root_seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.Philox(seq))
        return self._generator

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
    of row d are ignored). Every stored entry must be finite.
    """

    def __init__(self, bands: np.ndarray):
        bands = np.asarray(bands, dtype=float)
        if bands.ndim != 2 or bands.shape[0] < 1:
            raise DomainError("bands must be a 2-d array with at least one row")
        p = bands.shape[1]
        stored = np.arange(p) < p - np.arange(bands.shape[0])[:, None]
        bad = np.argwhere(stored & ~np.isfinite(bands))
        if bad.size:
            d, i = bad[0]
            raise DomainError(f"band entry ({d}, {i}) is {bands[d, i]}, not finite")
        self.bands = bands
        self.p = p
        self.bandwidth = bands.shape[0] - 1

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
        """Z @ L.T for a 2-d array Z whose rows are independent draws.

        Each band's product goes into one scratch array that every band
        reuses, then is added into the output.
        """
        z = np.asarray(z, dtype=float)
        out = z * self.bands[0]
        term = np.empty_like(out)
        p = self.p
        for d in range(1, self.bandwidth + 1):
            np.multiply(z[:, : p - d], self.bands[d, : p - d], out=term[:, : p - d])
            out[:, d:] += term[:, : p - d]
        return out


def chol_banded(sigma: BandedSymmetric) -> BandedCholesky:
    """Cholesky factor of a symmetric positive-definite BandedSymmetric.

    Cost is O(p * bandwidth^2). Raises FactorizationError naming the failing
    pivot when a leading minor is not positive definite.
    """
    if not isinstance(sigma, BandedSymmetric):
        raise DomainError(f"chol_banded takes a BandedSymmetric, got {type(sigma).__name__}")
    ab = np.array(sigma.bands, dtype=float, order="F")
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

def component_factors(a, label):
    """A^{1/2}, A^{-1/2} and the diagonal of A^{-1} for a symmetric A (sparse
    or dense).

    label numbers the connected components of A's sparsity graph as
    graph.component_labels gives them: label[v] is node v's component,
    counting components by smallest member. Entries of A between
    components must be zeros below ZERO_TOL and are dropped. The COO entries
    of A are scattered into the roots' CSR layout, which holds each
    component's full s x s block with its columns in member order; each
    component size s gathers its blocks into one (k, s, s) stack for one
    eigh call, and the roots are written back into that layout: for sparse
    A, memory is O(nnz(A)) plus the blocks. Raises NotPositiveDefiniteError
    naming the first component (by smallest member) whose smallest
    eigenvalue is at most 1e-12.
    """
    p = a.shape[0]
    order = np.argsort(label, kind="stable")  # component by component, each ascending
    sizes = np.bincount(label)
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(p, dtype=int)
    pos[order] = np.arange(p) - np.repeat(starts, sizes)
    # the CSR layout of the factors: row v lists its component's members in
    # order, so entry (v, w) of a block is at indptr[v] + pos[w]
    row_len = sizes[label]
    indptr = np.concatenate([[0], np.cumsum(row_len)])
    nnz = indptr[-1]
    indices = order[np.repeat(starts[label] - indptr[:-1], row_len) + np.arange(nnz)]
    coo = sp.coo_matrix(a)
    inside = label[coo.row] == label[coo.col]
    a_vals = np.zeros(nnz)
    a_vals[indptr[coo.row[inside]] + pos[coo.col[inside]]] = coo.data[inside]
    sqrt_vals, isqrt_vals = np.empty(nnz), np.empty(nnz)
    inv_diag = np.empty(p)
    lowest = np.empty(sizes.size)
    for s in np.unique(sizes):
        cid = np.flatnonzero(sizes == s)
        members = order[starts[cid][:, None] + np.arange(s)]
        flat = indptr[members][:, :, None] + np.arange(s)
        w, v = np.linalg.eigh(a_vals[flat])
        lowest[cid] = w[:, 0]
        if w[:, 0].min() <= 1e-12:
            continue
        root = np.sqrt(w)[:, None, :]
        vt = v.transpose(0, 2, 1)
        sqrt_vals[flat] = (v * root) @ vt
        isqrt_vals[flat] = (v / root) @ vt
        inv_diag[members] = np.sum(v * v / w[:, None, :], axis=2)
    bad = np.flatnonzero(lowest <= 1e-12)
    if bad.size:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite on component starting at "
            f"{order[starts[bad[0]]]} (min eigenvalue {lowest[bad[0]]:.3e})"
        )
    shape = (p, p)
    return (sp.csr_matrix((sqrt_vals, indices, indptr), shape=shape),
            sp.csr_matrix((isqrt_vals, indices, indptr), shape=shape), inv_diag)


def symmetric_array(matrix) -> np.ndarray:
    """matrix as a float array, checked square, finite and symmetric within
    1e-10; the DomainError names the first offending entry (i, j)."""
    a = np.asarray(matrix, dtype=float)
    p = a.shape[0] if a.ndim else 0
    if a.shape != (p, p):
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        i, j = bad[0]
        raise DomainError(f"matrix entry ({i}, {j}) is {a[i, j]}, not finite")
    bad = np.argwhere(np.abs(a - a.T) > 1e-10)
    if bad.size:
        i, j = bad[0]
        raise DomainError(f"matrix must be symmetric: entry ({i}, {j}) differs from ({j}, {i})")
    return a


def sym_sqrt(omega: np.ndarray) -> np.ndarray:
    """Unique symmetric positive-definite square root of a symmetric PD matrix.

    A dense front end to component_factors: the root is computed per
    connected component of the sparsity graph, which keeps the cost near
    linear for block or banded matrices. Components larger than
    SYM_SQRT_COMPONENT_CAP raise CapacityError; a component whose smallest
    eigenvalue is at most 1e-12 raises NotPositiveDefiniteError.
    """
    a = symmetric_array(omega)
    label = component_labels(graph_from_matrix(a))
    big = np.bincount(label)
    big = big[big > SYM_SQRT_COMPONENT_CAP]
    if big.size:
        raise CapacityError(
            f"sparsity component of size {big[0]} exceeds cap {SYM_SQRT_COMPONENT_CAP}"
        )
    return component_factors(a, label)[0].toarray()


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
    """check_gram's rule on the ascending eigenvalues (last axis) of one Gram
    matrix or a stack, as np.linalg.eigvalsh gives them. For one column,
    w = [g00] and the rule is the single-column one, g00 <= GRAM_RCOND."""
    return w[..., 0] <= GRAM_RCOND * np.maximum(w[..., -1], 1.0)


def restricted_quadform(gram_sub: np.ndarray, b_sub: np.ndarray, index_set=None) -> float:
    """b' G^{-1} b for a small restricted Gram G and correlation vector b.

    This is the squared norm of the projection of the response onto the
    columns indexed by the set. Raises DegeneracyError when G is rank
    deficient within GRAM_RCOND.
    """
    g = np.atleast_2d(np.asarray(gram_sub, dtype=float))
    b = np.atleast_1d(np.asarray(b_sub, dtype=float))
    if not g.size:
        raise DomainError("restricted quadratic form needs a nonempty index set")
    check_gram(g, index_set)
    if g.shape[0] == 1:
        return float(b[0] * b[0] / g[0, 0])
    return float(b @ np.linalg.solve(g, b))
