"""Closed-form phase boundaries.

All boundary curves live in the plane of (sparsity exponent vartheta,
strength exponent r): the detection boundary, the exact-recovery boundary
for independent noise, the numeric exact-recovery boundary for the
two-by-two block model, the change-point recovery boundary, and the
classification boundary for training size p^theta.
"""

from __future__ import annotations

import math

from .errors import DomainError, SolverError

BOUNDARY_EPS = 1e-9
BISECT_TOL = 1e-8
R_BRACKET_MAX = 64.0


def _check_vartheta(vartheta: float):
    if not 0.0 < vartheta < 1.0:
        raise DomainError(f"vartheta must lie in (0, 1), got {vartheta}")


def rho_detect(vartheta: float) -> float:
    """Detection boundary: 0, then vartheta - 1/2, then (1 - sqrt(1-vartheta))^2.

    The branches meet continuously at 1/2 and 3/4.
    """
    _check_vartheta(vartheta)
    if vartheta <= 0.5:
        return 0.0
    if vartheta <= 0.75:
        return vartheta - 0.5
    return (1.0 - math.sqrt(1.0 - vartheta)) ** 2


def rho_exact_identity(vartheta: float) -> float:
    """Exact-recovery boundary for independent noise: (1 + sqrt(1-vartheta))^2."""
    _check_vartheta(vartheta)
    return (1.0 + math.sqrt(1.0 - vartheta)) ** 2


def block_exponent(vartheta: float, r: float, h0: float) -> float:
    """Hamming-risk exponent for the two-by-two block model.

    The minimum of three mechanisms: the independent-noise rate, a single
    miss next to a cancelling partner, and a double miss of a signal pair.
    """
    _check_vartheta(vartheta)
    if r <= 0.0:
        raise DomainError("r must be positive")
    if not -1.0 < h0 < 1.0:
        raise DomainError("|h0| < 1 required")
    term1 = (vartheta + r) ** 2 / (4.0 * r)
    term2 = vartheta + 0.5 * (1.0 - abs(h0)) * r
    c2 = (1.0 - h0 * h0) * r
    term3 = 2.0 * vartheta + max(c2 - vartheta, 0.0) ** 2 / (4.0 * c2)
    return min(term1, term2, term3)


def rho_exact_block(vartheta: float, h0: float) -> float:
    """Smallest r at which the block-model exponent reaches 1, by bisection
    to BISECT_TOL.

    Valid because each exponent term is non-decreasing in r beyond
    r = vartheta; the bracket is (vartheta, R_BRACKET_MAX].
    """
    _check_vartheta(vartheta)
    if not -1.0 < h0 < 1.0:
        raise DomainError("|h0| < 1 required")
    lo = vartheta + BOUNDARY_EPS
    hi = R_BRACKET_MAX
    f_lo = block_exponent(vartheta, lo, h0) - 1.0
    f_hi = block_exponent(vartheta, hi, h0) - 1.0
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise SolverError(
            f"no sign change on ({lo:.3g}, {hi:.3g}] for vartheta={vartheta}, h0={h0}"
        )
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if block_exponent(vartheta, mid, h0) - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rho_changepoint(vartheta: float) -> float:
    """Exact-recovery boundary for the change-point design."""
    _check_vartheta(vartheta)
    a = 4.0 * (1.0 - vartheta)
    inner = max((2.0 - 5.0 * vartheta) ** 2 - vartheta ** 2, 0.0)
    b = (4.0 - 10.0 * vartheta) + 2.0 * math.sqrt(inner)
    return max(a, b)


def rho_classify(vartheta: float, theta: float) -> float:
    """Classification boundary (1 - theta) * rho_detect(vartheta / (1 - theta)).

    Defined for 0 < vartheta < 1 - theta; beyond that the problem leaves the
    rare/weak regime.
    """
    if not 0.0 <= theta < 1.0:
        raise DomainError("theta must lie in [0, 1)")
    if not 0.0 < vartheta < 1.0 - theta:
        raise DomainError(
            f"vartheta must lie in (0, 1 - theta) = (0, {1.0 - theta}), got {vartheta}"
        )
    return (1.0 - theta) * rho_detect(vartheta / (1.0 - theta))


def boundary_grid(varthetas, theta: float = 0.2, h0: float | None = None):
    """Rows (vartheta, rho_detect, rho_exact, rho_classify_theta) for export.

    rho_exact uses the identity curve unless an h0 is given, in which case
    the block-model boundary is solved numerically. rho_classify is NaN
    outside its domain vartheta < 1 - theta.
    """
    rows = []
    for v in varthetas:
        exact = rho_exact_identity(v) if h0 is None else rho_exact_block(v, h0)
        try:
            cls = rho_classify(v, theta)
        except DomainError:
            cls = math.nan
        rows.append((float(v), rho_detect(v), exact, cls))
    return rows
