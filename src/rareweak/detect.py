"""Sparse-signal detection via the Higher Criticism family.

P-value pipelines under three noise transforms (marginal, whitened,
innovated), the orthodox HC statistic and its heavy-tail-guarded variant,
simulated critical values, and Monte Carlo size/power estimation, where the
innovated variant's threshold is inflated by the precision matrix's maximum
row-nonzero count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import PrecisionModel, gen_arw
from .numerics import RngStream, normal_sf, row_blocks

# P-values equal to 0 or 1 are clamped here to keep the HC denominator finite.
PVALUE_CLAMP = 1e-15

# _hc_bound's buckets: the bits of a double above the 46th, 64 per octave.
_BUCKET_SHIFT = 46

# Each HC variant is a P-value pipeline scored by an HC functional, whose
# null table it needs: variant -> (transform, side, functional).
_VARIANT_PVALUES = {
    "ohc": ("none", "upper", "ohc"),
    "hcplus": ("none", "upper", "hcplus"),
    "bhc": ("none", "two", "ohc"),
    "whc": ("whitened", "two", "ohc"),
    "ihc": ("innovated", "two", "ohc"),
}
VARIANTS = tuple(_VARIANT_PVALUES)
TABLE_FUNCTIONAL = {v: spec[2] for v, spec in _VARIANT_PVALUES.items()}


@dataclass(frozen=True)
class DetectionResult:
    statistic: float
    clamped: bool = False


def pvalues(y: np.ndarray, omega: PrecisionModel, variant: str) -> np.ndarray:
    """Per-coordinate P-values of the observation under an HC variant's noise
    transform and side (_VARIANT_PVALUES).

    transform "none" standardizes each Y_i by sqrt(Sigma(i,i)); "whitened"
    applies Omega^{1/2} (unit noise variance); "innovated" applies Omega,
    whose unit diagonal makes the transformed variance 1. Upper-side
    P-values are P(N(0,1) >= t), two-sided are P(|N(0,1)| >= |t|).
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    transform, side, _ = _VARIANT_PVALUES[variant]
    y = np.asarray(y, dtype=float)
    if y.shape != (omega.p,):
        raise DomainError("y length must match omega dimension")
    if transform == "none":
        t = y / np.sqrt(omega.sigma_diag())
    elif transform == "whitened":
        t = omega.sqrt_matvec(y)
    else:
        t = omega.matvec(y)
    if side == "upper":
        return normal_sf(t)
    return 2.0 * normal_sf(np.abs(t))


def _hc_objective(sorted_p: np.ndarray, p: int,
                  denom: np.ndarray | None = None) -> np.ndarray:
    """sqrt(p) (i/p - pi_(i)) / sqrt(d (1 - d)) along the last axis of the
    leading sorted P-values.

    d is the P-value itself unless a denominator (HCT uses i/p) is given.
    """
    i = np.arange(1, sorted_p.shape[-1] + 1)
    d = sorted_p if denom is None else denom
    obj = i / p - sorted_p
    obj *= math.sqrt(p)
    den = 1.0 - d
    den *= d
    obj /= np.sqrt(den, out=den)
    return obj


def _hc(rows: np.ndarray, frac: float, floor: bool):
    """Maximum of the HC objective of each row over i <= frac * p.

    rows is an (m, p) block of P-value rows. With floor, indices whose sorted
    P-value is at most 1/p are infeasible; an empty feasible set gives
    statistic -inf. Returns per-row statistics and clamped flags (some
    P-value equal to 0 or 1).
    """
    m, p = rows.shape
    srt = np.sort(rows, axis=1)
    lo, hi = srt[:, 0], srt[:, -1]
    # NaN sorts last, so a row holding one fails the upper check
    if not (np.all(lo >= 0.0) and np.all(hi <= 1.0)):
        raise DomainError("P-values must lie in [0, 1]")
    clamped = (lo <= 0.0) | (hi >= 1.0)
    # clipping is monotone, so clipping the sorted head equals sorting the clipped row
    head = srt[:, : int(math.floor(frac * p))]
    if head.shape[1] == 0:
        return np.full(m, -math.inf), clamped
    np.clip(head, PVALUE_CLAMP, 1.0 - PVALUE_CLAMP, out=head)
    obj = _hc_objective(head, p)
    if floor:
        obj[head <= 1.0 / p] = -math.inf
    return obj.max(axis=1), clamped


def _hc_bound(p: int, frac: float, floor: bool):
    """A function mapping an (m, p) block of P-values in [0, 1] to upper
    bounds on the statistics _hc(rows, frac, floor) returns, without sorting;
    None where head = floor(frac * p) is 0, or where a row has fewer than
    twice as many values as the bound has buckets, so that it costs about
    as much as the sort it can skip.

    A value's bucket is the top bits of its IEEE pattern (bits >> 46, 64
    per octave), so the bucket edges lo_k < hi_k are exact doubles and the
    bucket is monotone in the value. A row counts its values per bucket from
    1/p (4 octaves lower for the orthodox functional) up to 1, and smaller
    values in one slot below them. Let C_k be the count in slots up to k. A
    value u in bucket k then has rank i <= min(C_k, head) and u >= lo_k,
    and g(u) = u (1 - u) >= min(g(lo_k), g(hi_k)) since g is concave, so
    its objective is at most sqrt(p) (min(C_k, head)/p - lo_k) / sqrt(min g).
    With floor, a feasible u exceeds 1/p, so lo_k rises to 1/p (the low
    slot holds no feasible value); for the orthodox functional a value in
    the low slot can score without bound, and its row gets +inf. A value
    above the bucket holding head/p exceeds i/p for every i <= head, so its
    objective is at most 0, and every row bound is at least 0. Clipping to
    [PVALUE_CLAMP, 1 - PVALUE_CLAMP] keeps the ranks, lowers only values
    above head/p and raises a value only where g grows, so the bounds hold
    for the clipped values. The 1e-9 relative margins on both terms and the
    absolute one cover the rounding of this arithmetic and of _hc's.
    """
    def bucket(x: float) -> int:
        return int(np.float64(x).view(np.int64) >> _BUCKET_SHIFT)

    head = int(math.floor(frac * p))
    base = bucket(1.0 / p) - (0 if floor else 4 * 64)
    slots = bucket(1.0) - base + 2
    if head == 0 or 2 * slots > p:
        return None
    buckets = np.arange(base, bucket(head / p) + 1)
    lo = (buckets << _BUCKET_SHIFT).view(np.float64)
    hi = ((buckets + 1) << _BUCKET_SHIFT).view(np.float64)
    if floor:
        lo = np.maximum(lo, 1.0 / p)
    den = np.sqrt(np.minimum(lo * (1.0 - lo), hi * (1.0 - hi)) * p)
    slope = (1.0 + 1e-9) / den
    offset = (1.0 - 1e-9) * p * lo / den

    def bound(rows: np.ndarray) -> np.ndarray:
        start = np.arange(rows.shape[0])[:, None] * slots
        idx = rows.view(np.int64) >> _BUCKET_SHIFT
        idx += start + (1 - base)
        np.maximum(idx, start, out=idx)
        counts = np.bincount(idx.ravel(), minlength=start.size * slots)
        counts = counts.reshape(-1, slots)[:, : buckets.size + 1]
        rank = np.minimum(np.cumsum(counts, axis=1)[:, 1:], head)
        out = np.maximum((rank * slope - offset).max(axis=1), 0.0) + 1e-9
        if not floor:
            out[counts[:, 0] > 0] = math.inf
        return out

    return bound


def _hc_result(pv, frac: float, floor: bool) -> DetectionResult:
    vals = np.asarray(pv, dtype=float)
    if vals.ndim != 1 or vals.size < 2:
        raise DomainError("need a vector of at least two P-values")
    stat, clamped = _hc(vals[None, :], frac, floor)
    return DetectionResult(statistic=float(stat[0]), clamped=bool(clamped[0]))


def hc_statistic(pv) -> DetectionResult:
    """Orthodox HC: maximize the standardized rank discrepancy over i <= p/2."""
    return _hc_result(pv, 0.5, False)


def hc_plus_statistic(pv, alpha0: float = 0.5) -> DetectionResult:
    """HC restricted to i <= alpha0 * p with sorted P-values above 1/p.

    The feasible set may be empty, in which case the statistic is -inf and
    no threshold rejects.
    """
    _check_alpha0(alpha0)
    return _hc_result(pv, alpha0, True)


def _check_alpha0(alpha0: float):
    if not 0.0 < alpha0 <= 0.5:
        raise DomainError("alpha0 must lie in (0, 0.5]")


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalValueTable:
    """Simulated null quantiles of an HC variant at one dimension."""

    p: int
    variant: str
    alphas: tuple
    quantiles: tuple
    num_null_reps: int
    alpha0: float = 0.5

    def value(self, alpha: float) -> float:
        for a, q in zip(self.alphas, self.quantiles):
            if abs(a - alpha) <= 1e-12:
                return q
        raise DomainError(f"alpha {alpha} not in simulated grid {self.alphas}")

    def check(self, p: int, functional: str, alpha0: float = 0.5):
        """Raise DomainError unless the table fits data of dimension p.

        The table must have been simulated for this functional, at this p,
        and, for the HC+ functional, at this alpha0.
        """
        if self.variant != functional:
            raise DomainError(
                f"need a table for the {functional!r} functional, got {self.variant!r}")
        if self.p != p:
            raise DomainError(f"table dimension {self.p} != data dimension {p}")
        if functional == "hcplus" and self.alpha0 != alpha0:
            raise DomainError(f"table alpha0 {self.alpha0} != alpha0 {alpha0}")


def critical_value(p: int, alphas, variant: str = "ohc",
                   num_null_reps: int = 1000, *, rng: RngStream,
                   alpha0: float = 0.5) -> CriticalValueTable:
    """Simulate null quantiles of an HC variant over iid uniform P-values.

    The null draws take Y ~ N(0, I_p), under which the P-values are exactly
    iid uniform, so the statistic is simulated on sorted uniforms directly.

    np.quantile reads only the `need` largest statistics, so where
    _hc_bound pays, a row is scored only if its bound reaches the need-th
    largest statistic scored so far, and is recorded as -inf otherwise:
    that threshold only rises, so such a row lies below the need-th largest
    statistic of the whole table, and every quantile is the one of all rows
    scored. A streamed threshold lets about need (1 + ln(n / need)) of the
    n rows through, so tables whose quantiles reach deeper than a tenth of
    the rows score every row. A quantile that would be NaN raises
    DomainError.
    """
    if num_null_reps < 100:
        raise DomainError("num_null_reps must be at least 100")
    if variant not in ("ohc", "hcplus"):
        raise DomainError("tables are simulated for the 'ohc' or 'hcplus' functional")
    alphas = [float(a) for a in np.atleast_1d(alphas)]
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise DomainError(f"alpha {a} outside (0, 1)")
    if p < 2:
        raise DomainError("p must be at least 2")
    if variant == "hcplus":
        _check_alpha0(alpha0)
    frac, floor = (0.5, False) if variant == "ohc" else (alpha0, True)
    # the linear quantile at 1 - alpha reads sorted positions floor((n-1)(1-alpha))
    # and the next; one more guards the rounding of that index
    need = num_null_reps - math.floor((num_null_reps - 1) * (1.0 - max(alphas))) + 1
    bound = _hc_bound(p, frac, floor) if 10 * need <= num_null_reps else None
    top = np.full(need, -math.inf)
    # Row blocks hold the values of consecutive uniform(p) draws, in order.
    stats = np.full(num_null_reps, -math.inf)
    for lo, hi in row_blocks(num_null_reps, p):
        rows = rng.uniform((hi - lo, p))
        if bound is None:
            stats[lo:hi] = _hc(rows, frac, floor)[0]
            continue
        keep = np.flatnonzero(bound(rows) >= top[0])
        if keep.size:
            stats[lo + keep] = exact = _hc(rows[keep], frac, floor)[0]
            top = np.partition(np.concatenate([top, exact]), keep.size)[keep.size:]
    # a quantile that interpolates from a statistic of -inf (an empty HC+
    # feasible set) can come out NaN, a threshold that rejects nothing
    with np.errstate(invalid="ignore"):
        quantiles = tuple(float(np.quantile(stats, 1.0 - a)) for a in alphas)
    for a, q in zip(alphas, quantiles):
        if math.isnan(q):
            raise DomainError(f"no {variant} critical value at alpha {a} and p {p}: "
                              "its null quantile interpolates from a statistic of -inf")
    return CriticalValueTable(p=int(p), variant=variant, alphas=tuple(alphas),
                              quantiles=quantiles, num_null_reps=num_null_reps,
                              alpha0=alpha0)


# ---------------------------------------------------------------------------
# size and power
# ---------------------------------------------------------------------------

def variant_threshold(omega: PrecisionModel, variant: str, alpha: float,
                      table: CriticalValueTable) -> float:
    """The table's critical value at alpha; the innovated variant multiplies
    it by the maximum row-nonzero count of the precision matrix."""
    mult = omega.row_nonzero_max() if variant == "ihc" else 1.0
    return mult * table.value(alpha)


@dataclass(frozen=True)
class PowerEstimate:
    size: float
    power: float
    size_se: float
    power_se: float


def power_estimate(params, omega: PrecisionModel, variant: str,
                   alpha: float, reps: int, rng: RngStream,
                   table: CriticalValueTable, alpha0: float = 0.5) -> PowerEstimate:
    """Monte Carlo size and power at a shared simulated critical value.

    params is an ArwParams or any object with p, epsilon and tau; only those
    are used.
    table must be simulated at p for the variant's TABLE_FUNCTIONAL ('hcplus'
    for HC+, at this alpha0, and 'ohc' for every other variant).

    Replicate k draws its null and alternative data from substreams
    rng.child(1).child(k), so calls sharing a root stream are paired draw
    for draw (common random numbers across parameter grids).
    """
    if reps < 50:
        raise DomainError("reps must be at least 50")
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    functional = TABLE_FUNCTIONAL[variant]
    table.check(params.p, functional, alpha0)
    threshold = variant_threshold(omega, variant, alpha, table)

    def rejects(y) -> bool:
        pv = pvalues(y, omega, variant)
        res = hc_statistic(pv) if functional == "ohc" else hc_plus_statistic(pv, alpha0=alpha0)
        return res.statistic >= threshold

    null_rejects = 0
    alt_rejects = 0
    lane = rng.child(1)
    for k in range(reps):
        rep = lane.child(k)
        null_rejects += rejects(omega.sample_noise(rep.child(0)))
        alt_rejects += rejects(gen_arw(params, omega, rep.child(1)).y)
    size = null_rejects / reps
    power = alt_rejects / reps
    return PowerEstimate(
        size=size, power=power,
        size_se=math.sqrt(max(size * (1 - size), 1e-12) / reps),
        power_se=math.sqrt(max(power * (1 - power), 1e-12) / reps),
    )
