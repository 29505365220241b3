"""Sparse signal recovery.

Hard thresholding with ideal and universal thresholds, the two-step graphlet
screening procedure (a chi-square screen over connected subgraphs followed by
a penalized exhaustive clean over retained components), and Hamming-distance
evaluation.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, DegeneracyError, DomainError
from .graph import DependencyGraph, connected_components, enum_connected_subgraphs
from .models import PrecisionModel, RegressionInstance, as_csr, gram_blocks, regression_from_y
from .numerics import check_gram, gram_rank_deficient

DEFAULT_SCREEN_Q = 0.9
CLEAN_COMPONENT_CAP = 15


@dataclass
class SelectionResult:
    beta_hat: np.ndarray

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.beta_hat)


@dataclass
class HammingReport:
    mean: float
    se: float


def hamming_report(counts) -> HammingReport:
    counts = np.asarray(counts, dtype=float)
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(counts.size)) if counts.size > 1 else 0.0
    return HammingReport(mean=mean, se=se)


# ---------------------------------------------------------------------------
# thresholding
# ---------------------------------------------------------------------------

def hard_threshold(y: np.ndarray, t: float) -> SelectionResult:
    """Keep-or-kill: beta_hat_i = Y_i when |Y_i| >= t, else 0."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"threshold must be positive and finite, got {t!r}")
    y = np.asarray(y, dtype=float)
    beta = np.where(np.abs(y) >= t, y, 0.0)
    return SelectionResult(beta_hat=beta)


def universal_threshold(p) -> float:
    """sqrt(2 log p), the parameter-free threshold."""
    return math.sqrt(2.0 * math.log(p))


def ideal_q(vartheta: float, r: float) -> float:
    """Exponent of the risk-optimal threshold sqrt(2 q log p).

    (vartheta + r)^2 / (4 r) when the signal is strong enough to beat the
    sparsity (r > vartheta), else vartheta; the branches agree at r = vartheta.
    """
    if not 0.0 < vartheta < 1.0:
        raise DomainError("vartheta must lie in (0, 1)")
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r!r}")
    if r > vartheta:
        try:
            return (vartheta + r) ** 2 / (4.0 * r)
        except OverflowError:
            raise DomainError(f"r is too large: (vartheta + r)^2 overflows at r={r!r}") from None
    return vartheta


def ideal_threshold(p, vartheta: float, r: float) -> float:
    return math.sqrt(2.0 * ideal_q(vartheta, r) * math.log(p))


def hamming(beta_hat: np.ndarray, beta: np.ndarray) -> int:
    """Number of coordinates where sgn(beta_hat) != sgn(beta), sgn in {-1,0,1}."""
    a = np.asarray(beta_hat)
    b = np.asarray(beta)
    if a.shape != b.shape:
        raise DomainError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(np.sign(a) != np.sign(b)))


# ---------------------------------------------------------------------------
# graphlet screening
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GsTuning:
    """Screen/clean tuning: subgraph size cap m0, screen constant q,
    clean penalty level u, and clean magnitude floor v."""

    m0: int
    q: float
    u: float
    v: float

    def __post_init__(self):
        if self.m0 < 1:
            raise DomainError("m0 must be >= 1")
        for name in ("q", "u", "v"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value!r}")


def default_gs_tuning(p, vartheta: float, r: float, m0: int = 1,
                      q: float = DEFAULT_SCREEN_Q) -> GsTuning:
    """u = sqrt(2 vartheta log p), v = sqrt(2 r log p), q a small constant."""
    if not 0.0 < vartheta < 1.0:
        raise DomainError("vartheta must lie in (0, 1)")
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r!r}")
    return GsTuning(m0=m0, q=q,
                    u=math.sqrt(2.0 * vartheta * math.log(p)),
                    v=math.sqrt(2.0 * r * math.log(p)))


@dataclass(frozen=True)
class GsPlan:
    """The part of graphlet screening and ranking that depends on the Gram
    matrix and the graph alone, built once per design by gs_plan and shared
    by every response screened or ranked under it: the singletons' Gram
    diagonal, the pairs and the subgraphs of three or more nodes, all of size
    at most m0. The pairs' 2x2 Gram blocks and degeneracy are read from gram
    by the first call that uses them.
    """

    p: int
    m0: int
    gram: sp.csr_matrix
    single_diag: np.ndarray  # gram[v, v] for every node v
    ii: np.ndarray           # pair (ii[k], jj[k]), ii[k] < jj[k], in lex order
    jj: np.ndarray
    larger: tuple            # subgraphs of three or more nodes, sorted tuples

    @functools.cached_property
    def pair_grams(self) -> np.ndarray:  # (k, 2, 2) pair blocks, read as gram_sub reads them
        return gram_blocks(self.gram, np.column_stack([self.ii, self.jj]))

    @functools.cached_property
    def pair_ok(self) -> np.ndarray:  # False where check_gram finds the pair rank deficient
        return ~gram_rank_deficient(np.linalg.eigvalsh(self.pair_grams))

    def check_gram(self, gram: sp.csr_matrix) -> None:
        """Raise DomainError unless gram is the plan's Gram matrix: the same
        object, or one of its shape equal to it entry for entry."""
        if gram is not self.gram and (gram.shape != self.gram.shape
                                      or (gram != self.gram).nnz):
            raise DomainError("plan was built from another Gram matrix")


def gs_plan(gram, graph: DependencyGraph, m0: int) -> GsPlan:
    """Enumerate the connected subgraphs of size <= m0 of graph, keeping gram
    (dense or sparse) as CSR to read their Gram blocks from; a float64 CSR
    gram is kept as given, as RegressionInstance keeps it.

    Singletons are every node and pairs are the graph's edges; the larger
    subgraphs keep enum_connected_subgraphs' size-then-lex order.
    """
    gram = as_csr(gram)
    p = gram.shape[0]
    if graph.num_nodes != p:
        raise DomainError(f"graph has {graph.num_nodes} nodes, Gram matrix is {p} x {p}")
    subsets = enum_connected_subgraphs(graph, m0)
    ii, jj = graph.upper_edges
    if m0 < 2:
        ii, jj = ii[:0], jj[:0]
    return GsPlan(p=p, m0=m0, gram=gram, single_diag=gram.diagonal(), ii=ii, jj=jj,
                  larger=tuple(subsets[p + ii.size:]))


def _screen_step(instance: RegressionInstance, sub, retained: list, gate: float) -> None:
    """Screen one subgraph against the retained set, one quadform at a time."""
    try:
        t1 = instance.quadform(sub)
        inter = [j for j in sub if retained[j]]
        t2 = instance.quadform(inter) if inter else 0.0
    except DegeneracyError as exc:
        warnings.warn(f"screen skipped degenerate subgraph {sub}: {exc}")
        return
    if t1 - t2 >= gate:
        for j in sub:
            retained[j] = True


def gs_screen(instance: RegressionInstance, plan: GsPlan | DependencyGraph,
              tuning: GsTuning) -> np.ndarray:
    """Screen step: sweep connected subgraphs in size-then-lex order.

    A subgraph joins the retained set when its projection energy gain over
    the already-retained part reaches 2 q log p. Degenerate projections are
    skipped with a warning.

    plan is gs_plan's plan of the instance's Gram matrix at tuning.m0, built
    once per design; a plan of another Gram matrix raises DomainError. A
    DependencyGraph is planned here, for this call only.

    Singletons and pairs are scored in stacked calls with the arithmetic of
    RegressionInstance.quadform (b*b/g for one column, solve and then dot for
    two), so the sweep gives the same bits as scoring them one at a time;
    only the retained-set bookkeeping runs pair by pair. A degenerate
    singleton or pair, and every larger subgraph, goes through quadform.
    """
    p = instance.p
    if isinstance(plan, DependencyGraph):
        plan = gs_plan(instance.gram, plan, tuning.m0)
    if (plan.p, plan.m0) != (p, tuning.m0):
        raise DomainError(f"plan is for p={plan.p}, m0={plan.m0}; the screen has "
                          f"p={p}, m0={tuning.m0}")
    plan.check_gram(instance.gram)
    gate = 2.0 * tuning.q * math.log(p)
    b = np.asarray(instance.xtw, dtype=float)

    # a singleton never meets the retained set before its own turn: t2 = 0
    single_bad = gram_rank_deficient(plan.single_diag[:, None])
    single = np.divide(b * b, plan.single_diag, out=np.zeros(p), where=~single_bad)
    retained = (~single_bad & (single >= gate)).tolist()
    for v in np.flatnonzero(single_bad).tolist():
        _screen_step(instance, (v,), retained, gate)

    ok = plan.pair_ok
    pair = np.zeros(ok.size)
    bb = np.column_stack([b[plan.ii[ok]], b[plan.jj[ok]]])
    x = np.linalg.solve(plan.pair_grams[ok], bb[..., None])
    pair[ok] = np.matmul(bb[:, None, :], x)[:, 0, 0]
    single = single.tolist()
    for i, j, t1, good in zip(plan.ii.tolist(), plan.jj.tolist(), pair.tolist(),
                              ok.tolist()):
        ri, rj = retained[i], retained[j]
        if not good:  # a good pair's diagonals pass check_gram: single holds t2
            _screen_step(instance, (i, j), retained, gate)  # warns
        elif not (ri and rj):  # both retained: t2 = t1, no gain
            t2 = single[i] if ri else single[j] if rj else 0.0
            if t1 - t2 >= gate:
                retained[i] = retained[j] = True

    for sub in plan.larger:
        _screen_step(instance, sub, retained, gate)
    return np.flatnonzero(retained)


def _clean_component(instance: RegressionInstance, comp, tuning: GsTuning):
    """Exhaustive penalized least squares over one retained component.

    Every support subset is solved, entries inside (0, v) are clipped up to
    the floor v, and the exact objective
    ||P(W - X beta)||^2 + u^2 ||beta||_0 picks the winner.
    """
    comp = list(comp)
    base = instance.quadform(comp)
    g_full = instance.gram_sub(comp)
    b_full = instance.xtw[np.asarray(comp, dtype=int)]
    best_obj = base  # empty support
    best = {}
    u2 = tuning.u ** 2
    m = len(comp)
    for size in range(1, m + 1):
        for pos in itertools.combinations(range(m), size):
            pos = list(pos)
            g = g_full[np.ix_(pos, pos)]
            b = b_full[pos]
            try:
                check_gram(g, pos)
            except DegeneracyError:
                continue
            coef = np.array([b[0] / g[0, 0]]) if size == 1 else np.linalg.solve(g, b)
            small = (coef != 0.0) & (np.abs(coef) < tuning.v)
            coef = np.where(small, np.sign(coef) * tuning.v, coef)
            nnz = int(np.count_nonzero(coef))
            resid = base - 2.0 * coef @ b + coef @ g @ coef
            obj = resid + u2 * nnz
            if obj < best_obj - 1e-12:
                best_obj = obj
                best = {comp[i]: coef[k] for k, i in enumerate(pos)}
    return best


def gs_clean(instance: RegressionInstance, graph: DependencyGraph, retained,
             tuning: GsTuning) -> SelectionResult:
    """Clean step: solve each retained component exactly; zeros elsewhere.

    A retained component larger than CLEAN_COMPONENT_CAP raises CapacityError.
    """
    beta = np.zeros(instance.p)
    for comp in connected_components(graph, restrict_to=retained):
        if len(comp) > CLEAN_COMPONENT_CAP:
            raise CapacityError(
                f"retained component {comp[:4]}... has size {len(comp)} "
                f"above cap {CLEAN_COMPONENT_CAP}"
            )
        for j, v in _clean_component(instance, comp, tuning).items():
            beta[j] = v
    return SelectionResult(beta_hat=beta)


def gs_estimate(y: np.ndarray, omega: PrecisionModel, plan: GsPlan, vartheta: float,
                r: float, q: float = DEFAULT_SCREEN_Q) -> SelectionResult:
    """Full screen + clean pipeline with the standard exponent-based tuning.

    plan is gs_plan(omega.omega, omega.graph(), m0), built once per design
    and shared by every response; its m0 caps the subgraph size.
    """
    instance = regression_from_y(y, omega)
    tuning = default_gs_tuning(omega.p, vartheta, r, m0=plan.m0, q=q)
    retained = gs_screen(instance, plan, tuning)
    return gs_clean(instance, omega.graph(), retained, tuning)

