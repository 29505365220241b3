"""Dependency graphs over feature indices.

Builds graphs from the large entries of a symmetric matrix and provides the
combinatorial routines the screening and detection procedures need: bounded
connected-subgraph enumeration, greedy coloring, and connected components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, DomainError

SUBGRAPH_CAP = 10_000_000

# Entries at or below this magnitude are treated as structural zeros when a
# sparsity pattern is read off a matrix.
ZERO_TOL = 1e-12


class DependencyGraph:
    """Undirected graph on nodes 0..p-1 with per-node sorted neighbor lists."""

    def __init__(self, num_nodes: int, edges=()):
        if num_nodes < 0:
            raise DomainError("num_nodes must be non-negative")
        self.num_nodes = int(num_nodes)
        adj = [set() for _ in range(self.num_nodes)]
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise DomainError(f"self loop at node {i}")
            if not (0 <= i < self.num_nodes and 0 <= j < self.num_nodes):
                raise DomainError(f"edge ({i},{j}) out of range")
            adj[i].add(j)
            adj[j].add(i)
        self.adjacency = [np.array(sorted(s), dtype=int) for s in adj]

    def neighbors(self, i: int) -> np.ndarray:
        return self.adjacency[i]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def __repr__(self):
        return f"DependencyGraph(p={self.num_nodes}, edges={self.num_edges()})"


def graph_from_matrix(m, delta: float = 0.0) -> DependencyGraph:
    """Graph with an edge (i, j), i != j, wherever |m(i, j)| >= delta.

    delta = 0 is read as the strict-nonzero graph, with entries below
    ZERO_TOL in magnitude treated as zeros.
    """
    if delta < 0:
        raise DomainError("delta must be non-negative")
    thr = ZERO_TOL if delta == 0 else delta
    strict = delta == 0
    if sp.issparse(m):
        coo = sp.triu(m, k=1).tocoo()
        keep = np.abs(coo.data) > thr if strict else np.abs(coo.data) >= thr
        edges = zip(coo.row[keep], coo.col[keep])
        p = m.shape[0]
    else:
        a = np.asarray(m, dtype=float)
        p = a.shape[0]
        if a.shape != (p, p):
            raise DomainError("matrix must be square")
        upper = np.triu(np.abs(a), k=1)
        mask = upper > thr if strict else upper >= thr
        rows, cols = np.nonzero(mask)
        edges = zip(rows, cols)
    return DependencyGraph(p, edges)


def max_degree(g: DependencyGraph) -> int:
    if g.num_nodes == 0:
        return 0
    return max(len(a) for a in g.adjacency)


def row_nonzero_max(g: DependencyGraph) -> int:
    """Maximum row-nonzero count of the matrix behind the strict-nonzero graph.

    A unit-diagonal matrix has one more nonzero per row than the node degree,
    so this is max_degree + 1. It is the quantity that inflates the innovated
    HC threshold and bounds the subgraph enumeration.
    """
    return max_degree(g) + 1


def enum_connected_subgraphs(g: DependencyGraph, m0: int, cap: int = SUBGRAPH_CAP):
    """All connected vertex subsets of size <= m0, each exactly once.

    Returned as sorted tuples, ordered by size with ties broken
    lexicographically. Enumeration grows each subset from its minimum
    element with an exclusive-extension discipline, so no duplicates are
    produced. The projected count p * (e * d)^m0 is checked against the cap
    before any enumeration starts.
    """
    if m0 < 1:
        raise DomainError("m0 must be >= 1")
    p = g.num_nodes
    d = max_degree(g)
    projected = p if d == 0 else p * (math.e * d) ** m0
    if p < 63:
        projected = min(projected, float(2**p))  # trivial exhaustive bound
    if projected > cap:
        raise CapacityError(
            f"projected subgraph count {projected:.3e} exceeds cap {cap:.3e}"
        )
    adj = g.adjacency
    out = []

    def extend(sub, ext, closed, anchor):
        out.append(tuple(sorted(sub)))
        if len(sub) >= m0:
            return
        ext = list(ext)
        while ext:
            w = ext.pop()
            grow = [int(u) for u in adj[w] if u > anchor and u not in closed]
            new_closed = closed | {int(u) for u in adj[w]} | {w}
            extend(sub + [w], ext + grow, new_closed, anchor)

    for v in range(p):
        ext0 = [int(u) for u in adj[v] if u > v]
        closed0 = {v} | {int(u) for u in adj[v]}
        extend([v], ext0, closed0, v)
        if len(out) > cap:
            raise CapacityError(f"subgraph count exceeded cap {cap}")

    out.sort(key=lambda t: (len(t), t))
    return out


@dataclass(frozen=True)
class Coloring:
    color_of: np.ndarray
    num_colors: int


def greedy_coloring(g: DependencyGraph) -> Coloring:
    """Sequential greedy coloring in index order.

    Each node takes the smallest color not already used by a colored
    neighbor, so the number of colors never exceeds max_degree + 1, the
    maximum row-nonzero count of a unit-diagonal matrix with this pattern.
    """
    p = g.num_nodes
    color = np.full(p, -1, dtype=int)
    for v in range(p):
        used = {color[u] for u in g.adjacency[v] if color[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    num = int(color.max()) + 1 if p else 1
    return Coloring(color_of=color, num_colors=max(num, 1))


def connected_components(g: DependencyGraph, restrict_to=None):
    """Components of the subgraph induced on restrict_to (default: all nodes).

    Each component is a sorted list; components are ordered by their
    smallest element.
    """
    if restrict_to is None:
        nodes = range(g.num_nodes)
        allowed = None
    else:
        nodes = sorted(set(int(i) for i in restrict_to))
        for i in nodes:
            if not (0 <= i < g.num_nodes):
                raise DomainError(f"node {i} out of range")
        allowed = set(nodes)
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in g.adjacency[i]:
                if j in seen:
                    continue
                if allowed is not None and j not in allowed:
                    continue
                seen.add(j)
                stack.append(j)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps
