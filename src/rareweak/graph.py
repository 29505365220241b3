"""Dependency graphs over feature indices.

A DependencyGraph is a symmetric CSR pattern (indptr, indices, sorted within
each row), built with array operations from an edge list or from the large
entries of a symmetric matrix. On it sit the routines screening and detection
need: bounded connected-subgraph enumeration, greedy coloring, and connected
components (array union-find).
"""

from __future__ import annotations

import functools
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
    """Undirected graph on nodes 0..p-1, stored as a symmetric CSR pattern.

    edges is a sequence of (i, j) pairs or a (k, 2) integer array;
    duplicate and reversed edges collapse into one.
    """

    def __init__(self, num_nodes: int, edges=()):
        if num_nodes < 0:
            raise DomainError("num_nodes must be non-negative")
        p = self.num_nodes = int(num_nodes)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        bad = (e[:, 0] == e[:, 1]) | ((e < 0) | (e >= p)).any(axis=1)
        if bad.any():
            i, j = e[np.argmax(bad)]
            raise DomainError(f"self loop at node {i}" if i == j
                              else f"edge ({i},{j}) out of range")
        # both directions of every edge as row-major keys; unique sorts them
        keys = np.unique(np.concatenate([e[:, 0] * p + e[:, 1], e[:, 1] * p + e[:, 0]]))
        self.indices = keys % p  # no keys when p = 0
        self.indptr = np.searchsorted(keys, np.arange(p + 1) * p)

    @functools.cached_property
    def adjacency(self) -> list:
        """One sorted neighbor array per node (views into indices)."""
        bounds = self.indptr.tolist()
        return [self.indices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    @functools.cached_property
    def upper_edges(self) -> tuple:
        """Every edge once as (ii, jj) arrays with ii < jj, in lex order: the
        upper-triangle entries of the CSR pattern."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        upper = self.indices > rows
        return rows[upper], self.indices[upper]

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def num_edges(self) -> int:
        return self.indices.size // 2

    def __repr__(self):
        return f"DependencyGraph(p={self.num_nodes}, edges={self.num_edges()})"


def graph_from_matrix(m, delta: float = 0.0) -> DependencyGraph:
    """Graph with an edge (i, j), i != j, wherever |m(i, j)| >= delta.

    delta = 0 is read as the strict-nonzero graph, with entries below
    ZERO_TOL in magnitude treated as zeros. m is dense or scipy-sparse;
    both are read through the COO entries of its strict upper triangle.
    """
    if delta < 0:
        raise DomainError("delta must be non-negative")
    if not sp.issparse(m):
        m = np.asarray(m, dtype=float)
    p = m.shape[0] if m.ndim else 0
    if m.shape != (p, p):
        raise DomainError("matrix must be square")
    upper = sp.triu(sp.coo_matrix(m), k=1)
    mag = np.abs(upper.data)
    keep = mag > ZERO_TOL if delta == 0 else mag >= delta
    return DependencyGraph(p, np.column_stack([upper.row[keep], upper.col[keep]]))


def max_degree(g: DependencyGraph) -> int:
    return int(np.diff(g.indptr).max()) if g.num_nodes else 0


def row_nonzero_max(g: DependencyGraph) -> int:
    """Maximum row-nonzero count of the matrix behind the strict-nonzero graph.

    A unit-diagonal matrix has one more nonzero per row than the node degree,
    so this is max_degree + 1. It is the quantity that inflates the innovated
    HC threshold and bounds the subgraph enumeration.
    """
    return max_degree(g) + 1


def enum_connected_subgraphs(g: DependencyGraph, m0: int):
    """All connected vertex subsets of size <= m0, each exactly once.

    Returned as sorted tuples, ordered by size with ties broken
    lexicographically. Singletons and pairs (the edges) come straight from
    the CSR arrays; subsets of three or more nodes grow from their minimum
    element with an exclusive-extension discipline, so no duplicates are
    produced. The projected count p * (e * d)^m0 is checked against
    SUBGRAPH_CAP before any enumeration starts.
    """
    if m0 < 1:
        raise DomainError("m0 must be >= 1")
    p = g.num_nodes
    d = max_degree(g)
    try:
        projected = p if d == 0 else p * (math.e * d) ** m0
    except OverflowError:  # a large m0: the power is beyond the float range
        projected = math.inf
    if p < 63:
        projected = min(projected, float(2**p))  # trivial exhaustive bound
    if projected > SUBGRAPH_CAP:
        raise CapacityError(
            f"projected subgraph count {projected:.3e} exceeds cap {SUBGRAPH_CAP:.3e}"
        )
    out = [(v,) for v in range(p)]
    if m0 >= 2:
        ii, jj = g.upper_edges
        out += zip(ii.tolist(), jj.tolist())
    if len(out) > SUBGRAPH_CAP:
        raise CapacityError(f"subgraph count exceeded cap {SUBGRAPH_CAP}")
    if m0 < 3:
        return out
    adj = g.adjacency
    larger = []

    def extend(sub, ext, closed, anchor):
        if len(sub) >= 3:
            larger.append(tuple(sorted(sub)))
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
        if len(out) + len(larger) > SUBGRAPH_CAP:
            raise CapacityError(f"subgraph count exceeded cap {SUBGRAPH_CAP}")

    larger.sort(key=lambda t: (len(t), t))
    return out + larger


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


def _component_roots(g: DependencyGraph, restrict_to):
    """The nodes of restrict_to (default: all nodes), ascending, and the
    smallest node of each one's component in the subgraph they induce."""
    p = g.num_nodes
    rows, cols = np.repeat(np.arange(p), np.diff(g.indptr)), g.indices
    if restrict_to is None:
        nodes = np.arange(p)
    else:
        nodes = np.unique(np.fromiter(restrict_to, dtype=np.int64))
        outside = nodes[(nodes < 0) | (nodes >= p)]
        if outside.size:
            raise DomainError(f"node {outside[0]} out of range")
        inside = np.isin(rows, nodes) & np.isin(cols, nodes)
        rows, cols = rows[inside], cols[inside]
    # array union-find: each edge between two trees (listed both ways) hooks
    # the larger root under the smaller, then pointer jumping reaches the roots;
    # roots only move to smaller ids, so a root is its component's minimum
    root = np.arange(p)
    while rows.size:
        a, b = root[rows], root[cols]
        cross = a < b
        np.minimum.at(root, b[cross], a[cross])
        rows, cols = rows[a != b], cols[a != b]
        while not np.array_equal(root[root], root):
            root = root[root]
    return nodes, root[nodes]


def component_labels(g: DependencyGraph) -> np.ndarray:
    """Array form of connected_components over all nodes: label[v] numbers
    the component of node v from 0, components counted in order of their
    smallest node."""
    nodes, root = _component_roots(g, None)
    return np.cumsum(root == nodes)[root] - 1


def connected_components(g: DependencyGraph, restrict_to=None):
    """Components of the subgraph induced on restrict_to (default: all nodes).

    Each component is a sorted list of ints; components are ordered by their
    smallest element.
    """
    nodes, root = _component_roots(g, restrict_to)
    order = np.argsort(root, kind="stable")
    members = nodes[order].tolist()
    starts = np.flatnonzero(np.diff(root[order], prepend=-1)).tolist()
    return [members[i:j] for i, j in zip(starts, starts[1:] + [len(members)])]
