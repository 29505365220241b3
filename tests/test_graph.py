import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from rareweak.errors import CapacityError, DomainError
from rareweak import graph as gr


def block2_dense(p, h0):
    a = np.eye(p)
    i = np.arange(0, p, 2)
    a[i, i + 1] = h0
    a[i + 1, i] = h0
    return a


def path_graph(p):
    return gr.DependencyGraph(p, [(i, i + 1) for i in range(p - 1)])


class TestGraphFromMatrix:
    def test_identity_has_no_edges(self):
        g = gr.graph_from_matrix(np.eye(7), 0.0)
        assert g.num_edges() == 0

    def test_block_pairs(self):
        g = gr.graph_from_matrix(block2_dense(10, 0.5), 0.0)
        assert g.num_edges() == 5
        for i in range(0, 10, 2):
            assert list(g.neighbors(i)) == [i + 1]

    def test_threshold_drops_weak_edges(self):
        a = np.eye(5)
        for i in range(4):
            a[i, i + 1] = a[i + 1, i] = 0.4
        assert gr.graph_from_matrix(a, 0.5).num_edges() == 0
        assert gr.graph_from_matrix(a, 0.4).num_edges() == 4

    def test_edges_monotone_in_delta(self):
        rng = np.random.Generator(np.random.Philox(3))
        m = rng.standard_normal((20, 20))
        m = (m + m.T) / 2
        counts = [gr.graph_from_matrix(m, d).num_edges() for d in (0.0, 0.5, 1.0, 2.0)]
        assert counts == sorted(counts, reverse=True)

    def test_numerical_zero_tolerance(self):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = 1e-14
        assert gr.graph_from_matrix(a, 0.0).num_edges() == 0

    def test_sparse_input(self):
        import scipy.sparse as sp

        g = gr.graph_from_matrix(sp.csr_matrix(block2_dense(6, 0.3)), 0.0)
        assert g.num_edges() == 3


class TestDegrees:
    def test_empty(self):
        assert gr.max_degree(gr.DependencyGraph(4)) == 0
        assert gr.row_nonzero_max(gr.DependencyGraph(4)) == 1

    def test_path(self):
        assert gr.max_degree(path_graph(3)) == 2

    def test_block_graph(self):
        g = gr.graph_from_matrix(block2_dense(8, 0.5), 0.0)
        assert gr.max_degree(g) == 1
        assert gr.row_nonzero_max(g) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(DomainError):
            gr.DependencyGraph(3, [(1, 1)])


def brute_force_connected_subsets(g, m0):
    """Oracle: test every subset of nodes for induced connectivity."""
    p = g.num_nodes
    adj = [set(map(int, a)) for a in g.adjacency]
    out = []
    for size in range(1, m0 + 1):
        for comb in itertools.combinations(range(p), size):
            nodes = set(comb)
            seen = {comb[0]}
            stack = [comb[0]]
            while stack:
                u = stack.pop()
                for v in adj[u] & nodes:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if seen == nodes:
                out.append(tuple(comb))
    out.sort(key=lambda t: (len(t), t))
    return out


class TestEnumeration:
    def test_path_m0_2(self):
        subs = gr.enum_connected_subgraphs(path_graph(3), 2)
        assert subs == [(0,), (1,), (2,), (0, 1), (1, 2)]

    def test_path_m0_3(self):
        subs = gr.enum_connected_subgraphs(path_graph(3), 3)
        assert subs == [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]

    def test_empty_graph_singletons(self):
        subs = gr.enum_connected_subgraphs(gr.DependencyGraph(5), 3)
        assert subs == [(i,) for i in range(5)]

    def test_block_count(self):
        p = 12
        g = gr.graph_from_matrix(block2_dense(p, 0.5), 0.0)
        subs = gr.enum_connected_subgraphs(g, 2)
        assert len(subs) == p + p // 2

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(11))
        for trial in range(8):
            p = int(rng.integers(4, 11))
            edges = [
                (i, j)
                for i in range(p)
                for j in range(i + 1, p)
                if rng.random() < 0.3
            ]
            g = gr.DependencyGraph(p, edges)
            for m0 in (1, 2, 3, p):
                assert gr.enum_connected_subgraphs(g, m0) == \
                    brute_force_connected_subsets(g, m0)

    def test_ordering(self):
        g = gr.DependencyGraph(4, [(0, 1), (0, 2), (0, 3)])
        subs = gr.enum_connected_subgraphs(g, 2)
        sizes = [len(s) for s in subs]
        assert sizes == sorted(sizes)
        pairs = [s for s in subs if len(s) == 2]
        assert pairs == sorted(pairs)

    def test_capacity_error_before_enumeration(self):
        # star-heavy graph: projected count p * (e d)^m0 blows past the cap
        p = 60
        edges = [(0, j) for j in range(1, p)]
        g = gr.DependencyGraph(p, edges)
        with pytest.raises(CapacityError):
            gr.enum_connected_subgraphs(g, 6)

    def test_huge_m0_small_graph_uses_exhaustive_bound(self):
        # (e d)^m0 overflows a float; the 2**p bound still admits p = 20
        g = path_graph(20)
        assert gr.enum_connected_subgraphs(g, 10**6) == gr.enum_connected_subgraphs(g, 20)

    def test_huge_m0_large_graph_capacity_error(self):
        with pytest.raises(CapacityError):
            gr.enum_connected_subgraphs(path_graph(100), 10**6)

    def test_invalid_m0(self):
        with pytest.raises(DomainError):
            gr.enum_connected_subgraphs(path_graph(3), 0)


class TestColoring:
    def test_empty_graph_one_color(self):
        c = gr.greedy_coloring(gr.DependencyGraph(4))
        assert c.num_colors == 1

    def test_block_graph_two_colors(self):
        g = gr.graph_from_matrix(block2_dense(10, 0.4), 0.0)
        assert gr.greedy_coloring(g).num_colors == 2

    def test_path_two_colors(self):
        assert gr.greedy_coloring(path_graph(5)).num_colors == 2

    def test_valid_coloring_random(self):
        rng = np.random.Generator(np.random.Philox(12))
        for _ in range(20):
            p = int(rng.integers(5, 40))
            edges = [
                (i, j)
                for i in range(p)
                for j in range(i + 1, p)
                if rng.random() < 0.1
            ]
            g = gr.DependencyGraph(p, edges)
            col = gr.greedy_coloring(g)
            for i in range(p):
                for j in g.neighbors(i):
                    assert col.color_of[i] != col.color_of[j]
            assert col.num_colors <= gr.max_degree(g) + 1


class TestComponents:
    def test_empty_restriction(self):
        assert gr.connected_components(path_graph(4), restrict_to=[]) == []

    def test_path_restricted(self):
        comps = gr.connected_components(path_graph(4), restrict_to=[0, 1, 3])
        assert comps == [[0, 1], [3]]

    def test_complete_graph(self):
        p = 6
        g = gr.DependencyGraph(p, [(i, j) for i in range(p) for j in range(i + 1, p)])
        assert gr.connected_components(g, restrict_to=[1, 3, 4]) == [[1, 3, 4]]

    def test_full_graph_components(self):
        g = gr.graph_from_matrix(block2_dense(6, 0.2), 0.0)
        assert gr.connected_components(g) == [[0, 1], [2, 3], [4, 5]]

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            gr.connected_components(path_graph(3), restrict_to=[5])

    def test_labels_count_components_by_smallest_node(self):
        # isolated nodes 0, 2 and 5 are components of their own
        g = gr.DependencyGraph(6, [(4, 1), (3, 1)])
        assert gr.component_labels(g).tolist() == [0, 1, 2, 1, 1, 3]


def reference_adjacency(p, edges):
    """Oracle: one Python set per node, filled edge by edge."""
    adj = [set() for _ in range(p)]
    for i, j in edges:
        adj[int(i)].add(int(j))
        adj[int(j)].add(int(i))
    return [sorted(s) for s in adj]


def reference_components(adj, restrict_to=None):
    """Oracle: depth-first search over the allowed nodes in index order."""
    allowed = set(range(len(adj))) if restrict_to is None else set(map(int, restrict_to))
    seen, comps = set(), []
    for start in sorted(allowed):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in adj[i]:
                if j in allowed and j not in seen:
                    seen.add(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


class TestMatchesSetReference:
    def random_edges(self, rng, p):
        k = int(rng.integers(0, 2 * p + 1)) if p > 1 else 0
        i = rng.integers(0, p, size=k) if p else np.zeros(0, dtype=int)
        j = rng.integers(0, p, size=k) if p else np.zeros(0, dtype=int)
        edges = [(a, b) for a, b in zip(i.tolist(), j.tolist()) if a != b]
        # duplicates and reversed copies of some edges
        extra = [edges[t] for t in rng.integers(0, len(edges), size=len(edges) // 3)] \
            if edges else []
        return edges + [(b, a) for a, b in extra] + extra

    def test_adjacency_and_components(self):
        rng = np.random.Generator(np.random.Philox(2024))
        for trial in range(200):
            p = int(rng.integers(0, 61))
            edges = self.random_edges(rng, p)
            given = np.array(edges, dtype=np.int64).reshape(-1, 2) if trial % 2 else edges
            g = gr.DependencyGraph(p, given)
            want = reference_adjacency(p, edges)
            assert len(g.adjacency) == p
            assert [a.tolist() for a in g.adjacency] == want
            assert [g.neighbors(i).tolist() for i in range(p)] == want
            assert g.num_edges() == sum(map(len, want)) // 2
            assert gr.max_degree(g) == max(map(len, want), default=0)
            comps = gr.connected_components(g)
            assert comps == reference_components(want)
            assert all(type(v) is int for c in comps for v in c)
            label = gr.component_labels(g)
            assert label.shape == (p,)
            assert [np.flatnonzero(label == c).tolist() for c in range(label.max(initial=-1) + 1)] \
                == reference_components(want)
            subsets = [[], None]
            if p:
                picks = rng.integers(0, p, size=int(rng.integers(1, 2 * p + 1)))
                subsets += [picks.tolist(), picks, set(picks.tolist()),
                            list(reversed(sorted(set(picks.tolist()))))]
            for restrict in subsets:
                assert gr.connected_components(g, restrict_to=restrict) == \
                    reference_components(want, restrict), restrict

    def test_array_edges_validated(self):
        with pytest.raises(DomainError, match="self loop"):
            gr.DependencyGraph(4, np.array([[0, 1], [2, 2]]))
        with pytest.raises(DomainError, match="out of range"):
            gr.DependencyGraph(4, np.array([[0, 1], [1, 4]]))
        with pytest.raises(DomainError, match="out of range"):
            gr.DependencyGraph(4, np.array([[-1, 2]]))
        with pytest.raises(DomainError):
            gr.DependencyGraph(0, np.array([[0, 1]]))

    def test_empty_graph(self):
        g = gr.DependencyGraph(0)
        assert g.adjacency == [] and g.num_edges() == 0
        assert gr.connected_components(g) == []
        assert gr.component_labels(g).shape == (0,)
        assert gr.max_degree(g) == 0

    def test_dense_and_sparse_input_agree(self):
        rng = np.random.Generator(np.random.Philox(77))
        m = np.where(rng.random((30, 30)) < 0.1, rng.standard_normal((30, 30)), 0.0)
        m = m + m.T + np.eye(30)
        m[0, 1] = m[1, 0] = 1e-13
        for delta in (0.0, 0.3, 1.0):
            dense = gr.graph_from_matrix(m, delta)
            sparse = gr.graph_from_matrix(sp.csr_matrix(m), delta)
            assert [a.tolist() for a in dense.adjacency] == \
                [a.tolist() for a in sparse.adjacency]

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            gr.graph_from_matrix(np.ones((2, 3)))
        with pytest.raises(DomainError):
            gr.graph_from_matrix(sp.csr_matrix(np.ones((2, 3))))
