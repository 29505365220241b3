import functools
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import stats

from rareweak.errors import DomainError, FactorizationError, GenerationError
from rareweak import classify, phase, select
from rareweak import models as mo
from rareweak.graph import component_labels, connected_components
from rareweak.numerics import (BLOCK_VALUES, RngStream, chol_banded, component_factors,
                               restricted_quadform, row_blocks, sym_sqrt)


class TestParams:
    def test_epsilon_and_tau(self):
        params = mo.ArwParams(p=10**4, vartheta=0.5, r=1.0)
        assert abs(params.epsilon - 0.01) <= 1e-15
        assert abs(params.tau - math.sqrt(2 * math.log(10**4))) <= 1e-12

    def test_tau_formula_at_e(self):
        assert abs(mo.signal_strength(math.e, 1.0) - math.sqrt(2.0)) <= 1e-12

    def test_expected_support(self):
        params = mo.ArwParams(p=10**4, vartheta=0.5, r=1.0)
        assert abs(params.p * params.epsilon - 100.0) <= 1e-9

    def test_validation(self):
        with pytest.raises(DomainError):
            mo.ArwParams(p=100, vartheta=1.0, r=1.0)
        with pytest.raises(DomainError):
            mo.ArwParams(p=100, vartheta=0.5, r=0.0)

    @pytest.mark.parametrize("field,build", [
        ("r", lambda x: mo.ArwParams(p=100, vartheta=0.5, r=x)),
        ("threshold", lambda x: select.hard_threshold(np.ones(4), x)),
        ("threshold", lambda x: classify.clip_threshold(np.ones(4), x)),
        ("r", lambda x: select.ideal_q(0.5, x)),
        ("q", lambda x: select.GsTuning(m0=1, q=x, u=1.0, v=1.0)),
        ("v", lambda x: select.GsTuning(m0=1, q=1.0, u=1.0, v=x)),
        ("r", lambda x: select.default_gs_tuning(100, 0.5, x)),
        ("tau", lambda x: mo.draw_paired_beta(10, 0.5, x, RngStream(1, 0))),
        ("r", lambda x: phase.block_exponent(0.5, x, 0.5)),
    ], ids=["ArwParams", "hard_threshold", "clip_threshold",
            "ideal_q", "GsTuning.q", "GsTuning.v", "default_gs_tuning",
            "draw_paired_beta", "block_exponent"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected_by_name(self, field, build, value):
        # NaN and inf pass a positivity check written as x <= 0
        with pytest.raises(DomainError, match=rf"^{field} must"):
            build(value)

    def test_sample_size_rounding(self):
        assert mo.sample_size(10**4, 0.5) == 100
        assert mo.sample_size(10**4, 0.4) == 40  # round(39.81)


class TestPrecisionModel:
    def test_identity(self):
        om = mo.PrecisionModel.identity(5)
        assert np.allclose(om.dense(), np.eye(5))
        assert om.row_nonzero_max() == 1
        # the closed-form factors are what component_factors gives the
        # identity's singleton components: stored 1.0s
        root = om.sqrt_matrix()
        assert np.array_equal(root.toarray(), np.eye(5))
        assert root.nnz == 5 and np.all(root.data == 1.0)
        assert np.array_equal(om.sigma_diag(), np.ones(5))
        factored = component_factors(om.omega, component_labels(om.graph()))
        for mine, theirs in zip(om._factors()[:2], factored[:2]):
            assert np.array_equal(mine.toarray(), theirs.toarray())
        assert np.array_equal(factored[2], np.ones(5))
        v = RngStream(8, 0).standard_normal(5)
        assert np.array_equal(om.sigma_sqrt_rmatvec(v), v)
        assert np.array_equal(np.vstack(list(om.noise_rows(RngStream(8, 1), 3))),
                              RngStream(8, 1).standard_normal((3, 5)))

    def test_block2_structure(self):
        om = mo.PrecisionModel.block2(6, 0.5)
        d = om.dense()
        assert d[0, 1] == 0.5 and d[1, 0] == 0.5 and d[2, 3] == 0.5
        assert d[1, 2] == 0.0
        assert om.row_nonzero_max() == 2
        assert om.graph().num_edges() == 3

    @pytest.mark.parametrize("h0", [-0.95, -0.8, 0.0, 1e-13, 0.5, 0.95])
    @pytest.mark.parametrize("p", [2, 40, 1000, 10002])
    def test_pair_blocks_equal_coo_assembly(self, p, h0):
        # block2's Omega as it was assembled from COO triplets; h0 = 0 keeps
        # its stored zeros, which component_factors drops
        i = np.arange(p)
        coo = sp.csr_matrix((np.concatenate([np.ones(p), np.full(p, h0)]),
                             (np.concatenate([i, i]), np.concatenate([i, i ^ 1]))),
                            shape=(p, p))
        for csr in (mo.pair_blocks(p, [[1.0, h0], [h0, 1.0]]),
                    mo.PrecisionModel.block2(p, h0).omega):
            assert csr.shape == coo.shape
            for field in ("indptr", "indices", "data"):
                got, want = getattr(csr, field), getattr(coo, field)
                assert got.dtype == want.dtype, field
                assert got.tobytes() == want.tobytes(), field

    def test_block2_sigma_diag(self):
        h0 = 0.5
        om = mo.PrecisionModel.block2(4, h0)
        assert np.allclose(om.sigma_diag(), 1.0 / (1.0 - h0 * h0))

    def test_block2_odd_p_rejected(self):
        with pytest.raises(DomainError):
            mo.PrecisionModel.block2(5, 0.5)

    def test_custom_validation(self):
        good = np.eye(3)
        good[0, 1] = good[1, 0] = 0.2
        mo.PrecisionModel.custom(good)
        bad_diag = good.copy()
        bad_diag[0, 0] = 2.0
        with pytest.raises(DomainError):
            mo.PrecisionModel.custom(bad_diag)
        asym = good.copy()
        asym[0, 1] = 0.3
        with pytest.raises(DomainError):
            mo.PrecisionModel.custom(asym)

    @pytest.mark.parametrize("matrix", [5.0, np.ones(3), np.ones((2, 3))])
    def test_custom_not_square_rejected(self, matrix):
        with pytest.raises(DomainError, match="must be square"):
            mo.PrecisionModel.custom(matrix)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_custom_non_finite_entry_named(self, value):
        a = np.eye(4)
        a[1, 2] = a[2, 1] = value
        with pytest.raises(DomainError, match=r"entry \(1, 2\)"):
            mo.PrecisionModel.custom(a)

    def test_matvec_matches_dense(self):
        om = mo.PrecisionModel.block2(8, -0.4)
        v = RngStream(2, 0).standard_normal(8)
        assert np.allclose(om.matvec(v), om.dense() @ v)

    def test_sqrt_squares_to_omega(self):
        om = mo.PrecisionModel.block2(10, 0.7)
        s = om.sqrt_matrix().toarray()
        assert np.max(np.abs(s @ s - om.dense())) <= 1e-8

    @pytest.mark.parametrize("h0", [0.0, 0.5, -0.8, 0.95])
    def test_sqrt_matrix_agrees_with_sym_sqrt(self, h0):
        om = mo.PrecisionModel.block2(12, h0)
        assert np.array_equal(sym_sqrt(om.dense()), om.sqrt_matrix().toarray())

    def test_factoring_never_densifies(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("dense copy of a sparse matrix")

        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            monkeypatch.setattr(cls, "toarray", refuse)
        om = mo.PrecisionModel.block2(10**5, 0.5)
        assert np.allclose(om.sigma_diag(), 1.0 / 0.75)
        assert om.sample_noise(RngStream(1, 0)).shape == (10**5,)

    @pytest.mark.parametrize("case", ["custom", "block2_h0_zero"])
    def test_stacked_factors_match_component_loop(self, case):
        if case == "custom":
            # components {0, 5, 9}, {1, 7}, {2, 3, 6, 8} and the singleton {4}
            a = np.eye(10)
            for i, j, v in ((0, 5, 0.3), (5, 9, -0.2), (1, 7, 0.6), (2, 6, 0.25),
                            (6, 3, -0.35), (3, 8, 0.15), (2, 8, 0.1)):
                a[i, j] = a[j, i] = v
            om = mo.PrecisionModel.custom(a)
        else:
            om = mo.PrecisionModel.block2(10, 0.0)
        dense = om.dense()
        sqrt_ref, isqrt_ref = np.zeros_like(dense), np.zeros_like(dense)
        diag_ref = np.ones(om.p)
        for comp in map(np.asarray, connected_components(om.graph())):
            if comp.size == 1:
                sqrt_ref[comp, comp] = isqrt_ref[comp, comp] = 1.0
                continue
            w, v = np.linalg.eigh(dense[np.ix_(comp, comp)])
            sqrt_ref[np.ix_(comp, comp)] = (v * np.sqrt(w)) @ v.T
            isqrt_ref[np.ix_(comp, comp)] = (v / np.sqrt(w)) @ v.T
            diag_ref[comp] = np.sum(v * v / w, axis=1)
        g = RngStream(2, 0).standard_normal(om.p)
        assert np.array_equal(om.sqrt_matrix().toarray(), sqrt_ref)
        assert np.array_equal(om.sigma_diag(), diag_ref)
        noise_ref = sp.csr_matrix(isqrt_ref) @ g
        assert np.array_equal(om.sample_noise(RngStream(2, 0)), noise_ref)

    def test_non_pd_component_named_by_first_index(self):
        # a non-PD pair {6, 8} and a non-PD chain {2, 4, 9}; the chain starts first
        a = np.eye(10)
        a[6, 8] = a[8, 6] = 1.5
        for i, j in ((2, 4), (4, 9)):
            a[i, j] = a[j, i] = 0.8
        om = mo.PrecisionModel.custom(a)
        with pytest.raises(FactorizationError, match="component starting at 2 "):
            om.sigma_diag()

    def test_reader_never_sees_half_published_factors(self):
        # the reader starts once the factors are published, and the factoring
        # thread pauses right after publishing them until the reader is done
        done = threading.Event()

        class Paused(mo.PrecisionModel):
            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if name == "_factor_cache" and value is not None:
                    done.wait(timeout=30)

        om = Paused.block2(1000, 0.5)
        errors = []

        def reader():
            try:
                while om._factor_cache is None:
                    time.sleep(1e-4)
                om.sample_noise(RngStream(4, 0))
            except Exception as exc:
                errors.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=reader)
        thread.start()
        om.sigma_diag()
        thread.join(timeout=30)
        assert not thread.is_alive() and errors == []

    def test_concurrent_first_calls_factor_once(self, monkeypatch):
        calls = []
        components = mo.graphmod.component_labels

        def slow_components(*args, **kwargs):
            calls.append(1)
            time.sleep(0.05)  # both threads arrive while the first one factors
            return components(*args, **kwargs)

        monkeypatch.setattr(mo.graphmod, "component_labels", slow_components)
        om = mo.PrecisionModel.block2(1000, 0.5)
        workers = 8
        barrier = threading.Barrier(workers, timeout=30)

        def first_call(_):
            barrier.wait()
            return om.sigma_diag()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(first_call, range(workers), timeout=30))
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1 and all(r is results[0] for r in results)
        assert np.array_equal(results[0], mo.PrecisionModel.block2(1000, 0.5).sigma_diag())

    def test_sample_noise_covariance(self):
        om = mo.PrecisionModel.block2(4, 0.5)
        draws = np.vstack(list(om.noise_rows(RngStream(3, 0), 10**4)))
        emp = draws.T @ draws / draws.shape[0]
        sigma = np.linalg.inv(om.dense())
        assert np.max(np.abs(emp - sigma)) <= 0.05

    @pytest.mark.parametrize("kind,p,n", [
        ("identity", 10**4, 7),
        ("block2_0.5", 10**4, 7),     # one 7-row block
        ("block2_-0.8", 10**4, 8),    # two 4-row blocks
        ("block2_0.5", 10**4, 9),     # 4 rows, then a last block of 5
        ("block2_0.5", 1000, 70),     # 8 rows per block, a last block of 14
        ("custom", 400, 170),         # 20 rows per block, a last block of 30
    ])
    def test_noise_rows_equal_one_shot_draw(self, kind, p, n):
        # the row blocks draw and sum exactly what one (n, p) draw times
        # Sigma^{1/2} gives, on the same stream, in C-ordered row_blocks
        # blocks; class_rows adds the means
        if kind == "identity":
            om = mo.PrecisionModel.identity(p)
        elif kind == "custom":
            a = np.eye(p)
            for i, j, v in ((0, 1, 0.4), (1, 2, -0.3), (10, 11, 0.6), (20, 35, -0.5)):
                a[i, j] = a[j, i] = v
            om = mo.PrecisionModel.custom(a)
        else:
            om = mo.PrecisionModel.block2(p, float(kind.split("_")[1]))
        g = RngStream(5, 1).standard_normal((n, p))
        ref = (om._factors()[1] @ g.T).T
        if kind == "identity":
            assert np.array_equal(ref, g)
        heights = [(hi - lo, p) for lo, hi in row_blocks(n, p)]
        blocks = list(om.noise_rows(RngStream(5, 1), n))
        assert [b.shape for b in blocks] == heights
        assert all(b.flags.c_contiguous for b in blocks)
        assert np.array_equal(np.vstack(blocks), ref)
        labels = np.where(RngStream(5, 2).uniform(n) < 0.5, 1.0, -1.0)
        mu = np.where(RngStream(5, 3).uniform(p) < 0.1, 0.7, 0.0)
        blocks = list(mo.class_rows(mu, labels, om, RngStream(5, 1)))
        assert [b.shape for b in blocks] == heights
        assert all(b.flags.c_contiguous for b in blocks)
        assert np.array_equal(np.vstack(blocks), labels[:, None] * mu[None, :] + ref)

    @pytest.mark.parametrize("p,n", [(10**4, 40), (1000, 70), (4 * BLOCK_VALUES + 2, 3)])
    def test_noise_rows_drawn_in_blocks(self, p, n):
        sizes = []

        class Counting(RngStream):
            def standard_normal(self, size=None):
                sizes.append(size)
                return super().standard_normal(size)

        heights = [(hi - lo, p) for lo, hi in row_blocks(n, p)]
        rows = mo.PrecisionModel.block2(p, 0.5).noise_rows(Counting(6, 0), n)
        assert sizes == []  # nothing is drawn before the rows are read
        assert [b.shape for b in rows] == heights
        assert sizes == heights
        for om in (mo.PrecisionModel.identity(p), mo.PrecisionModel.block2(p, 0.5)):
            # noise_blocks yields the row_blocks blocks of one (n, p) draw
            blocks = list(om.noise_blocks(RngStream(6, 0), n))
            assert [b.shape for b in blocks] == heights
            assert np.array_equal(np.concatenate(blocks),
                                  RngStream(6, 0).standard_normal((n, p)))

    @pytest.mark.parametrize("kind", ["identity", "block2", "custom"])
    def test_single_draw_is_row_zero_of_one_row(self, kind):
        # one vector is row 0 of the size-1 draw: the same stream values and
        # the same CSR row sums as Sigma^{1/2} @ g
        if kind == "identity":
            om = mo.PrecisionModel.identity(40)
        elif kind == "block2":
            om = mo.PrecisionModel.block2(40, -0.8)
        else:
            a = np.eye(40)
            for i, j, v in ((0, 1, 0.4), (1, 2, -0.3), (10, 11, 0.6), (20, 35, -0.5)):
                a[i, j] = a[j, i] = v
            om = mo.PrecisionModel.custom(a)
        one = om.sample_noise(RngStream(7, 0))
        assert one.shape == (40,)
        assert np.array_equal(one, next(om.noise_rows(RngStream(7, 0), 1))[0])
        assert np.array_equal(one, om._factors()[1] @ RngStream(7, 0).standard_normal(40))

    @pytest.mark.parametrize("size", [None, 1, 9, 70])
    def test_block2_h0_zero_noise_is_identity_noise(self, size):
        p = 1000

        def draw(om):
            if size is None:
                return om.sample_noise(RngStream(9, 0))
            return np.vstack(list(om.noise_rows(RngStream(9, 0), size)))

        a = draw(mo.PrecisionModel.block2(p, 0.0))
        b = draw(mo.PrecisionModel.identity(p))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["identity", "block2", "custom"])
    def test_sigma_sqrt_rmatvec_scores_noise_rows(self, kind):
        # the rows noise_rows builds from draws G score as G @ (Sigma^{1/2}' v)
        if kind == "identity":
            om = mo.PrecisionModel.identity(6)
        elif kind == "block2":
            om = mo.PrecisionModel.block2(6, -0.8)
        else:
            a = np.eye(6)
            a[0, 2] = a[2, 0] = 0.4
            a[2, 5] = a[5, 2] = -0.3
            om = mo.PrecisionModel.custom(a)
        v = RngStream(4, 1).standard_normal(6)
        sigma_sqrt = np.linalg.inv(om.sqrt_matrix().toarray())
        assert np.allclose(om.sigma_sqrt_rmatvec(v), sigma_sqrt.T @ v)
        rows = np.vstack(list(om.noise_rows(RngStream(4, 0), 5)))
        g = RngStream(4, 0).standard_normal((5, 6))
        assert np.allclose(rows @ v, g @ om.sigma_sqrt_rmatvec(v))
        if kind == "identity":
            assert np.array_equal(om.sigma_sqrt_rmatvec(v), v)


class TestGenArw:
    def test_noise_covariance_over_replicates(self):
        om = mo.PrecisionModel.block2(4, 0.5)
        params = mo.ArwParams(p=4, vartheta=0.5, r=1.0)
        rng = RngStream(4, 0)
        noises = []
        for k in range(10**4):
            inst = mo.gen_arw(params, om, rng.child(k))
            noises.append(inst.y - inst.beta)
        noises = np.asarray(noises)
        emp = noises.T @ noises / noises.shape[0]
        sigma = np.linalg.inv(om.dense())
        assert np.max(np.abs(emp - sigma)) <= 0.05

    def test_noise_normality_ks(self):
        params = mo.ArwParams(p=2000, vartheta=0.5, r=1.0)
        inst = mo.gen_arw(params, mo.PrecisionModel.identity(2000), RngStream(5, 0))
        noise = inst.y - inst.beta
        assert stats.kstest(noise, "norm").pvalue > 0.01

    def test_support_size_concentration(self):
        params = mo.ArwParams(p=10**4, vartheta=0.5, r=1.0)
        inst = mo.gen_arw(params, mo.PrecisionModel.identity(10**4), RngStream(6, 0))
        expect = params.p * params.epsilon
        support = np.flatnonzero(inst.beta)
        assert abs(support.size - expect) <= 4 * math.sqrt(expect)
        assert np.all(inst.beta[support] == params.tau)

    def test_deterministic(self):
        params = mo.ArwParams(p=50, vartheta=0.5, r=1.0)
        om = mo.PrecisionModel.block2(50, 0.3)
        a = mo.gen_arw(params, om, RngStream(7, 1))
        b = mo.gen_arw(params, om, RngStream(7, 1))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.beta, b.beta)

    def test_epsilon_zero_mixture(self):
        mix = SimpleNamespace(p=40, epsilon=0.0, tau=3.0)
        inst = mo.gen_arw(mix, mo.PrecisionModel.identity(40), RngStream(8, 0))
        assert not inst.beta.any()

    def test_dimension_mismatch(self):
        params = mo.ArwParams(p=10, vartheta=0.5, r=1.0)
        with pytest.raises(DomainError):
            mo.gen_arw(params, mo.PrecisionModel.identity(12), RngStream(1))


class TestRegressionForm:
    def test_identity_is_identity_map(self):
        params = mo.ArwParams(p=30, vartheta=0.5, r=1.0)
        inst = mo.gen_arw(params, mo.PrecisionModel.identity(30), RngStream(9, 0))
        reg = mo.to_regression(inst)
        assert np.array_equal(reg.xtw, inst.y)
        assert np.allclose(inst.omega.sqrt_matrix().toarray(), np.eye(30))

    def test_block_design_diagonal(self):
        om = mo.PrecisionModel.block2(6, 0.5)
        x = om.sqrt_matrix().toarray()
        assert np.allclose(np.diag(x), 0.965926, atol=1e-6)

    def test_gram_is_omega(self):
        om = mo.PrecisionModel.block2(8, -0.6)
        inst = mo.gen_arw(mo.ArwParams(p=8, vartheta=0.5, r=1.0), om, RngStream(11, 0))
        reg = mo.to_regression(inst)
        x = om.sqrt_matrix().toarray()
        assert np.max(np.abs(x.T @ x - om.dense())) <= 1e-8
        assert np.max(np.abs(reg.gram - om.dense())) <= 1e-15

    def test_quadform_matches_projection(self):
        om = mo.PrecisionModel.block2(8, 0.4)
        inst = mo.gen_arw(mo.ArwParams(p=8, vartheta=0.5, r=2.0), om, RngStream(12, 0))
        reg = mo.to_regression(inst)
        x = om.sqrt_matrix().toarray()
        for idx in ([2], [0, 1], [0, 1, 4]):
            cols = x[:, idx]
            direct = restricted_quadform(cols.T @ cols, cols.T @ (x @ inst.y))
            assert abs(reg.quadform(idx) - direct) <= 1e-8


    @pytest.mark.parametrize("h0", [0.4, 0.0])
    @pytest.mark.parametrize("idx", [[0, 1], [1, 0], [3, 4], [5], [4, 3, 2],
                                     [9, 2, 3, 8], [7, 6, 7]])
    def test_sparse_gram_sub_matches_dense(self, idx, h0):
        p = 12
        om = mo.PrecisionModel.block2(p, h0)
        reg = mo.regression_from_y(RngStream(13, 0).standard_normal(p), om)
        assert sp.issparse(reg.gram)
        assert np.array_equal(reg.gram_sub(idx), om.dense()[np.ix_(idx, idx)])

    @pytest.mark.parametrize("xtw", [np.zeros(3), np.zeros(5), np.zeros((2, 3)),
                                     np.float64(1.0)])
    def test_xtw_length_must_match_gram(self, xtw):
        with pytest.raises(DomainError):
            mo.RegressionInstance(gram=np.eye(4), xtw=xtw)

    def test_block_of_responses(self):
        reg = mo.RegressionInstance(gram=np.eye(4), xtw=np.ones((3, 4)))
        assert reg.p == 4
        with pytest.raises(DomainError):
            reg.quadform([0, 1])


_Z_SCRIPT = """
import hashlib, math
import numpy as np
from rareweak import models as mo
from rareweak.numerics import RngStream
p = 2050
om = mo.PrecisionModel.block2(p, 0.5)
theta = math.log(251) / math.log(p)
sample = mo.gen_class_sample(p, 0.4, 1.0, theta, om, RngStream(39, 0))
rng = RngStream(39, 0)
rng.uniform(p)
rng.uniform(sample.n)
rows = np.vstack(list(mo.class_rows(sample.mu, sample.labels, om, rng)))
ref = rows.T @ sample.labels.astype(float) / math.sqrt(sample.n)
print(hashlib.sha256(sample.z.tobytes()).hexdigest(), hashlib.sha256(ref.tobytes()).hexdigest())
"""


def _blas_env(threads):
    src = str(pathlib.Path(mo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                PYTHONPATH=path)


@functools.lru_cache(maxsize=None)
def _class_omega(kind, p):
    if kind == "identity":
        return mo.PrecisionModel.identity(p)
    if kind == "block2":
        return mo.PrecisionModel.block2(p, -0.6)
    a = np.eye(p)
    for i, j, v in ((0, 1, 0.4), (1, 2, -0.3), (10, 11, 0.6), (20, 35, -0.5),
                    (p - 3, p - 1, 0.45)):
        a[i, j] = a[j, i] = v
    return mo.PrecisionModel.custom(a)


class TestClassSample:
    def test_sample_size_from_theta(self):
        sample = mo.gen_class_sample(10**4, 0.5, 1.0, 0.5,
                                     mo.PrecisionModel.identity(10**4), RngStream(13, 0))
        assert sample.n == 100

    def test_single_row_mean(self):
        mu = np.array([0.5, -1.0, 0.0, 2.0])
        [rows] = mo.class_rows(mu, np.array([1]), mo.PrecisionModel.identity(4),
                               RngStream(14, 0))
        assert rows.shape == (1, 4)
        # one draw: check it is centered near mu rather than -mu
        assert np.linalg.norm(rows[0] - mu) < np.linalg.norm(rows[0] + mu)

    def test_support_size(self):
        p, vartheta = 10**4, 0.4
        sample = mo.gen_class_sample(p, vartheta, 1.0, 0.5,
                                     mo.PrecisionModel.identity(p), RngStream(15, 0))
        expect = p ** (1 - vartheta)
        count = np.count_nonzero(sample.mu)
        assert abs(count - expect) <= 3 * math.sqrt(p * p ** (-vartheta))

    def test_z_vector_mean(self):
        # the label-weighted average recovers sqrt(n) mu within 4 SE entrywise
        p = 400
        om = mo.PrecisionModel.identity(p)
        sample = mo.gen_class_sample(p, 0.3, 2.0, 0.6, om, RngStream(16, 0))
        target = math.sqrt(sample.n) * sample.mu
        assert np.max(np.abs(sample.z - target)) <= 4.0

    @pytest.mark.parametrize("kind,p,height", [
        (kind, p, height)
        for p, height in ((2050, 4), (1000, 8), (1001, 8), (503, 16))
        for kind in ("identity", "block2", "custom") if kind != "block2" or p % 2 == 0])
    @pytest.mark.parametrize("tail", [0, 1, 2, 3])
    def test_z_is_one_product_bit_for_bit(self, kind, p, height, tail):
        # Z summed block by block in groups of 4, 2 and 1 rows, and row by
        # row in its last p % 4 entries, equals one product of the stacked
        # C-ordered rows, X'l / sqrt(n), bit for bit, for every n and p mod 4
        # and block heights of 4, 8 and 16 rows
        om = _class_omega(kind, p)
        n = 10 * height + tail
        theta = math.log(n) / math.log(p)
        assert mo.sample_size(p, theta) == n
        assert row_blocks(n, p)[0] == (0, height)
        sample = mo.gen_class_sample(p, 0.4, 1.0, theta, om, RngStream(37, n))
        rng = RngStream(37, n)
        rng.uniform(p)  # the contrast support and the labels come first
        rng.uniform(n)
        blocks = list(mo.class_rows(sample.mu, sample.labels, om, rng))
        assert all(b.flags.c_contiguous for b in blocks)
        rows = np.vstack(blocks)
        assert np.array_equal(sample.z, rows.T @ sample.labels.astype(float) / math.sqrt(n))

    def test_z_same_at_any_blas_thread_count(self):
        # at p % 4 != 0 and n = 251 one (n, p) product X'l moves its last
        # bits with the BLAS thread count; Z follows the one-thread sums
        out = []
        for threads in ("1", "2"):
            result = subprocess.run([sys.executable, "-c", _Z_SCRIPT], capture_output=True,
                                    text=True, timeout=120, env=_blas_env(threads))
            assert result.returncode == 0, result.stderr
            out.append(result.stdout.split())
        assert out[0][0] == out[1][0] == out[0][1]

    def test_z_vector_rejects_malformed_blocks(self):
        x = np.ones((3, 4))
        with pytest.raises(DomainError, match="2-d"):
            mo.z_vector([np.ones(4)], [1])
        with pytest.raises(DomainError, match="one width"):
            mo.z_vector([x, np.ones((1, 5))], [1] * 4)
        with pytest.raises(DomainError, match="labels have 2 entries"):
            mo.z_vector([x], [1, -1])
        with pytest.raises(DomainError, match="labels have 4 entries"):
            mo.z_vector([x], [1] * 4)
        with pytest.raises(DomainError, match="at least one"):
            mo.z_vector([], [])

    def test_peak_memory_is_one_block(self):
        # the training rows are summed into Z as they are drawn: one draw at
        # n = 251 holds O(p) and one 4-row block, not the 20 MB (n, p) rows;
        # no block is still held while the next is drawn (2.17 MB if one is)
        p = 10**4
        om = mo.PrecisionModel.block2(p, 0.5)
        om.sigma_diag()
        tracemalloc.start()
        try:
            sample = mo.gen_class_sample(p, 0.3, 1.2, 0.6, om, RngStream(38, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.n == 251
        assert peak < 2e6

    def test_labels_are_pm1(self):
        sample = mo.gen_class_sample(100, 0.5, 1.0, 0.5,
                                     mo.PrecisionModel.identity(100), RngStream(17, 0))
        assert set(np.unique(sample.labels)) <= {-1, 1}


def _banded_dense(sigma):
    """A BandedSymmetric as a dense symmetric array."""
    out = np.zeros((sigma.p, sigma.p))
    for d in range(sigma.bandwidth + 1):
        idx = np.arange(sigma.p - d)
        out[idx + d, idx] = out[idx, idx + d] = sigma.bands[d, : sigma.p - d]
    return out


def _one_shot_sample(sigma, n, rng):
    """One (n, p) draw times sigma's factor, taken from rng after the band
    uniforms that gen_banded_sample draws first."""
    for k in range(1, sigma.bandwidth + 1):
        rng.uniform(sigma.p - k)
    return chol_banded(sigma).right_apply(rng.standard_normal((n, sigma.p)))


class TestBandedSample:
    def test_no_bands_identity(self):
        blocks, sigma = mo.gen_banded_sample(50, 10, [], RngStream(18, 0))
        assert np.vstack(list(blocks)).shape == (10, 50)
        assert np.allclose(_banded_dense(sigma), np.eye(50))
        assert mo.banded_true_bandwidth(sigma) == 0

    def test_zero_epsilon_band(self):
        _, sigma = mo.gen_banded_sample(30, 5, [(0.0, 0.5)], RngStream(19, 0))
        assert np.allclose(_banded_dense(sigma), np.eye(30))

    def test_pd_rate_without_repair(self, monkeypatch):
        monkeypatch.setattr(mo, "SHRINK_RETRIES", 0)
        ok = 0
        trials = 40
        for k in range(trials):
            try:
                mo.gen_banded_sample(2000, 20, [(0.01, 0.275)] * 2,
                                     RngStream(20, 0).child(k))
                ok += 1
            except GenerationError:
                pass
        assert ok / trials >= 0.95

    def test_true_bandwidth(self):
        _, sigma = mo.gen_banded_sample(500, 5, [(0.05, 0.3), (0.05, 0.3)],
                                        RngStream(21, 0))
        assert mo.banded_true_bandwidth(sigma) == 2

    def test_sample_covariance_tracks_sigma(self):
        blocks, sigma = mo.gen_banded_sample(40, 4000, [(0.3, 0.3)], RngStream(22, 0))
        samples = np.vstack(list(blocks))
        emp = samples.T @ samples / samples.shape[0]
        assert np.max(np.abs(emp - _banded_dense(sigma))) <= 0.12

    def test_deterministic(self):
        a, _ = mo.gen_banded_sample(100, 8, [(0.05, 0.2)], RngStream(23, 0))
        b, _ = mo.gen_banded_sample(100, 8, [(0.05, 0.2)], RngStream(23, 0))
        assert np.array_equal(np.vstack(list(a)), np.vstack(list(b)))

    @pytest.mark.parametrize("p,n,band_spec", [
        (1001, 70, [(0.1, 0.3)] * 3),        # odd p; n not a multiple of 8 rows
        (1001, 5, [(0.1, 0.3)] * 2),         # n below one block
        (4 * BLOCK_VALUES + 3, 3, [(0.1, 0.3)]),  # one block under four rows
        (5000, 200, []),                     # bandwidth 0
        (5000, 13, [(0.02, 0.3)] * 3),       # the bench shape, 4 rows per block
    ])
    def test_blocked_rows_equal_one_shot_draw(self, p, n, band_spec):
        # the row blocks draw and sum exactly what one (n, p) draw times the
        # factor gives, on the same stream
        blocks, sigma = mo.gen_banded_sample(p, n, band_spec, RngStream(24, 1))
        assert np.array_equal(np.vstack(list(blocks)),
                              _one_shot_sample(sigma, n, RngStream(24, 1)))

    def test_blocked_rows_equal_one_shot_draw_after_shrink(self):
        # a tridiagonal coupling of 0.6 is not positive definite at p = 51;
        # two shrinks by 0.9 make it so
        blocks, sigma = mo.gen_banded_sample(51, 40, [(1.0, 0.6)], RngStream(25, 0))
        assert np.allclose(sigma.offdiagonal(1), 0.6 * 0.9**2)
        assert np.array_equal(np.vstack(list(blocks)),
                              _one_shot_sample(sigma, 40, RngStream(25, 0)))

    @pytest.mark.parametrize("p,n", [(1001, 70), (5000, 200), (4 * BLOCK_VALUES + 3, 3)])
    def test_normals_drawn_in_blocks(self, p, n):
        sizes = []

        class Counting(RngStream):
            def standard_normal(self, size=None):
                sizes.append(size)
                return super().standard_normal(size)

        blocks, _ = mo.gen_banded_sample(p, n, [(0.05, 0.3)] * 2, Counting(26, 0))
        assert sizes == []  # each block's normals are drawn when it is reached
        shapes = [block.shape for block in blocks]
        assert sizes == shapes == [(hi - lo, p) for lo, hi in row_blocks(n, p)]
        assert list(blocks) == []  # one pass

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(DomainError, match="tau must be finite"):
            mo.gen_banded_sample(50, 10, [(0.1, 0.3), (0.1, tau)], RngStream(27, 0))


class TestPairedDesign:
    def test_zero_epsilon(self):
        beta = mo.draw_paired_beta(10, 0.0, 3.0, RngStream(24, 0))
        assert np.all(beta == 0)
        assert beta.shape == (10,)

    def test_expected_pair_count(self):
        counts = []
        for k in range(40):
            beta = mo.draw_paired_beta(1000, 0.05, 1.0, RngStream(25, 0).child(k))
            counts.append(np.count_nonzero(beta[0::2]))
        # nonzero pairs arrive at rate (p/2) * epsilon = 25
        assert abs(np.mean(counts) - 25.0) <= 3 * math.sqrt(25.0 / 40)

    def test_pair_patterns(self):
        beta = mo.draw_paired_beta(2000, 0.2, 2.0, RngStream(27, 0))
        odd, even = beta[0::2], beta[1::2]
        # the second pair slot is nonzero only when the first is
        assert np.all(odd[even != 0] != 0)

    def test_noise_pair_correlation(self):
        # the ranking experiment draws its noise as sym_sqrt(Sigma) @ g
        h0 = -0.8
        n, p = 2000, 4
        g = RngStream(28, 0).standard_normal((n, p))
        noise = g @ sym_sqrt(mo.PrecisionModel.block2(p, h0).dense())
        emp = noise.T @ noise / n
        assert abs(emp[0, 1] - h0) <= 0.1
        assert abs(emp[0, 0] - 1.0) <= 0.1
        assert abs(emp[1, 2]) <= 0.1

    def test_odd_p_rejected(self):
        with pytest.raises(DomainError):
            mo.draw_paired_beta(5, 0.1, 1.0, RngStream(29, 0))

    @staticmethod
    def _reference(u, epsilon, tau):
        """The three-mask formula: both w.p. eps/2, single w.p. eps/2."""
        beta = np.zeros(2 * u.size)
        both = u < epsilon / 2.0
        single = (u >= epsilon / 2.0) & (u < epsilon)
        beta[0::2] = np.where(both | single, float(tau), 0.0)
        beta[1::2] = np.where(both, float(tau), 0.0)
        return beta

    @pytest.mark.parametrize("epsilon", [0.0, 5e-324, 0.05, 1.0])
    def test_masks_match_three_mask_formula(self, epsilon):
        for seed in range(200):
            beta = mo.draw_paired_beta(400, epsilon, -1.5, RngStream(36, seed))
            u = RngStream(36, seed).uniform(200)
            assert np.array_equal(beta.view(np.int64),
                                  self._reference(u, epsilon, -1.5).view(np.int64))

        class FixedUniform:
            def __init__(self, u):
                self.u = u

            def uniform(self, size):
                assert size == self.u.size
                return self.u

        # u exactly at eps/2 and eps and at their float neighbours
        edges = [epsilon / 2.0, epsilon]
        u = np.array([0.0] + edges + [np.nextafter(e, d) for e in edges
                                      for d in (-np.inf, np.inf)])
        u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))
        beta = mo.draw_paired_beta(2 * u.size, epsilon, 2.0, FixedUniform(u))
        assert np.array_equal(beta.view(np.int64),
                              self._reference(u, epsilon, 2.0).view(np.int64))

    def test_deterministic(self):
        a = mo.draw_paired_beta(20, 0.1, 2.0, RngStream(35, 0))
        b = mo.draw_paired_beta(20, 0.1, 2.0, RngStream(35, 0))
        assert np.array_equal(a, b)


class TestGeneratorDeterminism:
    def test_class_sample(self):
        om = mo.PrecisionModel.identity(60)
        a = mo.gen_class_sample(60, 0.4, 1.0, 0.5, om, RngStream(36, 0))
        b = mo.gen_class_sample(60, 0.4, 1.0, 0.5, om, RngStream(36, 0))
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.mu, b.mu)

