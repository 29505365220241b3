import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaincc

from rareweak.errors import (
    CapacityError,
    DegeneracyError,
    DomainError,
    FactorizationError,
    NotPositiveDefiniteError,
)
from rareweak import numerics as nu
from rareweak.graph import connected_components, graph_from_matrix
from rareweak.models import RegressionInstance

# High-precision oracle values, computed once with mpmath (40 digits) from
# series/continued-fraction expansions and quadrature of the chi-square
# density, then frozen here.
NORMAL_SF_1959964 = 0.02499999909644240430
CHISQ_SF_3_78147 = 0.05000062528476008979
# df -> (x, P(chi2_df > x)) across the range, the far tail included
CHISQ_SF_FAR_TAIL = {
    1: ([1e-20, 0.5, 30.0, 200.0, 700.0, 1000.0, 1135.4, 1300.0, 1400.0],
        [0.99999999992021154392, 0.47950012218695346232, 4.3204630578274972948e-8,
         2.088487583762544757e-45, 2.9902269751246203369e-154,
         1.7958327848007261946e-219, 6.6835403625511407767e-249,
         1.1303728441492742445e-284, 2.101014516264217495e-306]),
    2: ([1e-20, 0.5, 30.0, 200.0, 700.0, 1000.0, 1135.4, 1300.0, 1400.0],
        [0.99999999999999999999, 0.77880078307140486825, 3.0590232050182578837e-7,
         3.720075976020835963e-44, 9.9295903962649792963e-153,
         7.1245764067412855315e-218, 2.8250271340599168246e-247,
         5.1119519486511562468e-283, 9.8596765437597708567e-305]),
}


class TestNormalSf:
    def test_zero_is_half(self):
        assert nu.normal_sf(0.0) == 0.5

    def test_quantile_value(self):
        v = nu.normal_sf(1.959964)
        assert abs(v - 0.025) <= 1e-6
        assert abs(v - NORMAL_SF_1959964) <= 1e-12

    def test_extreme_tail(self):
        assert nu.normal_sf(40.0) < 1e-300
        assert nu.normal_sf(-40.0) == 1.0 - nu.normal_sf(40.0)

    def test_vectorized(self):
        x = np.array([-1.0, 0.0, 1.0])
        out = nu.normal_sf(x)
        assert out.shape == (3,)
        assert out[1] == 0.5

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            nu.normal_sf(math.nan)
        with pytest.raises(DomainError):
            nu.normal_sf(np.array([0.0, math.inf]))

    def test_complement_identity_grid(self):
        x = np.linspace(-8, 8, 401)
        total = nu.normal_sf(x) + nu.normal_sf(-x)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    @given(st.floats(-8, 8))
    @settings(max_examples=60, deadline=None)
    def test_complement_identity_property(self, x):
        assert abs(nu.normal_sf(x) + nu.normal_sf(-x) - 1.0) <= 1e-12


class TestChisqSf:
    def test_df2_closed_form(self):
        assert abs(nu.chisq_sf(2, 2.0) - math.exp(-1.0)) <= 1e-12

    def test_df1_is_squared_normal(self):
        assert abs(nu.chisq_sf(1, 4.0) - 2 * nu.normal_sf(2.0)) <= 1e-12

    def test_df3_quantile(self):
        v = nu.chisq_sf(3, 7.8147)
        assert abs(v - 0.05) <= 1e-4
        assert abs(v - CHISQ_SF_3_78147) <= 1e-9

    def test_strictly_decreasing(self):
        for df in (1, 2, 5, 20):
            grid = np.linspace(0.0, 80.0, 200)
            vals = nu.chisq_sf(df, grid)
            assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nu.chisq_sf(2, -0.5)
        with pytest.raises(DomainError):
            nu.chisq_sf(0, 1.0)
        with pytest.raises(DomainError):
            nu.chisq_sf(2.5, 1.0)

    @pytest.mark.parametrize("df", [1, 2, 3, 7])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_nonfinite_and_negative_rejected(self, df, bad):
        with pytest.raises(DomainError):
            nu.chisq_sf(df, bad)
        with pytest.raises(DomainError):
            nu.chisq_sf(df, np.array([1.0, bad]))

    @pytest.mark.parametrize("df", [1, 2])
    def test_closed_forms_match_gammaincc(self, df):
        # 0, tiny x, moderate x up to 1000, and the underflow tail
        x = np.concatenate([[0.0, 5e-324, 1e-300, 1e-20, 1e-10],
                            np.geomspace(1e-8, 1.0, 400), np.linspace(0.0, 1000.0, 100001),
                            np.geomspace(1500.0, 1e6, 200)])
        got = nu.chisq_sf(df, x)
        ref = gammaincc(df / 2.0, x / 2.0)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)
        assert np.all(got[x >= 1500.0] == 0.0) and np.all(ref[x >= 1500.0] == 0.0)
        assert got[0] == 1.0

    @pytest.mark.parametrize("df", [1, 2])
    def test_closed_forms_far_tail(self, df):
        # beyond x = 1000 gammaincc itself drifts from the true tail (1.05e-13
        # relative near x = 1135 at df = 1), so agreement with it is looser
        # there, and CHISQ_SF_FAR_TAIL holds the reference
        x = np.linspace(1000.0, 1408.0, 40001)  # results stay normal doubles
        got = nu.chisq_sf(df, x)
        assert np.all(np.abs(got - gammaincc(df / 2.0, x / 2.0)) <= 2e-13 * got)
        pts, truth = (np.array(v) for v in CHISQ_SF_FAR_TAIL[df])
        assert np.all(np.abs(nu.chisq_sf(df, pts) - truth) <= 1e-15 * truth)

    @pytest.mark.parametrize("df", [3, 4, 7, 30])
    def test_gammaincc_kept_from_df3(self, df):
        x = np.concatenate([[0.0, 1e-20], np.linspace(0.0, 2000.0, 4001)])
        assert np.array_equal(nu.chisq_sf(df, x), gammaincc(df / 2.0, x / 2.0))

    @pytest.mark.parametrize("df", [1, 2, 3])
    def test_scalars_return_float(self, df):
        for x in (0, 2.5, np.float64(2.5), np.array(2.5)):
            assert type(nu.chisq_sf(df, x)) is float
        assert nu.chisq_sf(df, [2.5]).shape == (1,)


class TestRngStream:
    def test_determinism(self):
        a = nu.RngStream(1, 0).standard_normal(3)
        b = nu.RngStream(1, 0).standard_normal(3)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = nu.RngStream(1, 0).standard_normal(100)
        b = nu.RngStream(1, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_children_reproducible_and_distinct(self):
        s = nu.RngStream(9, 4)
        c1 = s.child(2).standard_normal(8)
        c2 = nu.RngStream(9, 4).child(2).standard_normal(8)
        c3 = s.child(3).standard_normal(8)
        assert np.array_equal(c1, c2)
        assert not np.array_equal(c1, c3)

    def test_empty_vector(self):
        assert nu.RngStream(1, 0).standard_normal(0).shape == (0,)

    def test_large_sample_mean(self):
        v = nu.RngStream(123, 0).standard_normal(10**6)
        assert abs(v.mean()) <= 5.0 / math.sqrt(10**6)

    @pytest.mark.parametrize("root,path", [(0, (0,)), (7, (1,)), (2**64 - 1, (3, 5, 2))])
    def test_draws_match_hand_built_philox(self, root, path):
        stream = nu.RngStream(root, path[0])
        for k in path[1:]:
            stream = stream.child(k)
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(root, spawn_key=path)))
        assert np.array_equal(stream.standard_normal(50), gen.standard_normal(50))
        assert np.array_equal(stream.uniform((4, 3)), gen.random((4, 3)))
        assert np.array_equal(stream.standard_normal(7), gen.standard_normal(7))

    def test_deriving_children_builds_no_generator(self):
        parent = nu.RngStream(5, 1)
        child = parent.child(3).child(4)
        assert parent._generator is None and child._generator is None
        child.uniform(2)
        assert parent._generator is None and child._generator is not None

    def test_children_of_shared_parent_across_threads(self):
        # workers derive children of one shared parent that never draws, as
        # the ranking runner's case streams do; the draws equal serial ones
        def draws(parent, k):
            rng = parent.child(k)
            return np.concatenate([rng.uniform(5), rng.standard_normal(5)])

        serial = [draws(nu.RngStream(11, 1).child(0), k) for k in range(64)]
        shared = nu.RngStream(11, 1).child(0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(lambda k: draws(shared, k), range(64)))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))
        assert np.array_equal(shared.standard_normal(4),
                              nu.RngStream(11, 1).child(0).standard_normal(4))

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            nu.RngStream(-1)
        with pytest.raises(DomainError):
            nu.RngStream(1, -2)
        with pytest.raises(DomainError):
            nu.RngStream(1).child(-1)


def _random_banded_pd(p, bw, rng):
    a = np.zeros((p, p))
    for d in range(1, bw + 1):
        vals = rng.uniform(p - d) * 0.3
        idx = np.arange(p - d)
        a[idx + d, idx] = vals
        a[idx, idx + d] = vals
    np.fill_diagonal(a, 1.0 + np.abs(a).sum(axis=1))
    return a


def _banded(a, bandwidth):
    """The lower bands 0..bandwidth of a dense symmetric array."""
    p = a.shape[0]
    bands = np.zeros((bandwidth + 1, p))
    for d in range(bandwidth + 1):
        bands[d, : p - d] = np.diag(a, -d)
    return nu.BandedSymmetric(bands)


def _cholesky_dense(fac):
    """The lower-triangular factor L of a BandedCholesky as a dense array."""
    out = np.zeros((fac.p, fac.p))
    for d in range(fac.bandwidth + 1):
        idx = np.arange(fac.p - d)
        out[idx + d, idx] = fac.bands[d, : fac.p - d]
    return out


class TestRowBlocks:
    @given(st.integers(1, 3000), st.integers(1, 3 * nu.BLOCK_VALUES))
    @settings(max_examples=200, deadline=None)
    def test_blocks_tile_rows_in_fours(self, n, p):
        # full blocks of a multiple of 4 rows; the last one takes the
        # remainder, and is short only when n is below one full block
        full = max(4, nu.BLOCK_VALUES // p // 4 * 4)
        blocks = nu.row_blocks(n, p)
        assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n))
        heights = [hi - lo for lo, hi in blocks]
        assert full % 4 == 0 and all(h == full for h in heights[:-1])
        assert min(n, full) <= heights[-1] < 2 * full

    def test_one_row_is_one_block(self):
        assert nu.row_blocks(1, 10**4) == [(0, 1)]
        assert nu.row_blocks(1, 1) == [(0, 1)]


class TestCholBanded:
    def test_identity(self):
        eye = np.eye(6)
        fac = nu.chol_banded(_banded(eye, 3))
        assert np.allclose(_cholesky_dense(fac), eye)

    def test_two_by_two(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        fac = nu.chol_banded(_banded(sigma, 1))
        expected = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])
        assert np.allclose(_cholesky_dense(fac), expected)

    def test_random_banded_residual(self):
        rng = nu.RngStream(17, 0)
        sigma = _random_banded_pd(50, 3, rng)
        fac = nu.chol_banded(_banded(sigma, 3))
        ll = _cholesky_dense(fac) @ _cholesky_dense(fac).T
        assert np.max(np.abs(ll - sigma)) <= 1e-8

    def test_right_apply_matches_dense(self):
        rng = nu.RngStream(18, 0)
        sigma = _random_banded_pd(20, 2, rng)
        fac = nu.chol_banded(_banded(sigma, 2))
        dense = _cholesky_dense(fac)
        z = rng.standard_normal((5, 20))
        assert np.allclose(fac.right_apply(z), z @ dense.T)

    @pytest.mark.parametrize("bandwidth", [0, 1, 2, 3])
    def test_right_apply_matches_zero_start_loop(self, bandwidth):
        rng = nu.RngStream(19, bandwidth)
        p = 30
        sigma = _random_banded_pd(p, bandwidth, rng) + np.diag(rng.uniform(p))
        fac = nu.chol_banded(_banded(sigma, bandwidth))
        z = rng.standard_normal((7, p))
        expected = np.zeros_like(z)
        for d in range(bandwidth + 1):
            expected[:, d:] += z[:, : p - d] * fac.bands[d, : p - d]
        assert np.array_equal(fac.right_apply(z), expected)

    def test_non_pd_reports_pivot(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(FactorizationError) as exc:
            nu.chol_banded(_banded(sigma, 1))
        assert exc.value.pivot == 1

    def test_dense_input_rejected(self):
        with pytest.raises(DomainError, match="BandedSymmetric"):
            nu.chol_banded(np.eye(4))

    @pytest.mark.parametrize("d,i,value", [(0, 1, math.nan), (1, 0, math.inf),
                                           (1, 1, -math.inf)])
    def test_non_finite_band_rejected(self, d, i, value):
        # a NaN band used to give a NaN factor with LAPACK info 0
        bands = np.array([[1.0, 1.0, 1.0], [0.1, 0.1, 0.0]])
        bands[d, i] = value
        with pytest.raises(DomainError, match=rf"band entry \({d}, {i}\) is"):
            nu.BandedSymmetric(bands)

    def test_ignored_band_slot_not_checked(self):
        # the trailing slot of each subdiagonal is not part of the matrix
        bands = np.array([[1.0, 1.0, 1.0], [0.1, 0.1, math.nan]])
        fac = nu.chol_banded(nu.BandedSymmetric(bands))
        assert np.all(np.isfinite(fac.bands[:, :2]))


def _block2_dense(p, h0):
    a = np.eye(p)
    i = np.arange(0, p, 2)
    a[i, i + 1] = h0
    a[i + 1, i] = h0
    return a


class TestSymSqrt:
    def test_identity(self):
        assert np.allclose(nu.sym_sqrt(np.eye(5)), np.eye(5))

    def test_block_diagonal_value(self):
        h0 = 0.5
        s = nu.sym_sqrt(_block2_dense(4, h0))
        expected = 0.5 * (math.sqrt(1 + h0) + math.sqrt(1 - h0))
        assert np.allclose(np.diag(s), expected, atol=1e-12)

    def test_random_pd_roundtrip(self):
        rng = np.random.Generator(np.random.Philox(5))
        for p in (20, 200):
            m = rng.standard_normal((p, p))
            a = m @ m.T / p + np.eye(p)
            s = nu.sym_sqrt(a)
            assert np.max(np.abs(s @ s - a)) <= 1e-8
            assert np.max(np.abs(s - s.T)) <= 1e-10

    def test_snr_ordering_across_h0(self):
        # diagonal of the square root sits between the marginal scale and 1
        for h0 in np.linspace(-0.99, 0.99, 199):
            omega = _block2_dense(4, h0)
            s = nu.sym_sqrt(omega)
            brute = math.sqrt(1.0 - h0 * h0)
            d = s[0, 0]
            assert brute <= d + 1e-10
            assert d <= 1.0 + 1e-10

    def test_component_cap(self, monkeypatch):
        monkeypatch.setattr(nu, "SYM_SQRT_COMPONENT_CAP", 1)
        with pytest.raises(CapacityError):
            nu.sym_sqrt(_block2_dense(8, 0.3))

    def test_not_pd(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            nu.sym_sqrt(a)

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(DomainError):
            nu.sym_sqrt(a)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_named(self, value):
        a = np.eye(4)
        a[3, 0] = a[0, 3] = value
        with pytest.raises(DomainError, match=r"entry \(0, 3\)"):
            nu.sym_sqrt(a)

    def test_singular_psd_component_named(self):
        # {1, 3} holds [[1, 1], [1, 1]] (eigenvalues 0 and 2); the rest is I
        a = np.eye(5)
        a[1, 3] = a[3, 1] = 1.0
        with pytest.raises(NotPositiveDefiniteError, match="component starting at 1 "):
            nu.sym_sqrt(a)

    def test_matches_component_loop_on_general_input(self):
        # components {0, 4, 7, 9}, {1, 6}, {2, 5, 10} and singletons {3}, {8};
        # non-unit diagonal, strictly diagonally dominant, so PD
        rng = np.random.Generator(np.random.Philox(11))
        a = np.diag(rng.uniform(0.5, 3.0, 11))
        for i, j in ((0, 4), (4, 7), (7, 9), (0, 9), (1, 6), (2, 5), (5, 10)):
            a[i, j] = a[j, i] = rng.uniform(-0.2, 0.2)
        comps = [np.asarray(c) for c in connected_components(graph_from_matrix(a))]
        assert sorted(c.size for c in comps) == [1, 1, 2, 3, 4]
        ref = np.zeros_like(a)
        for comp in comps:
            w, v = np.linalg.eigh(a[np.ix_(comp, comp)])
            ref[np.ix_(comp, comp)] = (v * np.sqrt(w)) @ v.T
        assert np.array_equal(nu.sym_sqrt(a), ref)


def _project_norm_sq(x, w, index_set):
    """||P^I w||^2 for the design columns I: restricted_quadform on the
    restricted Gram X_I'X_I and correlations X_I'w."""
    cols = x[:, list(index_set)]
    return nu.restricted_quadform(cols.T @ cols, cols.T @ w, index_set=index_set)


class TestProjections:
    def test_orthonormal_singleton(self):
        x = np.eye(4)
        w = np.array([0.3, -1.2, 0.7, 2.0])
        for j in range(4):
            assert abs(_project_norm_sq(x, w, [j]) - w[j] ** 2) <= 1e-12

    def test_full_rank_full_projection(self):
        rng = np.random.Generator(np.random.Philox(6))
        x = rng.standard_normal((5, 5)) + np.eye(5)
        w = rng.standard_normal(5)
        val = _project_norm_sq(x, w, range(5))
        assert abs(val - w @ w) <= 1e-8

    def test_correlated_pair_hand_value(self):
        # two unit columns with inner product 0.5; response equals column 1
        x = np.array([[1.0, 0.5], [0.0, math.sqrt(0.75)]])
        w = x[:, 0]
        assert abs(_project_norm_sq(x, w, [0, 1]) - 1.0) <= 1e-12

    def test_monotone_in_index_set(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(10):
            x = rng.standard_normal((12, 6))
            w = rng.standard_normal(12)
            small = _project_norm_sq(x, w, [1, 3])
            big = _project_norm_sq(x, w, [1, 3, 4, 5])
            assert small <= big + 1e-10

    def test_gram_mode_matches_design_mode(self):
        rng = np.random.Generator(np.random.Philox(8))
        x = rng.standard_normal((10, 5))
        w = rng.standard_normal(10)
        inst = RegressionInstance(gram=x.T @ x, xtw=x.T @ w)
        for idx in ([0], [1, 4], [0, 2, 3]):
            a = _project_norm_sq(x, w, idx)
            b = inst.quadform(idx)
            assert abs(a - b) <= 1e-9

    def test_degenerate_carries_index_set(self):
        x = np.zeros((4, 2))
        x[:, 0] = [1.0, 0, 0, 0]
        x[:, 1] = x[:, 0]  # duplicate column
        with pytest.raises(DegeneracyError) as exc:
            _project_norm_sq(x, np.ones(4), [0, 1])
        assert exc.value.index_set == (0, 1)

    def test_empty_index_set_is_domain_error(self):
        with pytest.raises(DomainError):
            nu.restricted_quadform(np.zeros((0, 0)), np.zeros(0))
        with pytest.raises(DomainError):
            RegressionInstance(gram=np.eye(3), xtw=np.ones(3)).quadform([])
