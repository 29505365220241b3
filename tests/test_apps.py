import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from rareweak.errors import DegeneracyError, DomainError
from rareweak import apps, detect, select
from rareweak import models as mo
from rareweak.graph import enum_connected_subgraphs, graph_from_matrix
from rareweak.numerics import (RngStream, check_gram, chisq_sf, gram_rank_deficient,
                               sym_sqrt)


class TestOffdiagonals:
    def test_sample_offdiagonals_match_dense(self):
        # one block, and splits into several blocks of equal and unequal
        # heights (one of a single row), all give the bands of dense X'X / n
        x = RngStream(1, 0).standard_normal((20, 6))
        s = x.T @ x / 20
        for cuts in ([], [1], [4, 8, 12, 16], [3, 4, 11]):
            n, bands = apps.sample_cov_bands(np.split(x, cuts), 3)
            assert n == 20 and bands.shape == (4, 6)
            for k in range(4):
                assert np.allclose(bands[k, : 6 - k], np.diagonal(s, offset=k))
                assert np.all(bands[k, 6 - k:] == 0.0)

    def test_block_sums_close_to_one_array(self):
        # per-block sums added in block order differ from one (n, p) sum in
        # the last bits only, on the scale sqrt(S_ii S_jj) that studentizes
        # each entry
        x = RngStream(1, 1).standard_normal((200, 500))
        _, one = apps.sample_cov_bands([x], 10)
        _, blocked = apps.sample_cov_bands(np.split(x, range(4, 200, 4)), 10)
        diag = one[0]
        for k in range(11):
            scale = np.sqrt(diag[: 500 - k] * diag[k:])
            gap = np.abs(blocked[k, : 500 - k] - one[k, : 500 - k]) / scale
            assert gap.max() <= 1e-14

    @pytest.mark.parametrize("b0", [0, 6])
    def test_b0_outside_columns_rejected(self, b0):
        with pytest.raises(DomainError, match=r"b0 must lie in \[1, p-1\]"):
            apps.sample_cov_bands([np.ones((5, 6))], b0)


class TestEstimateBandwidth:
    def setup_method(self):
        self.table = detect.critical_value(
            400, [0.05 / 5], variant="hcplus", num_null_reps=2000,
            rng=RngStream(2, 0))

    def test_diagonal_truth_level(self):
        hits = 0
        trials = 40
        for k in range(trials):
            x = RngStream(3, 0).child(k).standard_normal((300, 400))
            b_hat = apps.estimate_bandwidth([x], 5, 0.05, self.table)
            hits += b_hat == 0
        assert hits / trials >= 1 - 0.05 - 2 * math.sqrt(0.05 * 0.95 / trials)

    def test_strong_bands_recovered(self):
        recovered = 0
        for k in range(10):
            blocks, sigma = mo.gen_banded_sample(
                400, 300, [(0.05, 0.4), (0.05, 0.4)], RngStream(4, 0).child(k))
            b_hat = apps.estimate_bandwidth(blocks, 5, 0.05, self.table)
            recovered += b_hat == mo.banded_true_bandwidth(sigma)
        assert recovered >= 8

    def test_b_hat_never_exceeds_b0(self):
        for k in range(5):
            x = RngStream(5, 0).child(k).standard_normal((50, 400))
            b_hat = apps.estimate_bandwidth([x], 5, 0.05, self.table)
            assert 0 <= b_hat <= 5

    def test_validation(self):
        x = np.zeros((1, 400))
        with pytest.raises(DomainError):
            apps.estimate_bandwidth([x], 3, 0.05, self.table)
        ohc_table = detect.critical_value(400, [0.01], variant="ohc",
                                          num_null_reps=200, rng=RngStream(6, 0))
        with pytest.raises(DomainError):
            apps.estimate_bandwidth([np.zeros((5, 400))], 3, 0.05, ohc_table)

    @pytest.mark.parametrize("shape", [(400,), (2, 50, 400)])
    def test_samples_not_2d_rejected(self, shape):
        with pytest.raises(DomainError, match="2-d"):
            apps.estimate_bandwidth([np.ones(shape)], 5, 0.05, self.table)

    def test_zero_variance_column_named(self):
        x = RngStream(8, 0).standard_normal((50, 400))
        x[:, 7] = 0.0
        with pytest.raises(DomainError, match="column 7 "):
            apps.estimate_bandwidth([x], 5, 0.05, self.table)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200])
    def test_non_finite_variance_column_named(self, value):
        # 1e200 is finite, but its square overflows the sample variance
        x = RngStream(8, 1).standard_normal((50, 400))
        x[13, 123] = value
        with pytest.raises(DomainError, match="column 123 "):
            apps.estimate_bandwidth([x], 5, 0.05, self.table)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e200, 1e154])
    def test_non_finite_variance_column_named_across_blocks(self, value):
        # +inf in one block and -inf in another make a NaN sum, and 1e154
        # squares to a finite block sum that overflows only when two blocks
        # are added; either way the column is named and nothing warns first
        x = RngStream(8, 2).standard_normal((50, 400))
        x[13, 123], x[40, 123] = value, -value
        with pytest.raises(DomainError, match="column 123 "):
            apps.estimate_bandwidth(np.split(x, [20, 30]), 5, 0.05, self.table)

    def test_one_dimensional_block_rejected(self):
        blocks = [np.ones((3, 400)), np.ones(400)]
        with pytest.raises(DomainError, match="2-d"):
            apps.estimate_bandwidth(blocks, 5, 0.05, self.table)

    def test_unequal_block_widths_rejected(self):
        x = RngStream(8, 3).standard_normal((6, 400))
        with pytest.raises(DomainError, match="must all have 400 columns, got 399"):
            apps.estimate_bandwidth([x[:3], x[3:, :399]], 5, 0.05, self.table)

    @pytest.mark.parametrize("heights", [[], [1], [1, 0], [0, 1, 0]])
    def test_fewer_than_two_rows_rejected(self, heights):
        blocks = [np.ones((h, 400)) for h in heights]
        with pytest.raises(DomainError, match="at least two sample rows"):
            apps.estimate_bandwidth(blocks, 5, 0.05, self.table)

    @pytest.mark.parametrize("seed", range(4))
    def test_streamed_blocks_estimate_as_one_array(self, seed):
        # the estimate from gen_banded_sample's stream equals the estimate
        # from the same rows stacked into one block
        spec = [(0.05, 0.25), (0.05, 0.25)]
        blocks, _ = mo.gen_banded_sample(400, 60, spec, RngStream(10, seed))
        stacked, _ = mo.gen_banded_sample(400, 60, spec, RngStream(10, seed))
        assert (apps.estimate_bandwidth(blocks, 5, 0.05, self.table)
                == apps.estimate_bandwidth([np.vstack(list(stacked))], 5, 0.05,
                                           self.table))

    def test_peak_memory_is_bands_and_one_block(self):
        # one paper-shape replicate holds S_n's b0 + 1 bands and one row
        # block, under the 8 MB of its (n, p) sample
        p, n, b0 = 5000, 200, 10
        table = detect.critical_value(p, [0.05 / b0], variant="hcplus",
                                      num_null_reps=100, rng=RngStream(11, 0))
        tracemalloc.start()
        try:
            blocks, _ = mo.gen_banded_sample(p, n, [(0.02, 0.3)] * 2, RngStream(11, 1))
            apps.estimate_bandwidth(blocks, b0, 0.05, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_variance_product_overflow_rejected(self):
        # variances near 1e306 are finite, but their products are not; the
        # estimate used to drop to 0 with only a RuntimeWarning
        blocks, _ = mo.gen_banded_sample(400, 50, [(0.05, 0.4)] * 2,
                                         RngStream(9, 0))
        samples = np.vstack(list(blocks))
        apps.estimate_bandwidth([samples * 1e70], 5, 0.05, self.table)
        with pytest.raises(DomainError, match="columns 0 and 1 have sample variances"):
            apps.estimate_bandwidth([samples * 1e153], 5, 0.05, self.table)

    def test_mismatched_table_rejected(self):
        # the table is checked against the sample's column count and alpha0
        with pytest.raises(DomainError):
            apps.estimate_bandwidth([RngStream(7, 0).standard_normal((50, 300))],
                                    5, 0.05, self.table)
        with pytest.raises(DomainError):
            apps.estimate_bandwidth([RngStream(7, 1).standard_normal((50, 400))],
                                    5, 0.05, self.table, alpha0=0.2)


def _instance_from_design(x, w):
    return mo.RegressionInstance(gram=x.T @ x, xtw=x.T @ w)


class TestRankingUs:
    def test_matched_column_ranked_first(self):
        x = np.eye(6)
        w = x[:, 3] * 2.0
        scores = apps.rank_features_us(_instance_from_design(x, w))
        assert int(np.argmin(scores)) == 3

    def test_zero_response_all_tied_at_one(self):
        x = np.eye(4)
        scores = apps.rank_features_us(_instance_from_design(x, np.zeros(4)))
        assert np.allclose(scores, 1.0)

    def test_identity_order_matches_magnitude(self):
        w = np.array([0.3, -2.0, 1.1, 0.0, -0.7])
        scores = apps.rank_features_us(_instance_from_design(np.eye(5), w))
        assert np.array_equal(np.argsort(scores, kind="stable"),
                              np.argsort(-np.abs(w), kind="stable"))


class TestRankingGs:
    def test_m0_one_identity_matches_us_order(self):
        w = RngStream(7, 0).standard_normal(12)
        inst = _instance_from_design(np.eye(12), w)
        us = apps.rank_features_us(inst)
        gs = apps.rank_features_gs(inst, _plan(np.eye(12), 0.0, 1), us)
        assert np.array_equal(np.argsort(us), np.argsort(gs))

    def test_m0_one_identity_equals_us(self):
        # with m0 = 1 every subgraph is a singleton, so GS is a copy of the
        # US scores it starts from, from zero responses to the far tail
        scale = np.array([[0.0], [1e-8], [1.0], [5.0], [30.0]])
        xtw = RngStream(7, 1).standard_normal((5, 12)) * scale
        inst = mo.RegressionInstance(gram=np.eye(12), xtw=xtw)
        us = apps.rank_features_us(inst)
        gs = apps.rank_features_gs(inst, _plan(np.eye(12), 0.0, 1), us)
        assert np.array_equal(gs, us) and gs is not us

    def test_gs_score_never_above_singleton(self):
        sigma = mo.PrecisionModel.block2(10, -0.6).dense()
        x = sym_sqrt(sigma)
        w = x @ (np.array([3.0, 3.0] + [0.0] * 8)) + RngStream(8, 0).standard_normal(10)
        inst = _instance_from_design(x, w)
        gs = apps.rank_features_gs(inst, _plan(inst.gram, 0.3, 2), apps.rank_features_us(inst))
        from rareweak.numerics import chisq_sf

        diag = inst.gram_diag()
        singles = chisq_sf(1, np.asarray(inst.xtw) ** 2 / diag)
        assert np.all(gs <= singles + 1e-12)

    def test_near_singular_pair_screened_like_larger_subgraphs(self):
        # eigenvalues 1e-10 and 2 - 1e-10: rank deficient under check_gram, so
        # the pair adds no P-value and each feature keeps its singleton score
        gram = np.array([[1.0, 1.0 - 1e-10], [1.0 - 1e-10, 1.0]])
        with pytest.raises(DegeneracyError):
            check_gram(gram)
        inst = mo.RegressionInstance(gram=gram, xtw=np.array([1.0, -1.0]))
        gs = apps.rank_features_gs(inst, _plan(gram, 0.0, 2), apps.rank_features_us(inst))
        assert np.array_equal(gs, chisq_sf(1, np.ones(2)))

    def test_cancellation_case_gs_beats_us(self):
        p, h0, tau, eps = 400, -0.8, 4.0, 0.05
        sigma = mo.PrecisionModel.block2(p, h0).dense()
        ssqrt = sym_sqrt(sigma)
        plan = _plan(sigma, 0.5, 2)
        gaps = []
        for k in range(30):
            rng = RngStream(9, 0).child(k)
            beta = mo.draw_paired_beta(p, eps, tau, rng)
            if not beta.any():
                continue
            xtw = sigma @ beta + ssqrt @ rng.standard_normal(p)
            inst = mo.RegressionInstance(gram=sigma, xtw=xtw)
            truth = beta != 0
            us = apps.rank_features_us(inst)
            auc_us = apps.roc_curve(us, truth)
            auc_gs = apps.roc_curve(apps.rank_features_gs(inst, plan, us), truth)
            gaps.append(auc_gs - auc_us)
        assert np.mean(gaps) > 0.05


def _plan(gram, delta, m0):
    return select.gs_plan(gram, graph_from_matrix(gram, delta), m0)


def _gs_reference(inst, gram, delta, m0):
    """rank_features_gs one subgraph at a time, straight from its definition."""
    dense = gram.toarray() if sp.issparse(gram) else gram
    b = inst.xtw
    scores = np.ones(inst.p)
    for sub in enum_connected_subgraphs(graph_from_matrix(gram, delta), m0):
        if len(sub) == 1:
            quad = b[sub[0]] ** 2 / dense[sub[0], sub[0]]
        elif len(sub) == 2:
            i, j = sub
            if gram_rank_deficient(np.linalg.eigvalsh(dense[np.ix_(sub, sub)])):
                continue
            gii, gjj, gij = dense[i, i], dense[j, j], dense[i, j]
            quad = ((gjj * b[i] ** 2 - 2 * gij * b[i] * b[j] + gii * b[j] ** 2)
                    / (gii * gjj - gij * gij))
        else:
            try:
                quad = inst.quadform(sub)
            except DegeneracyError:
                continue
        pv = chisq_sf(len(sub), quad)
        for j in sub:
            scores[j] = min(scores[j], pv)
    return scores


class TestGsPlan:
    @staticmethod
    def _gram(sparse):
        # a near-singular pair {0, 1}, a chain 2-3-...-9 (connected triples)
        # with a weak link to cut at delta = 0.2, and a singleton 10; the
        # chain and the singleton have distinct diagonal entries
        gram = np.diag(np.r_[1.0, 1.0, 1.0 + 0.15 * (np.arange(2, 11) % 4)])
        gram[0, 1] = gram[1, 0] = 1.0 - 1e-10
        for i, v in zip(range(2, 9), (0.3, -0.4, 0.1, 0.45, -0.25, 0.35, 0.3)):
            gram[i, i + 1] = gram[i + 1, i] = v
        return sp.csr_matrix(gram) if sparse else gram

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("m0", [1, 2, 3])
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_matches_per_subgraph_reference(self, sparse, m0, delta):
        gram = self._gram(sparse)
        xtw = RngStream(11, 0).standard_normal(11) + np.arange(11) % 3
        inst = mo.RegressionInstance(gram=gram, xtw=xtw)
        got = apps.rank_features_gs(inst, _plan(gram, delta, m0), apps.rank_features_us(inst))
        assert np.array_equal(got, _gs_reference(inst, gram, delta, m0))

    def test_plan_sizes(self):
        gram = self._gram(False)
        plan = _plan(gram, 0.0, 3)
        assert plan.p == 11 and np.array_equal(plan.single_diag, np.diag(gram))
        assert plan.ii.size == 8 and not plan.pair_ok[0] and plan.pair_ok[1:].all()
        assert all(len(sub) == 3 for sub in plan.larger) and len(plan.larger) == 6

    def test_plan_for_other_p_rejected(self):
        # us fits the responses, so the message names only the plan
        inst = mo.RegressionInstance(gram=np.eye(8), xtw=np.ones(8))
        with pytest.raises(DomainError, match=r"^plan is for p=6, instance has p=8$"):
            apps.rank_features_gs(inst, _plan(np.eye(6), 0.0, 2), apps.rank_features_us(inst))

    def test_plan_for_other_gram_rejected(self):
        # a plan of block2 at h0 = 0.5 would screen and rank an instance of
        # h0 = -0.9 at the same p differently from that instance's own plan
        p = 40
        own = mo.PrecisionModel.block2(p, -0.9)
        other = mo.PrecisionModel.block2(p, 0.5)
        inst = mo.regression_from_y(3.0 * RngStream(11, 3).standard_normal(p), own)
        tuning = select.default_gs_tuning(p, 0.4, 2.0, m0=2)
        us = apps.rank_features_us(inst)
        plan = select.gs_plan(other.omega, other.graph(), 2)
        assert plan.gram is other.omega
        with pytest.raises(DomainError, match="another Gram matrix"):
            select.gs_screen(inst, plan, tuning)
        with pytest.raises(DomainError, match="another Gram matrix"):
            apps.rank_features_gs(inst, plan, us)
        # a plan of an equal copy of the instance's Gram matrix is accepted
        plan = select.gs_plan(own.omega.copy(), own.graph(), 2)
        assert plan.gram is not inst.gram
        assert np.array_equal(select.gs_screen(inst, plan, tuning),
                              select.gs_screen(inst, own.graph(), tuning))
        apps.rank_features_gs(inst, plan, us)

    def test_pair_blocks_read_on_first_use(self):
        # gs_plan keeps the CSR Gram matrix; the pair blocks and their
        # degeneracy are read by the first scoring call and kept
        gram = self._gram(False)
        plan = _plan(gram, 0.0, 2)
        assert sp.isspmatrix_csr(plan.gram) and np.array_equal(plan.gram.toarray(), gram)
        assert "pair_grams" not in vars(plan) and "pair_ok" not in vars(plan)
        inst = mo.RegressionInstance(gram=gram, xtw=np.arange(11.0))
        apps.rank_features_gs(inst, plan, apps.rank_features_us(inst))
        pairs = np.column_stack([plan.ii, plan.jj])
        want = np.array([gram[np.ix_(pair, pair)] for pair in pairs])
        assert np.array_equal(vars(plan)["pair_grams"], want)
        assert np.array_equal(vars(plan)["pair_ok"], [False] + [True] * (len(pairs) - 1))
        assert plan.pair_grams is vars(plan)["pair_grams"]

    @pytest.mark.parametrize("shape", [(11,), (4, 11)])
    def test_from_us_matches_reference_off_unit_diagonal(self, shape):
        # the singletons' P-values depend on g_jj != 1; GS started from the US
        # scores equals the per-subgraph reference row by row, and never
        # writes into the US array (read-only here)
        gram = self._gram(True)
        assert np.unique(gram.diagonal()).size > 1
        inst = mo.RegressionInstance(gram=gram,
                                     xtw=RngStream(11, 1).standard_normal(shape) * 2.0)
        us = apps.rank_features_us(inst)
        before = us.copy()
        us.flags.writeable = False
        got = apps.rank_features_gs(inst, _plan(gram, 0.2, 3), us)
        assert got.shape == shape and got.flags.c_contiguous
        assert np.array_equal(_bits(us), _bits(before))
        for row, w in zip(np.atleast_2d(got), np.atleast_2d(inst.xtw)):
            one = mo.RegressionInstance(gram=gram, xtw=w)
            assert np.array_equal(row, _gs_reference(one, gram, 0.2, 3))

    def test_us_of_other_shape_rejected(self):
        gram = self._gram(False)
        plan = _plan(gram, 0.0, 2)
        block = mo.RegressionInstance(gram=gram, xtw=RngStream(11, 2).standard_normal((3, 11)))
        us = apps.rank_features_us(block)
        message = r"^us has shape \(.*\), the responses have shape \({}\)$"
        for bad in (us[0], us[:2], us[:, :10], us.T, us[..., None]):
            with pytest.raises(DomainError, match=message.format("3, 11")):
                apps.rank_features_gs(block, plan, bad)
        one = mo.RegressionInstance(gram=gram, xtw=block.xtw[0])
        for bad in (us[:1], us[0, :10]):
            with pytest.raises(DomainError, match=message.format("11,")):
                apps.rank_features_gs(one, plan, bad)


class TestRoc:
    def test_perfect_separation(self):
        scores = np.array([0.01, 0.02, 0.9, 0.95])
        truth = np.array([True, True, False, False])
        assert apps.roc_curve(scores, truth) == pytest.approx(1.0)

    def test_reversed(self):
        scores = np.array([0.9, 0.95, 0.01, 0.02])
        truth = np.array([True, True, False, False])
        assert apps.roc_curve(scores, truth) == pytest.approx(0.0)

    def test_all_tied_gives_half(self):
        scores = np.ones(10)
        truth = np.zeros(10, dtype=bool)
        truth[:3] = True
        assert apps.roc_curve(scores, truth) == pytest.approx(0.5)

    def test_random_scores_near_half(self):
        p = 4000
        rng = RngStream(10, 0)
        scores = rng.uniform(p)
        truth = np.zeros(p, dtype=bool)
        truth[: p // 4] = True
        auc = apps.roc_curve(scores, truth)
        assert abs(auc - 0.5) <= 3.0 / math.sqrt(p // 4)

    def test_index_set_truth(self):
        # truth is a boolean mask: an in-range integer index set is refused too
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        with pytest.raises(DomainError):
            apps.roc_curve(scores, np.array([0, 2]))
        assert apps.roc_curve(scores, np.array([True, False, True, False])) == 1.0

    @given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_transform_invariance(self, scale, shift):
        scores = np.array([0.05, 0.3, 0.2, 0.9, 0.5, 0.7])
        truth = np.array([True, False, True, False, False, True])
        base = apps.roc_curve(scores, truth)
        transformed = apps.roc_curve(scale * scores + shift, truth)
        assert transformed == pytest.approx(base)

    def test_degenerate_truth_rejected(self):
        with pytest.raises(DomainError):
            apps.roc_curve(np.array([0.1, 0.2]), np.array([True, True]))
        with pytest.raises(DomainError):
            apps.roc_curve(np.array([0.1, 0.2]), np.array([False, False]))

    @pytest.mark.parametrize("truth", [[5], [-1], [4], [1.7], [[0, 1]], [True, False]])
    def test_bad_index_set_rejected(self, truth):
        # out of range, negative, non-integer, not 1-D, or a mask of the wrong length
        with pytest.raises(DomainError):
            apps.roc_curve(np.array([0.1, 0.9, 0.2, 0.8]), truth)

    def test_block_takes_only_a_matching_mask(self):
        scores = np.array([[0.1, 0.9, 0.2, 0.8], [0.3, 0.2, 0.1, 0.4]])
        mask = np.array([[True, False, False, False], [False, True, True, False]])
        assert apps.roc_curve(scores, mask).shape == (2,)
        for truth in ([0, 2], mask[0], mask[:, :3], np.array([mask]),
                      np.array([mask[0], [True] * 4])):
            with pytest.raises(DomainError):
                apps.roc_curve(scores, truth)
        for bad_scores, bad_mask in ((scores[None], mask[None]),
                                     (scores[:0], mask[:0])):
            with pytest.raises(DomainError):
                apps.roc_curve(bad_scores, bad_mask)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _roc_reference(vals, mask):
    """The ROC sweep of one row with a stable sort, one point per tie group
    behind a leading zero: (fpr, tpr)."""
    p, npos = vals.size, int(mask.sum())
    order = np.argsort(vals, kind="stable")
    sorted_vals, sorted_true = vals[order], mask[order]
    ends = np.append(np.flatnonzero(np.diff(sorted_vals) != 0), p - 1)
    tpr = np.concatenate([[0.0], np.cumsum(sorted_true)[ends] / npos])
    fpr = np.concatenate([[0.0], np.cumsum(~sorted_true)[ends] / (p - npos)])
    return fpr, tpr


class TestBlocks:
    """Every row of a block call equals the one-row call, bit for bit."""

    @staticmethod
    def _gram(sparse):
        # a near-singular pair {0, 1} with node 8 hanging off 1, a triangle
        # {2, 3, 4}, a chain 5-6-7 and a singleton 9
        gram = np.diag(np.r_[1.0, 1.0, 1.0 + 0.1 * (np.arange(2, 10) % 3)])
        gram[0, 1] = gram[1, 0] = 1.0 - 1e-10
        for (i, j), v in {(1, 8): 0.2, (2, 3): 0.3, (3, 4): -0.4, (2, 4): 0.25,
                          (5, 6): 0.5, (6, 7): -0.3}.items():
            gram[i, j] = gram[j, i] = v
        return sp.csr_matrix(gram) if sparse else gram

    @staticmethod
    def _xtw():
        rows = RngStream(17, 0).standard_normal((6, 10)) * 2.0
        rows[1] = 0.0                          # every feature tied at 1
        rows[2, ::2] = -0.0                    # signed zeros among the responses
        rows[3] = np.repeat([1.5, -1.5, 0.7, 0.7, 2.0], 2)
        return rows

    def test_us_rows_match_one_row(self):
        gram = self._gram(True)
        xtw = self._xtw()
        block = apps.rank_features_us(mo.RegressionInstance(gram=gram, xtw=xtw))
        assert block.shape == xtw.shape
        for row, w in zip(block, xtw):
            one = apps.rank_features_us(mo.RegressionInstance(gram=gram, xtw=w))
            assert np.array_equal(_bits(row), _bits(one))

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("m0", [1, 2, 3])
    def test_gs_rows_match_one_row(self, sparse, m0):
        gram = self._gram(sparse)
        plan = _plan(gram, 0.0, m0)
        if m0 >= 2:
            assert not plan.pair_ok[0] and plan.pair_ok[1:].all()
        if m0 == 3:
            assert (2, 3, 4) in plan.larger and (0, 1, 8) in plan.larger
        xtw = self._xtw()
        inst = mo.RegressionInstance(gram=gram, xtw=xtw)
        block = apps.rank_features_gs(inst, plan, apps.rank_features_us(inst))
        assert block.shape == xtw.shape
        for row, w in zip(block, xtw):
            inst = mo.RegressionInstance(gram=gram, xtw=w)
            one = apps.rank_features_gs(inst, plan, apps.rank_features_us(inst))
            assert np.array_equal(_bits(row), _bits(one))
            assert np.array_equal(one, _gs_reference(inst, gram, 0.0, m0))

    def test_roc_rows_match_one_row_and_stable_reference(self):
        gram = self._gram(True)
        inst = mo.RegressionInstance(gram=gram, xtw=self._xtw())
        us = apps.rank_features_us(inst)
        gs = apps.rank_features_gs(inst, _plan(gram, 0.0, 3), us)
        signed_zeros = np.array([0.0, -0.0, 0.5, -0.0, 0.0, 0.25, 0.5, 1.0, -0.0, 0.25])
        scores = np.vstack([gs, us, signed_zeros, np.ones(10)])
        # a pair or triangle P-value that is the minimum for several of its
        # nodes ties them, and the zero response ties every feature at 1
        assert sum(np.unique(row).size < row.size for row in gs) >= 4
        masks = RngStream(18, 0).uniform(scores.shape) < 0.4
        masks[:, 0], masks[:, 1] = True, False
        aucs = apps.roc_curve(scores, masks)
        assert aucs.shape == (len(scores),)
        for auc, row, mask in zip(aucs, scores, masks):
            one = apps.roc_curve(row, mask)
            assert one.shape == ()
            fpr, tpr = _roc_reference(row, mask)
            for got in (auc, one):
                assert _bits(got) == _bits(np.trapezoid(tpr, fpr))
        assert aucs[-1] == 0.5

    @pytest.mark.parametrize("p", [255, 1024, 2499])
    def test_roc_auc_is_trapezoid_on_long_rows(self, p):
        # curves of 129 to 2,500 points pass numpy's 8-way unrolled and
        # 128-term pairwise blocks of the area sum, and rows start at many
        # offsets of the flat arrays the block's areas are summed from. GS
        # ties a node to the minimum of a pair or chain it sits in.
        rng = RngStream(19, p)
        v = rng.uniform((6, p))
        partner = np.minimum(np.arange(p) ^ 1, p - 1)
        scores = np.vstack([v[:3],
                            np.minimum(v[3:5], np.roll(v[3:5], 1, axis=1)),
                            np.minimum(v[5], v[5, partner])])
        masks = rng.uniform(scores.shape) < 0.3
        masks[:, 0], masks[:, 1] = True, False
        aucs = apps.roc_curve(scores, masks)
        curves = [_roc_reference(row, mask) for row, mask in zip(scores, masks)]
        sizes = [fpr.size for fpr, _ in curves]
        assert 129 <= min(sizes) < max(sizes) == p + 1 <= 2500
        for auc, (fpr, tpr), row, mask in zip(aucs, curves, scores, masks):
            want = _bits(np.trapezoid(tpr, fpr))
            assert _bits(auc) == want
            assert _bits(apps.roc_curve(row, mask)) == want
