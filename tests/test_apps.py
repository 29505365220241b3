import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareweak.errors import DomainError
from rareweak import apps, detect
from rareweak import models as mo
from rareweak.numerics import RngStream, sym_sqrt


class TestOffdiagonals:
    def test_identity(self):
        for k in (1, 2, 4):
            assert np.all(apps.offdiagonal_vectors(np.eye(5), k) == 0)

    def test_corner(self):
        s = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(apps.offdiagonal_vectors(s, 2), [2.0])

    def test_last_has_length_one(self):
        s = np.eye(4)
        assert apps.offdiagonal_vectors(s, 3).shape == (1,)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            apps.offdiagonal_vectors(np.eye(3), 3)
        with pytest.raises(DomainError):
            apps.offdiagonal_vectors(np.eye(3), 0)

    def test_sample_offdiagonals_match_dense(self):
        x = RngStream(1, 0).standard_normal((20, 6))
        s = x.T @ x / 20
        fast = apps.sample_cov_offdiagonals(x, 3)
        for k in range(1, 4):
            assert np.allclose(fast[k - 1], apps.offdiagonal_vectors(s, k))
        assert np.allclose(apps.sample_cov_diagonal(x), np.diag(s))


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
            est = apps.estimate_bandwidth(x, 5, 0.05, self.table)
            hits += est.b_hat == 0
        assert hits / trials >= 1 - 0.05 - 2 * math.sqrt(0.05 * 0.95 / trials)

    def test_strong_bands_recovered(self):
        recovered = 0
        for k in range(10):
            samples, sigma = mo.gen_banded_sample(
                400, 300, [(0.05, 0.4), (0.05, 0.4)], RngStream(4, 0).child(k))
            est = apps.estimate_bandwidth(samples, 5, 0.05, self.table)
            recovered += est.b_hat == mo.banded_true_bandwidth(sigma)
        assert recovered >= 8

    def test_b_hat_never_exceeds_b0(self):
        for k in range(5):
            x = RngStream(5, 0).child(k).standard_normal((50, 400))
            est = apps.estimate_bandwidth(x, 5, 0.05, self.table)
            assert 0 <= est.b_hat <= 5

    def test_validation(self):
        x = np.zeros((1, 400))
        with pytest.raises(DomainError):
            apps.estimate_bandwidth(x, 3, 0.05, self.table)
        ohc_table = detect.critical_value(400, [0.01], variant="ohc",
                                          num_null_reps=200, rng=RngStream(6, 0))
        with pytest.raises(DomainError):
            apps.estimate_bandwidth(np.zeros((5, 400)), 3, 0.05, ohc_table)

    def test_mismatched_table_rejected(self):
        # the table is checked against the sample's column count and alpha0
        with pytest.raises(DomainError):
            apps.estimate_bandwidth(RngStream(7, 0).standard_normal((50, 300)),
                                    5, 0.05, self.table)
        with pytest.raises(DomainError):
            apps.estimate_bandwidth(RngStream(7, 1).standard_normal((50, 400)),
                                    5, 0.05, self.table, alpha0=0.2)


def _instance_from_design(x, w):
    return mo.regression_from_design(x, w)


class TestRankingUs:
    def test_matched_column_ranked_first(self):
        x = np.eye(6)
        w = x[:, 3] * 2.0
        res = apps.rank_features_us(_instance_from_design(x, w))
        assert int(np.argmin(res.scores)) == 3

    def test_zero_response_all_tied_at_one(self):
        x = np.eye(4)
        res = apps.rank_features_us(_instance_from_design(x, np.zeros(4)))
        assert np.allclose(res.scores, 1.0)

    def test_identity_order_matches_magnitude(self):
        w = np.array([0.3, -2.0, 1.1, 0.0, -0.7])
        res = apps.rank_features_us(_instance_from_design(np.eye(5), w))
        assert np.array_equal(np.argsort(res.scores, kind="stable"),
                              np.argsort(-np.abs(w), kind="stable"))


class TestRankingGs:
    def test_m0_one_identity_matches_us_order(self):
        w = RngStream(7, 0).standard_normal(12)
        inst = _instance_from_design(np.eye(12), w)
        us = apps.rank_features_us(inst)
        gs = apps.rank_features_gs(inst, np.eye(12), delta=0.0, m0=1)
        assert np.array_equal(np.argsort(us.scores), np.argsort(gs.scores))

    def test_gs_score_never_above_singleton(self):
        sigma = mo.block_sigma_dense(10, -0.6)
        x = sym_sqrt(sigma)
        w = x @ (np.array([3.0, 3.0] + [0.0] * 8)) + RngStream(8, 0).standard_normal(10)
        inst = _instance_from_design(x, w)
        gs = apps.rank_features_gs(inst, sigma, delta=0.3, m0=2)
        from rareweak.numerics import chisq_sf

        diag = inst.gram_diag()
        singles = chisq_sf(1, np.asarray(inst.xtw) ** 2 / diag)
        assert np.all(gs.scores <= singles + 1e-12)

    def test_cancellation_case_gs_beats_us(self):
        p, h0, tau, eps = 400, -0.8, 4.0, 0.05
        sigma = mo.block_sigma_dense(p, h0)
        ssqrt = sym_sqrt(sigma)
        gaps = []
        for k in range(30):
            rng = RngStream(9, 0).child(k)
            beta = mo.draw_paired_beta(p, eps, tau, rng)
            if not beta.any():
                continue
            xtw = sigma @ beta + ssqrt @ rng.standard_normal(p)
            inst = mo.RegressionInstance(gram=sigma, xtw=xtw)
            truth = beta != 0
            auc_us = apps.roc_curve(apps.rank_features_us(inst), truth).auc
            auc_gs = apps.roc_curve(
                apps.rank_features_gs(inst, sigma, delta=0.5, m0=2), truth).auc
            gaps.append(auc_gs - auc_us)
        assert np.mean(gaps) > 0.05


class TestRoc:
    def test_perfect_separation(self):
        scores = np.array([0.01, 0.02, 0.9, 0.95])
        truth = np.array([True, True, False, False])
        assert apps.roc_curve(scores, truth).auc == pytest.approx(1.0)

    def test_reversed(self):
        scores = np.array([0.9, 0.95, 0.01, 0.02])
        truth = np.array([True, True, False, False])
        assert apps.roc_curve(scores, truth).auc == pytest.approx(0.0)

    def test_all_tied_gives_half(self):
        scores = np.ones(10)
        truth = np.zeros(10, dtype=bool)
        truth[:3] = True
        assert apps.roc_curve(scores, truth).auc == pytest.approx(0.5)

    def test_random_scores_near_half(self):
        p = 4000
        rng = RngStream(10, 0)
        scores = rng.uniform(p)
        truth = np.zeros(p, dtype=bool)
        truth[: p // 4] = True
        auc = apps.roc_curve(scores, truth).auc
        assert abs(auc - 0.5) <= 3.0 / math.sqrt(p // 4)

    def test_index_set_truth(self):
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        a = apps.roc_curve(scores, np.array([0, 2]))
        b = apps.roc_curve(scores, np.array([True, False, True, False]))
        assert a.auc == b.auc

    @given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_transform_invariance(self, scale, shift):
        scores = np.array([0.05, 0.3, 0.2, 0.9, 0.5, 0.7])
        truth = np.array([True, False, True, False, False, True])
        base = apps.roc_curve(scores, truth).auc
        transformed = apps.roc_curve(scale * scores + shift, truth).auc
        assert transformed == pytest.approx(base)

    def test_degenerate_truth_rejected(self):
        with pytest.raises(DomainError):
            apps.roc_curve(np.array([0.1, 0.2]), np.array([True, True]))
        with pytest.raises(DomainError):
            apps.roc_curve(np.array([0.1, 0.2]), np.array([False, False]))

