import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from rareweak.errors import DomainError
from rareweak import classify as cl
from rareweak import models as mo
from rareweak.numerics import RngStream, row_blocks


def make_sample(features, labels, mu=None):
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if mu is None:
        mu = np.zeros(features.shape[1])
    return mo.ClassSample(features=features, labels=labels, mu=mu)


def classify_rows(model, rows):
    """classify_batch on given rows: with mu = 0 under the identity Omega,
    the draws are the rows."""
    k, p = rows.shape
    return cl.classify_batch(model, [rows], np.ones(k), np.zeros(p))


class TestZVector:
    def test_single_positive_row(self):
        row = np.array([[1.0, -2.0, 0.5]])
        z = cl.z_vector(make_sample(row, [1]))
        assert np.array_equal(z, row[0])

    def test_single_negative_row(self):
        row = np.array([[1.0, -2.0, 0.5]])
        z = cl.z_vector(make_sample(row, [-1]))
        assert np.array_equal(z, -row[0])

    def test_null_norm_concentrates(self):
        p = 2000  # n = round(p^0.5) = 45
        om = mo.PrecisionModel.identity(p)
        sample = mo.gen_class_sample(p, 0.99, 0.001, 0.5, om, RngStream(1, 0))
        z = cl.z_vector(sample)
        assert abs(z @ z / p - 1.0) <= 5.0 / math.sqrt(p)


class TestClipThreshold:
    def test_example(self):
        out = cl.clip_threshold(np.array([3.5, -3.5, 1.9]), 2.0)
        assert np.array_equal(out, [1, -1, 0])

    def test_above_all(self):
        out = cl.clip_threshold(np.array([0.5, -0.4]), 1.0)
        assert np.array_equal(out, [0, 0])

    def test_boundary_included(self):
        out = cl.clip_threshold(np.array([2.0, -2.0]), 2.0)
        assert np.array_equal(out, [1, -1])

    def test_range(self):
        rng = RngStream(2, 0)
        out = cl.clip_threshold(rng.standard_normal(100), 0.7)
        assert set(np.unique(out)) <= {-1, 0, 1}

    def test_validation(self):
        with pytest.raises(DomainError):
            cl.clip_threshold(np.zeros(3), 0.0)


class TestHctThreshold:
    def test_dominant_feature(self):
        p = 100
        z = np.zeros(p)
        z[0] = 10.0
        z[1:] = RngStream(3, 0).standard_normal(p - 1) * 0.5
        om = mo.PrecisionModel.identity(p)
        threshold, wz = cl.hct_threshold(z, om, alpha0=0.10)
        assert np.array_equal(wz, z)
        # the maximizer is among the five largest |z|
        assert np.sort(np.abs(z))[-5] <= threshold <= 10.0

    def test_denominator_differs_from_detection_hc(self):
        # construct sorted P-values where the rank-based denominator picks a
        # different maximizer than the P-value-based one
        p = 100
        pv = np.full(p, 0.9)
        pv[0] = 1e-8
        pv[1:6] = 0.02
        z = norm.isf(pv / 2.0)
        om = mo.PrecisionModel.identity(p)
        threshold, _ = cl.hct_threshold(z, om, alpha0=0.10)
        srt = np.sort(pv)[:10]
        i = np.arange(1, 11)
        det_obj = math.sqrt(p) * (i / p - srt) / np.sqrt(srt * (1 - srt))
        cls_obj = math.sqrt(p) * (i / p - srt) / np.sqrt((i / p) * (1 - i / p))
        assert int(np.argmax(det_obj)) + 1 == 1
        assert int(np.argmax(cls_obj)) + 1 != 1
        assert threshold == np.sort(np.abs(z))[::-1][np.argmax(cls_obj)]

    def test_all_pvalues_large_still_defined(self):
        p = 50
        z = np.full(p, 1e-3)
        om = mo.PrecisionModel.identity(p)
        threshold, _ = cl.hct_threshold(z, om, alpha0=0.10)
        assert threshold == pytest.approx(1e-3)

    def test_row_permutation_invariance(self):
        p = 60
        om = mo.PrecisionModel.identity(p)
        sample = mo.gen_class_sample(p, 0.4, 1.5, 0.6, om, RngStream(4, 0))
        t1, _ = cl.hct_threshold(cl.z_vector(sample), om)
        perm = np.argsort(RngStream(4, 1).standard_normal(sample.n))
        shuffled = mo.ClassSample(features=sample.features[perm],
                                  labels=sample.labels[perm], mu=sample.mu)
        t2, _ = cl.hct_threshold(cl.z_vector(shuffled), om)
        assert t1 == pytest.approx(t2)

    def test_too_small_p(self):
        with pytest.raises(DomainError):
            cl.hct_threshold(np.zeros(5), mo.PrecisionModel.identity(5), alpha0=0.10)


class TestTrainAndClassify:
    def test_selected_max_always_included_identity(self):
        p = 200
        om = mo.PrecisionModel.identity(p)
        for k in range(5):
            sample = mo.gen_class_sample(p, 0.3, 1.5, 0.5, om, RngStream(5, k))
            model = cl.train_hct(sample, om)
            z = cl.z_vector(sample)
            if model.mu_hat.any():
                assert model.mu_hat[np.argmax(np.abs(z))] != 0

    def test_degenerate_predicts_plus_one(self):
        p = 20
        om = mo.PrecisionModel.identity(p)
        features = np.full((4, p), 1e-9)
        sample = make_sample(features, [1, -1, 1, -1])
        with pytest.warns(UserWarning):
            model = cl.train_hct(sample, om)
        assert model.degenerate
        preds = classify_rows(model, RngStream(6, 0).standard_normal((7, p)))
        assert np.all(preds == 1)

    def test_single_feature_rule(self):
        p = 30
        om = mo.PrecisionModel.identity(p)
        mu_hat = np.zeros(p, dtype=np.int8)
        mu_hat[3] = 1
        model = cl.HctModel(mu_hat=mu_hat, omega=om, degenerate=False)
        rows = RngStream(7, 0).standard_normal((50, p))
        preds = classify_rows(model, rows)
        expect = np.where(rows[:, 3] >= 0, 1, -1)
        assert np.array_equal(preds, expect)

    def test_label_flip_equivariance(self):
        p = 80
        om = mo.PrecisionModel.identity(p)
        sample = mo.gen_class_sample(p, 0.3, 2.0, 0.6, om, RngStream(8, 0))
        model = cl.train_hct(sample, om)
        flipped = mo.ClassSample(features=sample.features, labels=-sample.labels,
                                 mu=sample.mu)
        model_f = cl.train_hct(flipped, om)
        assert np.array_equal(model_f.mu_hat, -model.mu_hat)
        rows = RngStream(8, 1).standard_normal((40, p))
        s = rows @ om.matvec(model.mu_hat.astype(float))
        nz = np.abs(s) > 1e-12
        a = classify_rows(model, rows)
        b = classify_rows(model_f, rows)
        assert np.array_equal(a[nz], -b[nz])

    def test_negating_row_flips_label(self):
        p = 40
        om = mo.PrecisionModel.identity(p)
        sample = mo.gen_class_sample(p, 0.3, 2.0, 0.6, om, RngStream(9, 0))
        model = cl.train_hct(sample, om)
        if model.degenerate:
            pytest.skip("degenerate draw")
        row = RngStream(9, 1).standard_normal(p)
        score = row @ om.matvec(model.mu_hat.astype(float))
        if abs(score) > 1e-12:
            a = classify_rows(model, row[None, :])[0]
            b = classify_rows(model, -row[None, :])[0]
            assert a == -b

    def test_degenerate_rule_predicts_plus_one_from_draws(self):
        # mu_hat = 0 scores every row exactly 0 on the draw path too
        p = 40
        om = mo.PrecisionModel.block2(p, 0.5)
        model = cl.HctModel(mu_hat=np.zeros(p, dtype=np.int8), omega=om,
                            degenerate=True)
        labels = np.array([1, -1, -1, 1, -1])
        mu = np.full(p, 0.7)
        draws = RngStream(6, 1).standard_normal((5, p))
        preds = cl.classify_batch(model, [draws], labels, mu)
        assert np.array_equal(preds, np.ones(5, dtype=int))

    def test_dimension_mismatch(self):
        om = mo.PrecisionModel.identity(8)
        model = cl.HctModel(mu_hat=np.zeros(8, dtype=np.int8), omega=om,
                            degenerate=True)
        with pytest.raises(DomainError):
            classify_rows(model, np.zeros((2, 9)))


class TestClassificationError:
    def test_separable_regime_small_error(self):
        om = mo.PrecisionModel.identity(2000)
        rep = cl.classification_error(0.3, 1.2, 0.4, 2000, om, 20, 100,
                                      RngStream(10, 0))
        assert rep.mean_error < 0.2

    def test_null_regime_near_half(self):
        om = mo.PrecisionModel.identity(2000)
        rep = cl.classification_error(0.5, 0.02, 0.4, 2000, om, 20, 100,
                                      RngStream(11, 0))
        assert abs(rep.mean_error - 0.5) <= max(3 * rep.se, 0.05)

    def test_deterministic_and_parallel_equal(self):
        om = mo.PrecisionModel.identity(500)
        a = cl.classification_error(0.4, 1.0, 0.4, 500, om, 20, 50, RngStream(12, 0))
        b = cl.classification_error(0.4, 1.0, 0.4, 500, om, 20, 50, RngStream(12, 0))
        assert np.array_equal(a.errors, b.errors)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(4) as pool:
            c = cl.classification_error(0.4, 1.0, 0.4, 500, om, 20, 50,
                                        RngStream(12, 0),
                                        map_fn=lambda f, xs: pool.map(f, xs))
        assert np.array_equal(a.errors, c.errors)

    def test_validation(self):
        om = mo.PrecisionModel.identity(100)
        with pytest.raises(DomainError):
            cl.classification_error(0.4, 1.0, 0.4, 100, om, 5, 50, RngStream(13, 0))

    def test_peak_memory_is_one_block(self):
        # the test rows are drawn and scored in row blocks, and the training
        # noise is drawn into its (40, p) sample in row blocks: the peak is
        # the training sample plus blocks, under the 16 MB of one
        # (test_size, p) draw
        p, test_size = 10**4, 200
        om = mo.PrecisionModel.block2(p, 0.5)
        om.sigma_diag()
        tracemalloc.start()
        try:
            cl.classification_error(0.3, 1.2, 0.4, p, om, 20, test_size,
                                    RngStream(14, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("p,test_size,heights", [
        (10**4, 1, [1]), (10**4, 5, [5]), (10**4, 203, [4] * 49 + [7]),
        (1000, 200, [32] * 5 + [40]), (40, 203, [203]),
    ])
    def test_test_rows_drawn_in_blocks_of_four(self, monkeypatch, p, test_size,
                                               heights):
        # held-out blocks are a multiple of 4 rows and the last one takes the
        # remainder, so no block ends in a short tail of its own
        sizes = []
        draw = RngStream.standard_normal

        def counting(self, size=None):
            if self.path[-1] == 1:  # the held-out substream k.1
                sizes.append(size)
            return draw(self, size)

        monkeypatch.setattr(RngStream, "standard_normal", counting)
        cl.classification_error(0.3, 1.2, 0.4, p, mo.PrecisionModel.identity(p),
                                20, test_size, RngStream(15, 0))
        assert sizes == [(h, p) for h in heights] * 20
        assert sizes == [(hi - lo, p) for lo, hi in row_blocks(test_size, p)] * 20


def _custom_omega(p):
    """Unit-diagonal precision with a 3-node component {0, 1, 2}, a few
    pairs and singletons elsewhere."""
    a = np.eye(p)
    for i, j, v in ((0, 1, 0.4), (1, 2, -0.3), (10, 11, 0.6), (20, 35, -0.5)):
        a[i, j] = a[j, i] = v
    return mo.PrecisionModel.custom(a)


def _reference_errors(vartheta, r, theta, p, omega, reps, test_size, rng):
    """classification_error's per-replicate errors with the test rows built
    by class_rows and labelled by sign(row @ Omega mu_hat)."""
    errors = []
    for k in range(reps):
        rep = rng.child(k)
        sample = mo.gen_class_sample(p, vartheta, r, theta, omega, rep.child(0))
        model = cl.train_hct(sample, omega)
        test_rng = rep.child(1)
        labels = np.where(test_rng.uniform(test_size) < 0.5, 1, -1)
        rows = mo.class_rows(sample.mu, labels, omega, test_rng)
        scores = rows @ omega.matvec(model.mu_hat.astype(float))
        errors.append(np.mean(np.where(scores >= 0.0, 1, -1) != labels))
    return np.asarray(errors)


@pytest.mark.filterwarnings("ignore:HCT selected no features")
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["identity", "block2_0.5", "block2_-0.8",
                                  "block2_0.95", "custom"])
def test_classification_error_matches_row_oracle(kind, seed):
    p = 400
    if kind == "identity":
        om = mo.PrecisionModel.identity(p)
    elif kind == "custom":
        om = _custom_omega(p)
    else:
        om = mo.PrecisionModel.block2(p, float(kind.split("_")[1]))
    rep = cl.classification_error(0.5, 0.3, 0.5, p, om, 20, 60, RngStream(seed, 3))
    ref = _reference_errors(0.5, 0.3, 0.5, p, om, 20, 60, RngStream(seed, 3))
    assert np.array_equal(rep.errors, ref)


def _one_draw_errors(vartheta, r, theta, p, omega, reps, test_size, rng):
    """classification_error's per-replicate errors with each replicate's
    test rows scored from one (test_size, p) draw."""
    errors = []
    for k in range(reps):
        rep = rng.child(k)
        sample = mo.gen_class_sample(p, vartheta, r, theta, omega, rep.child(0))
        model = cl.train_hct(sample, omega)
        test_rng = rep.child(1)
        labels = np.where(test_rng.uniform(test_size) < 0.5, 1, -1)
        draws = test_rng.standard_normal((test_size, p))
        w = omega.matvec(model.mu_hat.astype(float))
        scores = labels * (sample.mu @ w) + draws @ omega.sigma_sqrt_rmatvec(w)
        errors.append(np.mean(np.where(scores >= 0.0, 1, -1) != labels))
    return np.asarray(errors)


# At p = 10**4 only multiples of 4 rows: there, with more than one BLAS
# thread, the one (test_size, p) product splits a test_size such as 203 into
# row groups unlike the single-threaded sums that the 4-row blocks reproduce.
@pytest.mark.filterwarnings("ignore:HCT selected no features")
@pytest.mark.parametrize("p,test_size", [(40, 1), (40, 5), (40, 37), (40, 200),
                                         (40, 203), (10**4, 8), (10**4, 200)])
def test_classification_error_matches_one_draw(p, test_size):
    om = mo.PrecisionModel.block2(p, 0.5)
    rep = cl.classification_error(0.3, 1.2, 0.4, p, om, 20, test_size,
                                  RngStream(16, 0))
    ref = _one_draw_errors(0.3, 1.2, 0.4, p, om, 20, test_size, RngStream(16, 0))
    assert np.array_equal(rep.errors, ref)
