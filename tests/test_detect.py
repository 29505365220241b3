import math

import numpy as np
import pytest

from rareweak.errors import DomainError
from rareweak import detect as de
from rareweak import models as mo
from rareweak.numerics import RngStream, normal_sf, row_blocks

class TestPValues:
    def test_zero_data_upper(self):
        om = mo.PrecisionModel.identity(6)
        pv = de.pvalues(np.zeros(6), om, "none", "upper")
        assert np.allclose(pv, 0.5)

    def test_transforms_coincide_under_identity(self):
        om = mo.PrecisionModel.identity(10)
        y = RngStream(1, 0).standard_normal(10)
        a = de.pvalues(y, om, "none", "two")
        b = de.pvalues(y, om, "whitened", "two")
        c = de.pvalues(y, om, "innovated", "two")
        assert np.allclose(a, b) and np.allclose(a, c)

    def test_block_model_snr_ordering(self):
        # noiseless signal at site 0: the transformed statistics hit their
        # means exactly, so the P-values order brute > whitened > innovated
        h0, tau = 0.5, 3.0
        om = mo.PrecisionModel.block2(4, h0)
        y = np.zeros(4)
        y[0] = tau
        brute = de.pvalues(y, om, "none", "two")[0]
        whit = de.pvalues(y, om, "whitened", "two")[0]
        innov = de.pvalues(y, om, "innovated", "two")[0]
        assert abs(brute - 2 * normal_sf(math.sqrt(1 - h0**2) * tau)) <= 1e-12
        assert abs(whit - 2 * normal_sf(0.965926 * tau)) <= 1e-6
        assert abs(innov - 2 * normal_sf(tau)) <= 1e-12
        assert innov < whit < brute

    def test_invalid_args(self):
        om = mo.PrecisionModel.identity(4)
        with pytest.raises(DomainError):
            de.pvalues(np.zeros(4), om, "nope", "upper")
        with pytest.raises(DomainError):
            de.pvalues(np.zeros(4), om, "none", "lower")
        with pytest.raises(DomainError):
            de.pvalues(np.zeros(3), om)


class TestHcStatistic:
    def test_hand_example(self):
        res = de.hc_statistic(np.array([0.01, 0.2, 0.5, 0.9]))
        expected = 2 * (0.25 - 0.01) / math.sqrt(0.01 * 0.99)
        assert abs(res.statistic - expected) <= 1e-12

    def test_uniform_spacing_moderate(self):
        p = 40
        pv = np.arange(1, p + 1) / (p + 1.0)
        res = de.hc_statistic(pv)
        assert 0 < res.statistic < 5

    def test_two_point(self):
        res = de.hc_statistic(np.array([0.5, 0.5]))
        assert res.statistic == 0.0

    def test_permutation_invariance(self):
        rng = RngStream(2, 0)
        pv = rng.uniform(100)
        a = de.hc_statistic(pv)
        perm = pv[np.argsort(rng.standard_normal(100))]
        b = de.hc_statistic(perm)
        assert a.statistic == b.statistic

    def test_clamping_flag(self):
        res = de.hc_statistic(np.array([0.0, 0.4, 0.6, 0.9]))
        assert res.clamped
        assert math.isfinite(res.statistic)

    @pytest.mark.parametrize("bad", [[0.1, math.nan, 0.3, 0.5], [math.nan, 0.2],
                                     [0.1, -0.01, 0.5], [0.1, 1.5, 0.5]],
                             ids=["nan", "nan_first", "negative", "above_one"])
    def test_invalid_pvalues_rejected(self, bad):
        with pytest.raises(DomainError):
            de.hc_statistic(np.array(bad))
        with pytest.raises(DomainError):
            de.hc_plus_statistic(np.array(bad), alpha0=0.5)


class TestHcPlus:
    def test_hand_example(self):
        res = de.hc_plus_statistic(np.array([0.3, 0.4, 0.6, 0.9]), alpha0=0.5)
        expected = 2 * (0.5 - 0.4) / math.sqrt(0.4 * 0.6)
        assert abs(res.statistic - expected) <= 1e-12

    def test_empty_feasible_set(self):
        res = de.hc_plus_statistic(np.array([0.1, 0.2, 0.6, 0.9]), alpha0=0.5)
        assert res.statistic == -math.inf

    def test_matches_hc_when_unconstrained(self):
        pv = np.array([0.3, 0.45, 0.6, 0.7, 0.8, 0.9])
        a = de.hc_plus_statistic(pv, alpha0=0.5)
        b = de.hc_statistic(pv)
        assert abs(a.statistic - b.statistic) <= 1e-12

    def test_alpha0_validation(self):
        with pytest.raises(DomainError):
            de.hc_plus_statistic(np.array([0.1, 0.2]), alpha0=0.7)


def _reference_hc(vals, frac, floor):
    """The HC objective maximized one vector at a time, written out plainly."""
    p = vals.size
    head = np.sort(np.clip(vals, de.PVALUE_CLAMP, 1.0 - de.PVALUE_CLAMP))
    head = head[: int(math.floor(frac * p))]
    i = np.arange(1, head.size + 1)
    obj = math.sqrt(p) * (i / p - head) / np.sqrt(head * (1.0 - head))
    if floor:
        obj = np.where(head > 1.0 / p, obj, -math.inf)
    return float(obj.max()) if obj.size else -math.inf


def _kernel_rows(p):
    """P-value rows exercising ties, the 1/p floor, exact 0 and 1, and clamping."""
    rng = RngStream(20, p)
    rows = [rng.uniform(p) for _ in range(4)]
    rows.append(np.round(rng.uniform(p), 1))               # many ties
    rows.append(np.full(p, 0.5))                           # all tied
    rows.append(rng.uniform(p) / p)                        # all at or below 1/p
    with_ends = rng.uniform(p)
    with_ends[[0, p - 1]] = [0.0, 1.0]                     # exact 0 and 1
    rows.append(with_ends)
    with_one = rng.uniform(p)
    with_one[p // 2] = 1.0
    rows.append(with_one)
    rows.append(np.concatenate([np.zeros(p - 1), [1.0]]))  # clamped at both ends
    return np.array(rows)


class TestHcKernel:
    @pytest.mark.parametrize("p", [2, 3, 4, 9, 50, 257])
    @pytest.mark.parametrize("frac,floor", [(0.5, False), (0.5, True),
                                            (0.2, True), (0.1, True)])
    def test_block_matches_rows(self, p, frac, floor):
        # (0.1, True) at p < 10 and (0.2, True) at p < 5 leave frac * p < 1
        rows = _kernel_rows(p)
        stat, clamped = de._hc(rows, frac, floor)
        for k, row in enumerate(rows):
            if floor:
                one = de.hc_plus_statistic(row, alpha0=frac)
            else:
                one = de.hc_statistic(row)
            assert (stat[k], clamped[k]) == (one.statistic, one.clamped)
            assert one.statistic == _reference_hc(row, frac, floor)
            assert one.clamped == bool(np.any(row <= 0.0) or np.any(row >= 1.0))

    def test_nan_row_in_block_rejected(self):
        rows = _kernel_rows(10)
        rows[3, 4] = math.nan
        with pytest.raises(DomainError):
            de._hc(rows, 0.5, False)

    def test_block_draw_equals_sequential_draws(self):
        for m, p in ((1, 7), (6, 5000), (13, 31)):
            block = RngStream(21, m).uniform((m, p))
            seq = RngStream(21, m)
            assert np.array_equal(block, np.array([seq.uniform(p) for _ in range(m)]))

    # Blocks hold 65 rows at p = 500 and 98 at p = 333, which divide neither
    # reps count; p = 2**15 + 3 exceeds the block budget (one row per block).
    @pytest.mark.parametrize("p,variant,alpha0,reps", [
        (500, "ohc", 0.5, 201),
        (500, "hcplus", 0.5, 201),
        (333, "hcplus", 0.1, 150),
        (2**15 + 3, "ohc", 0.5, 100),
        (2**15 + 3, "hcplus", 0.1, 100),
    ])
    def test_table_matches_per_replicate_loop(self, p, variant, alpha0, reps):
        alphas = np.linspace(0.01, 0.99, 99)
        table = de.critical_value(p, alphas, variant, reps, rng=RngStream(22, p),
                                  alpha0=alpha0)
        rng = RngStream(22, p)
        frac, floor = (0.5, False) if variant == "ohc" else (alpha0, True)
        stats = np.array([_reference_hc(rng.uniform(p), frac, floor)
                          for _ in range(reps)])
        expected = tuple(float(np.quantile(stats, 1.0 - a)) for a in table.alphas)
        assert table.quantiles == expected

    @pytest.mark.parametrize("p,reps", [(500, 201), (5000, 300), (2**15 + 3, 100)])
    def test_table_draws_one_block_per_call(self, p, reps):
        calls = []

        class Counting(RngStream):
            def uniform(self, size=None):
                calls.append(size)
                return super().uniform(size)

        de.critical_value(p, [0.05], "hcplus", reps, rng=Counting(23, 0))
        assert calls == [(hi - lo, p) for lo, hi in row_blocks(reps, p)]


class TestCriticalValues:
    def test_quantiles_monotone_in_alpha(self):
        table = de.critical_value(500, [0.05, 0.5], variant="ohc",
                                  num_null_reps=400, rng=RngStream(3, 0))
        assert table.value(0.05) > table.value(0.5)
        assert math.isfinite(table.value(0.05))

    def test_stable_across_seeds(self):
        # two independent simulations agree within 3x a bootstrap SE
        p, reps = 500, 10**4
        rng = RngStream(4, 0)
        stats = np.array([de.hc_statistic(rng.uniform(p)).statistic
                          for _ in range(reps)])
        q1 = float(np.quantile(stats, 0.95))
        boot_rng = np.random.Generator(np.random.Philox(99))
        boots = [np.quantile(boot_rng.choice(stats, size=reps, replace=True), 0.95)
                 for _ in range(200)]
        se = float(np.std(boots))
        table = de.critical_value(p, [0.05], variant="ohc",
                                  num_null_reps=reps, rng=RngStream(5, 0))
        assert abs(table.value(0.05) - q1) <= 3 * se

    def test_validation(self):
        with pytest.raises(DomainError):
            de.critical_value(100, [0.05], num_null_reps=50, rng=RngStream(7, 0))
        with pytest.raises(DomainError):
            de.critical_value(100, [1.5], num_null_reps=200, rng=RngStream(7, 0))
        with pytest.raises(DomainError):
            de.critical_value(1, [0.05], num_null_reps=200, rng=RngStream(7, 0))
        with pytest.raises(DomainError):
            de.critical_value(100, [0.05], "hcplus", 200, rng=RngStream(7, 0), alpha0=0.7)
        table = de.critical_value(100, [0.05], num_null_reps=200, rng=RngStream(7, 0))
        with pytest.raises(DomainError):
            table.value(0.2)


class TestIhcTest:
    """The innovated test's threshold: the orthodox table value times the
    maximum row-nonzero count of the precision matrix."""

    def test_identity_reduces_to_ohc_threshold(self):
        table = de.critical_value(200, [0.1], num_null_reps=300, rng=RngStream(8, 0))
        om = mo.PrecisionModel.identity(200)
        assert de.variant_threshold(om, "ihc", 0.1, table) == table.value(0.1)

    def test_block_threshold_doubles(self):
        table = de.critical_value(200, [0.1], num_null_reps=300, rng=RngStream(9, 0))
        om = mo.PrecisionModel.block2(200, 0.5)
        assert de.variant_threshold(om, "ihc", 0.1, table) == 2 * table.value(0.1)
        assert de.variant_threshold(om, "whc", 0.1, table) == table.value(0.1)

    def test_wrong_table_rejected(self):
        table = de.critical_value(100, [0.1], variant="hcplus",
                                  num_null_reps=200, rng=RngStream(10, 0))
        om = mo.PrecisionModel.identity(100)
        params = mo.ArwParams(p=100, vartheta=0.6, r=1.0)
        with pytest.raises(DomainError):
            de.power_estimate(params, om, "ihc", 0.1, 50, RngStream(10, 1), table=table)


class TestPowerEstimate:
    def setup_method(self):
        self.p = 1000
        self.om = mo.PrecisionModel.identity(self.p)
        self.table = de.critical_value(self.p, [0.05], num_null_reps=2000,
                                       rng=RngStream(12, 0))

    def test_null_alternative_matches_size(self):
        mix = mo.MixtureParams(p=self.p, epsilon=0.0, tau=3.0)
        est = de.power_estimate(mix, self.om, "ohc", 0.05, 200,
                                RngStream(12, 1), table=self.table)
        joint_se = math.sqrt(est.size_se**2 + est.power_se**2)
        assert abs(est.power - est.size) <= max(3 * joint_se, 0.01)

    def test_strong_signal_beats_size(self):
        params = mo.ArwParams(p=self.p, vartheta=0.6, r=1.5)
        est = de.power_estimate(params, self.om, "ohc", 0.05, 100,
                                RngStream(12, 2), table=self.table)
        assert est.power > est.size

    def test_power_monotone_in_r(self):
        powers = []
        for r in (0.4, 0.8, 1.6):
            params = mo.ArwParams(p=self.p, vartheta=0.6, r=r)
            est = de.power_estimate(params, self.om, "ohc", 0.05, 200,
                                    RngStream(12, 3), table=self.table)
            powers.append((est.power, est.power_se))
        for (lo, lo_se), (hi, hi_se) in zip(powers, powers[1:]):
            assert hi >= lo - 2 * math.hypot(lo_se, hi_se)

    def test_ohc_size_within_binomial_error(self):
        mix = mo.MixtureParams(p=self.p, epsilon=0.0, tau=0.0)
        table = de.critical_value(self.p, [0.05, 0.2, 0.4], num_null_reps=10**4,
                                  rng=RngStream(13, 0))
        for alpha in (0.05, 0.2, 0.4):
            est = de.power_estimate(mix, self.om, "ohc", alpha, 400,
                                    RngStream(13, 1), table=table)
            assert abs(est.size - alpha) <= 3 * math.sqrt(alpha * (1 - alpha) / 400) + 0.01

    def test_variants_coincide_under_identity(self):
        y = RngStream(14, 0).standard_normal(self.p)
        b = de._variant_statistic(y, self.om, "bhc").statistic
        w = de._variant_statistic(y, self.om, "whc").statistic
        i = de._variant_statistic(y, self.om, "ihc").statistic
        assert b == w == i

    def test_mismatched_table_rejected(self):
        params = mo.ArwParams(p=self.p, vartheta=0.6, r=1.0)
        small = de.critical_value(500, [0.05], num_null_reps=200, rng=RngStream(16, 0))
        plus = de.critical_value(self.p, [0.05], variant="hcplus", num_null_reps=200,
                                 rng=RngStream(16, 1), alpha0=0.2)
        for variant, table, alpha0 in (("ohc", small, 0.5), ("ohc", plus, 0.2),
                                       ("hcplus", self.table, 0.5),
                                       ("hcplus", plus, 0.5)):
            with pytest.raises(DomainError):
                de.power_estimate(params, self.om, variant, 0.05, 50,
                                  RngStream(16, 2), table=table, alpha0=alpha0)

    def test_reps_validation(self):
        params = mo.ArwParams(p=self.p, vartheta=0.6, r=1.0)
        with pytest.raises(DomainError):
            de.power_estimate(params, self.om, "ohc", 0.05, 10,
                              RngStream(15, 0), table=self.table)
