import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rareweak.errors import DomainError
from rareweak import cli
from rareweak import detect as de
from rareweak import models as mo
from rareweak.numerics import BLOCK_VALUES, RngStream, normal_sf, row_blocks


def _transform_pvalues(y, om, transform, side):
    """P-values of Y under a noise transform and side, one step at a time."""
    if transform == "none":
        t = y / np.sqrt(om.sigma_diag())
    elif transform == "whitened":
        t = om.sqrt_matvec(y)
    else:
        t = om.matvec(y)
    return normal_sf(t) if side == "upper" else 2.0 * normal_sf(np.abs(t))


_VARIANT_PIPELINES = {"ohc": ("none", "upper"), "hcplus": ("none", "upper"),
                      "bhc": ("none", "two"), "whc": ("whitened", "two"),
                      "ihc": ("innovated", "two")}


class TestPValues:
    def test_zero_data_upper(self):
        om = mo.PrecisionModel.identity(6)
        pv = de.pvalues(np.zeros(6), om, "ohc")
        assert np.allclose(pv, 0.5)

    def test_transforms_coincide_under_identity(self):
        om = mo.PrecisionModel.identity(10)
        y = RngStream(1, 0).standard_normal(10)
        a = de.pvalues(y, om, "bhc")
        b = de.pvalues(y, om, "whc")
        c = de.pvalues(y, om, "ihc")
        assert np.allclose(a, b) and np.allclose(a, c)

    def test_block_model_snr_ordering(self):
        # noiseless signal at site 0: the transformed statistics hit their
        # means exactly, so the P-values order brute > whitened > innovated
        h0, tau = 0.5, 3.0
        om = mo.PrecisionModel.block2(4, h0)
        y = np.zeros(4)
        y[0] = tau
        brute = de.pvalues(y, om, "bhc")[0]
        whit = de.pvalues(y, om, "whc")[0]
        innov = de.pvalues(y, om, "ihc")[0]
        assert abs(brute - 2 * normal_sf(math.sqrt(1 - h0**2) * tau)) <= 1e-12
        assert abs(whit - 2 * normal_sf(0.965926 * tau)) <= 1e-6
        assert abs(innov - 2 * normal_sf(tau)) <= 1e-12
        assert innov < whit < brute

    @pytest.mark.parametrize("omega", [{"kind": "identity"}, {"kind": "block2", "h0": 0.5}],
                             ids=["identity", "block2"])
    @pytest.mark.parametrize("variant", de.VARIANTS)
    def test_variant_equals_its_transform_and_side(self, omega, variant):
        om = cli._build_omega(omega, 50)
        y = 2.0 * RngStream(1, 1).standard_normal(50)
        y[:5] += 3.0
        want = _transform_pvalues(y, om, *_VARIANT_PIPELINES[variant])
        assert np.array_equal(de.pvalues(y, om, variant), want)

    def test_invalid_args(self):
        om = mo.PrecisionModel.identity(4)
        for variant in ("nope", "none", "whitened"):
            with pytest.raises(DomainError, match="unknown variant"):
                de.pvalues(np.zeros(4), om, variant)
        with pytest.raises(DomainError):
            de.pvalues(np.zeros(3), om, "ohc")


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

    # Blocks hold 16 rows at p = 500 and 24 at p = 333, which divide neither
    # reps count; p = 4 * BLOCK_VALUES + 3 (32,771) exceeds the block budget
    # in one row, so blocks take the 4-row floor.
    @pytest.mark.parametrize("p,variant,alpha0,reps", [
        (500, "ohc", 0.5, 201),
        (500, "hcplus", 0.5, 201),
        (333, "hcplus", 0.1, 150),
        (4 * BLOCK_VALUES + 3, "ohc", 0.5, 100),
        (4 * BLOCK_VALUES + 3, "hcplus", 0.1, 100),
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

    @pytest.mark.parametrize("p,reps", [(500, 201), (5000, 300),
                                        (4 * BLOCK_VALUES + 3, 100)])
    def test_table_draws_one_block_per_call(self, p, reps):
        calls = []

        class Counting(RngStream):
            def uniform(self, size=None):
                calls.append(size)
                return super().uniform(size)

        de.critical_value(p, [0.05], "hcplus", reps, rng=Counting(23, 0))
        assert calls == [(hi - lo, p) for lo, hi in row_blocks(reps, p)]


def _counting_hc(monkeypatch):
    """Route detect._hc through a wrapper; returns the list of row counts
    each call scored."""
    scored = []
    kernel = de._hc

    def counting(rows, frac, floor):
        scored.append(rows.shape[0])
        return kernel(rows, frac, floor)

    monkeypatch.setattr(de, "_hc", counting)
    return scored


def _bucket_edges(lo, hi):
    """Every double of bits j << 46 in [lo, hi]: the edges of _hc_bound's buckets."""
    first = int(np.float64(lo).view(np.int64) >> de._BUCKET_SHIFT)
    last = int(np.float64(hi).view(np.int64) >> de._BUCKET_SHIFT)
    return (np.arange(first, last + 1) << de._BUCKET_SHIFT).view(np.float64)


def _adversarial_rows(p, frac):
    """P-value rows at the places _hc_bound's argument turns on: ties, 0.0,
    exact bucket edges, 1/p, head/p and their neighbours, values just
    below 1.0, and rows crowded near 0 where the statistic is large."""
    head = int(math.floor(frac * p))
    rng = RngStream(25, p)
    below_one = np.nextafter(1.0, 0.0)
    edges = _bucket_edges(2.0**-6 / p, 1.0)
    special = np.array([0.0, 1.0 / p, np.nextafter(1.0 / p, 0.0), np.nextafter(1.0 / p, 1.0),
                        head / p, np.nextafter(head / p, 0.0), np.nextafter(head / p, 1.0),
                        below_one, 1.0])
    rows = [np.resize(edges, p),                                   # every edge, repeated
            np.resize(edges[edges <= 2.0 * head / p], p),          # the edges that score
            np.sort(np.resize(edges[:64], p)),                     # many ties on low edges
            np.round(rng.uniform(p), 2),                           # ties
            np.round(rng.uniform(p) ** 4, 4),                      # ties near 0, some 0.0
            np.arange(1, p + 1) / p,                               # i/p exactly
            (np.arange(1, p + 1) - 0.5) / p,
            np.full(p, below_one)]
    rows += [np.full(p, v) for v in special]
    with_special = rng.uniform(p)
    with_special[: special.size] = special
    rows.append(with_special)
    crowded = rng.uniform(p)
    crowded[:head] = rng.uniform(head) * (head / p) ** 2
    rows.append(crowded)
    for power in (2, 4, 8):
        rows.append(rng.uniform(p) ** power)
    return np.array(rows)


# a bound exists from p = 1,346 for HC+ and from p = 1,916 for the orthodox
# functional (twice the buckets fit in a row)
_BOUND_CASES = [(1500, 0.5, True), (1500, 0.1, True), (2048, 0.5, False),
                (2048, 0.5, True), (5000, 0.01, True), (5000, 0.5, False)]


class TestHcBound:
    @pytest.mark.parametrize("p,frac,floor", _BOUND_CASES)
    def test_bound_covers_statistic_on_adversarial_rows(self, p, frac, floor):
        rows = _adversarial_rows(p, frac)
        bound = de._hc_bound(p, frac, floor)
        stat = de._hc(rows.copy(), frac, floor)[0]
        assert np.all(bound(rows) >= stat)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=st.sampled_from(_BOUND_CASES), seed=st.integers(0, 2**32 - 1),
           power=st.sampled_from([1.0, 3.0, 8.0]),
           picks=st.lists(st.integers(0, 10**6), max_size=200))
    def test_bound_covers_statistic(self, case, seed, power, picks):
        # rows crowded towards 0 by the power, with entries replaced by
        # bucket edges and by values at 1/p and head/p
        p, frac, floor = case
        head = int(math.floor(frac * p))
        pool = np.concatenate([_bucket_edges(2.0**-8 / p, 1.0),
                               [0.0, 1.0 / p, head / p, np.nextafter(1.0, 0.0)]])
        rows = RngStream(26, seed).uniform((2, p)) ** power
        rows[0, : len(picks)] = pool[np.array(picks, dtype=int) % pool.size]
        rows[1] = np.sort(rows[1])
        rows[1, : len(picks)] = pool[np.array(picks, dtype=int) % pool.size]
        stat = de._hc(rows.copy(), frac, floor)[0]
        assert np.all(de._hc_bound(p, frac, floor)(rows) >= stat)

    @pytest.mark.parametrize("p,frac,floor", [(2, 0.5, False), (7, 0.1, True),
                                              (500, 0.5, True), (1024, 0.5, False)])
    def test_no_bound_where_it_cannot_pay(self, p, frac, floor):
        # head = 0, or fewer than two values per bucket
        assert de._hc_bound(p, frac, floor) is None


class TestPrunedTables:
    """Tables score only the rows whose bound reaches the running threshold;
    their quantiles must equal those of every row scored."""

    # head = floor(frac * p) is 0 for HC+ at alpha0 0.1 with p = 2, 3 and 7,
    # and 1 otherwise at p = 2 and 3; p = 2000 and 4 * BLOCK_VALUES + 3 have
    # bounds for both functionals
    @pytest.mark.parametrize("p,reps", [(2, 2000), (3, 2000), (7, 1000), (500, 600),
                                        (2000, 401), (4 * BLOCK_VALUES + 3, 200)])
    @pytest.mark.parametrize("variant,alpha0", [("ohc", 0.5), ("hcplus", 0.1),
                                                ("hcplus", 0.5)])
    def test_table_matches_full_reference(self, monkeypatch, p, reps, variant, alpha0):
        frac, floor = (0.5, False) if variant == "ohc" else (alpha0, True)
        rng = RngStream(24, p)
        stats = np.array([_reference_hc(rng.uniform(p), frac, floor) for _ in range(reps)])
        scored = _counting_hc(monkeypatch)
        # the first two sets read at most a tenth of the rows, so they prune
        undefined = 0
        for alphas in ([0.005], [0.01, 0.05], [0.05, 0.2], np.linspace(0.01, 0.99, 99)):
            scored.clear()
            # a quantile that interpolates from a statistic of -inf (an empty
            # HC+ feasible set) can come out NaN, and the table then raises
            with np.errstate(invalid="ignore"):
                expected = [float(np.quantile(stats, 1.0 - a)) for a in alphas]
            if np.isnan(expected).any():
                undefined += 1
                with pytest.raises(DomainError, match=f"no hcplus critical value at "
                                                      f"alpha .* and p {p}:"):
                    de.critical_value(p, alphas, variant, reps, rng=RngStream(24, p),
                                      alpha0=alpha0)
                continue
            table = de.critical_value(p, alphas, variant, reps, rng=RngStream(24, p),
                                      alpha0=alpha0)
            assert table.quantiles == tuple(expected)
            if p >= 2000 and max(alphas) <= 0.05:
                assert sum(scored) < reps
        assert (undefined > 0) == (variant == "hcplus" and p in (2, 3, 7))

    def test_paper_bandwidth_table_equals_full_computation(self):
        cfg = cli.resolve_config("bandwidth", None, {"scale": "paper"})
        p, reps, alpha = cfg["p"], cfg["null_reps"], cfg["alpha"] / cfg["b0"]
        table = de.critical_value(p, [alpha], "hcplus", reps,
                                  rng=RngStream(cfg["seed"], cli._TABLE_LANE),
                                  alpha0=cfg["alpha0"])
        rng = RngStream(cfg["seed"], cli._TABLE_LANE)
        stats = np.concatenate([de._hc(rng.uniform((hi - lo, p)), cfg["alpha0"], True)[0]
                                for lo, hi in row_blocks(reps, p)])
        assert (p, reps, alpha) == (5000, 20000, 0.005)
        assert table.quantiles == (float(np.quantile(stats, 1.0 - alpha)),)

    def test_few_rows_reach_the_kernel(self, monkeypatch):
        # at the bandwidth scan's shape about 4% of rows are scored exactly
        scored = _counting_hc(monkeypatch)
        de.critical_value(5000, [0.005], "hcplus", 2000, rng=RngStream(27, 0))
        assert sum(scored) < 0.15 * 2000


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
        mix = SimpleNamespace(p=self.p, epsilon=0.0, tau=3.0)
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
        mix = SimpleNamespace(p=self.p, epsilon=0.0, tau=0.0)
        table = de.critical_value(self.p, [0.05, 0.2, 0.4], num_null_reps=10**4,
                                  rng=RngStream(13, 0))
        for alpha in (0.05, 0.2, 0.4):
            est = de.power_estimate(mix, self.om, "ohc", alpha, 400,
                                    RngStream(13, 1), table=table)
            assert abs(est.size - alpha) <= 3 * math.sqrt(alpha * (1 - alpha) / 400) + 0.01

    def test_variants_coincide_under_identity(self):
        y = RngStream(14, 0).standard_normal(self.p)
        b, w, i = (de.hc_statistic(de.pvalues(y, self.om, v)).statistic
                   for v in ("bhc", "whc", "ihc"))
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
