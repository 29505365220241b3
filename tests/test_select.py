import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from rareweak.errors import CapacityError, DegeneracyError, DomainError
from rareweak import cli, models as mo
from rareweak import select as se
from rareweak.graph import DependencyGraph, enum_connected_subgraphs
from rareweak.numerics import RngStream, normal_sf


class TestHardThreshold:
    def test_keep_or_kill(self):
        res = se.hard_threshold(np.array([3.0, -3.0, 1.0]), 2.0)
        assert np.array_equal(res.beta_hat, [3.0, -3.0, 0.0])
        assert list(res.support) == [0, 1]

    def test_threshold_above_max(self):
        res = se.hard_threshold(np.array([0.5, -0.3]), 1.0)
        assert np.all(res.beta_hat == 0)

    def test_universal_threshold_noise_floor(self):
        # oracle: expected survivors on pure noise is 2 p Phi_bar(sqrt(2 log p))
        p = 10**4
        t = se.universal_threshold(p)
        expect = 2 * p * normal_sf(t)
        assert expect < 1.0
        counts = []
        for k in range(40):
            y = RngStream(1, 0).child(k).standard_normal(p)
            counts.append(se.hard_threshold(y, t).support.size)
        counts = np.asarray(counts)
        assert np.mean(counts <= 5) >= 0.95
        total_expect = 40 * expect
        assert abs(counts.sum() - total_expect) <= 3 * math.sqrt(total_expect) + 3

    def test_validation(self):
        with pytest.raises(DomainError):
            se.hard_threshold(np.ones(3), 0.0)


class TestIdealQ:
    def test_strong_branch(self):
        assert se.ideal_q(0.5, 2.0) == pytest.approx(0.78125)

    def test_weak_branch(self):
        assert se.ideal_q(0.5, 0.3) == 0.5

    def test_continuity_at_equal(self):
        v = 0.37
        assert se.ideal_q(v, v) == pytest.approx(v)
        assert se.ideal_q(v, v + 1e-12) == pytest.approx(v, abs=1e-9)

    def test_threshold_scale(self):
        assert se.ideal_threshold(1000, 0.5, 2.0) == pytest.approx(
            math.sqrt(2 * 0.78125 * math.log(1000)))

    def test_overflowing_r_rejected(self):
        # (vartheta + r)^2 passes the largest float from r of about 1.34e154
        assert se.ideal_q(0.5, 1e150) == (0.5 + 1e150) ** 2 / 4e150
        with pytest.raises(DomainError, match=r"overflows at r=1e\+300"):
            se.ideal_q(0.5, 1e300)


class TestHamming:
    def test_identical(self):
        b = np.array([1.0, 0.0, -2.0])
        assert se.hamming(b, b) == 0

    def test_single_miss(self):
        tau = 2.5
        assert se.hamming(np.array([tau, 0, 0]), np.array([tau, 0, tau])) == 1

    def test_sign_flip_counts_all(self):
        b = np.array([1.0, 0.0, -1.0, 2.0])
        assert se.hamming(-b, b) == 3

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            se.hamming(np.ones(3), np.ones(4))

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, vals):
        a = np.array(vals)
        b = np.roll(a, 1)
        assert se.hamming(a, b) == se.hamming(b, a)


def _identity_instance(p, seed, vartheta=0.5, r=2.0):
    om = mo.PrecisionModel.identity(p)
    inst = mo.gen_arw(mo.ArwParams(p=p, vartheta=vartheta, r=r), om,
                      RngStream(seed, 0))
    return inst, om, mo.to_regression(inst)


class TestGsScreen:
    def test_identity_matches_hard_threshold(self):
        for seed in range(5):
            inst, om, reg = _identity_instance(500, 100 + seed)
            tuning = se.default_gs_tuning(500, 0.5, 2.0, m0=1, q=0.9)
            kept = se.gs_screen(reg, om.graph(), tuning)
            t = math.sqrt(2 * 0.9 * math.log(500))
            ht = se.hard_threshold(inst.y, t)
            assert np.array_equal(kept, ht.support)

    def test_zero_response_keeps_nothing(self):
        om = mo.PrecisionModel.identity(50)
        reg = mo.regression_from_y(np.zeros(50), om)
        tuning = se.default_gs_tuning(50, 0.5, 2.0, m0=1)
        assert se.gs_screen(reg, om.graph(), tuning).size == 0

    def test_planted_pair_retained(self):
        # noiseless planted pair in one block: both coordinates survive
        p, h0, tau = 4, 0.5, 12.0
        om = mo.PrecisionModel.block2(p, h0)
        y = np.array([tau, tau, 0.0, 0.0])
        reg = mo.regression_from_y(y, om)
        tuning = se.GsTuning(m0=2, q=0.9, u=1.0, v=1.0)
        kept = se.gs_screen(reg, om.graph(), tuning)
        assert {0, 1} <= set(kept.tolist())
        assert 2 not in kept and 3 not in kept

    def test_retention_monotone_in_q(self):
        for seed in range(50):
            inst, om, reg = _identity_instance(200, 200 + seed)
            sizes = []
            for q in (0.3, 0.7, 1.1):
                tuning = se.default_gs_tuning(200, 0.5, 2.0, m0=1, q=q)
                sizes.append(se.gs_screen(reg, om.graph(), tuning).size)
            assert sizes == sorted(sizes, reverse=True)


def _screen_reference(instance, graph, tuning):
    """gs_screen one subgraph at a time, every score through instance.quadform."""
    gate = 2.0 * tuning.q * math.log(instance.p)
    retained = set()
    for sub in enum_connected_subgraphs(graph, tuning.m0):
        try:
            t1 = instance.quadform(sub)
            inter = [j for j in sub if j in retained]
            t2 = instance.quadform(inter) if inter else 0.0
        except DegeneracyError as exc:
            warnings.warn(f"screen skipped degenerate subgraph {sub}: {exc}")
            continue
        if t1 - t2 >= gate:
            retained.update(sub)
    return np.array(sorted(retained), dtype=int)


def _screen_case(case, seed, p=24):
    """A regression instance and a graph: a random Gram pattern plus a chain,
    so some pairs have a zero off-diagonal entry."""
    rng = np.random.Generator(np.random.Philox(seed))
    if case == "asymmetric":
        a = np.eye(p)
    else:
        a = np.diag(rng.uniform(0.5, 2.0, p))
    iu = np.triu_indices(p, 1)
    pick = rng.uniform(size=iu[0].size) < 0.12
    a[iu[0][pick], iu[1][pick]] = a[iu[1][pick], iu[0][pick]] = \
        rng.uniform(-0.6, 0.6, pick.sum())
    if case == "degenerate":
        a[3, :] = a[:, 3] = 0.0  # a zero-norm column
        a[5, 5] = 0.0            # a zero diagonal entry with edges
        a[7, 7] = a[8, 8] = 1.0  # a rank-deficient pair
        a[7, 8] = a[8, 7] = 1.0 - 1e-12
    w = 3.0 * rng.standard_normal(p)
    if case == "asymmetric":
        # a custom precision matrix may be asymmetric by up to 1e-10; pair
        # (7, 8) is rank deficient read as stored (check_gram's eigvalsh reads
        # the lower entry), but not with the upper entry in both places
        a[iu[0][pick], iu[1][pick]] += 5e-11
        a[7, 8], a[8, 7] = 1.0 - 2.6e-10, 1.0 - 1.7e-10
        inst = mo.regression_from_y(w, mo.PrecisionModel.custom(a))
    else:
        gram = sp.csr_matrix(a) if case == "sparse" else a
        inst = mo.RegressionInstance(gram=gram, xtw=w)
    chain = np.column_stack([np.arange(p - 1), np.arange(1, p)])
    edges = np.vstack([np.argwhere(np.triu(a != 0.0, 1)), chain])
    return inst, DependencyGraph(p, edges)


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


class TestGsScreenBatched:
    @pytest.mark.parametrize("m0", [1, 2, 3])
    @pytest.mark.parametrize("case", ["sparse", "dense", "degenerate", "asymmetric"])
    def test_matches_per_subset_reference(self, case, m0):
        warned = 0
        for seed in range(6):
            inst, graph = _screen_case(case, seed)
            tuning = se.GsTuning(m0=m0, q=0.9, u=1.0, v=1.0)
            got, got_warnings = _recorded(se.gs_screen, inst, graph, tuning)
            ref, ref_warnings = _recorded(_screen_reference, inst, graph, tuning)
            assert np.array_equal(got, ref) and got.dtype == ref.dtype
            assert got_warnings == ref_warnings
            assert 0 < ref.size < inst.p
            warned += len(ref_warnings)
        assert (warned > 0) == (case == "degenerate" or (case == "asymmetric" and m0 > 1))

    def test_block2_pairs_make_no_quadform_call(self, monkeypatch):
        calls = []
        quadform = mo.RegressionInstance.quadform

        def counted(self, idx):
            calls.append(idx)
            return quadform(self, idx)

        monkeypatch.setattr(mo.RegressionInstance, "quadform", counted)
        om = mo.PrecisionModel.block2(400, 0.5)
        inst = mo.gen_arw(mo.ArwParams(p=400, vartheta=0.4, r=2.0), om, RngStream(35, 0))
        tuning = se.default_gs_tuning(400, 0.4, 2.0, m0=2)
        kept = se.gs_screen(mo.to_regression(inst), om.graph(), tuning)
        assert kept.size > 0 and calls == []

    @pytest.mark.parametrize("m0", [1, 2, 3])
    @pytest.mark.parametrize("case", ["sparse", "dense", "degenerate", "asymmetric"])
    def test_plan_screens_as_graph(self, case, m0):
        # one plan shared by several responses screens each as its graph does
        inst, graph = _screen_case(case, 0)
        tuning = se.GsTuning(m0=m0, q=0.9, u=1.0, v=1.0)
        plan = se.gs_plan(inst.gram, graph, m0)
        for seed in range(4):
            w = 3.0 * RngStream(36, seed).standard_normal(inst.p)
            one = mo.RegressionInstance(gram=inst.gram, xtw=w)
            got, got_warnings = _recorded(se.gs_screen, one, plan, tuning)
            ref, ref_warnings = _recorded(se.gs_screen, one, graph, tuning)
            assert np.array_equal(got, ref) and got_warnings == ref_warnings

    def test_plan_mismatch_rejected(self):
        inst, graph = _screen_case("sparse", 0)
        tuning = se.GsTuning(m0=2, q=0.9, u=1.0, v=1.0)
        with pytest.raises(DomainError, match="plan is for p=24, m0=1"):
            se.gs_screen(inst, se.gs_plan(inst.gram, graph, 1), tuning)
        small, small_graph = _screen_case("sparse", 0, p=20)
        with pytest.raises(DomainError, match="plan is for p=20, m0=2"):
            se.gs_screen(inst, se.gs_plan(small.gram, small_graph, 2), tuning)
        with pytest.raises(DomainError, match="graph has 20 nodes"):
            se.gs_screen(inst, small_graph, tuning)


class TestGsClean:
    def test_empty_retained(self):
        om = mo.PrecisionModel.identity(20)
        reg = mo.regression_from_y(np.ones(20), om)
        tuning = se.default_gs_tuning(20, 0.5, 2.0)
        res = se.gs_clean(reg, om.graph(), np.array([], dtype=int), tuning)
        assert np.all(res.beta_hat == 0)

    def test_singleton_decision_rule(self):
        # under an identity design the one-node objective has a closed form:
        # keep W_j when W_j^2 > u^2 and |W_j| >= v, otherwise compare the
        # v-clipped candidate -2 v |W_j| + v^2 + u^2 against dropping it
        om = mo.PrecisionModel.identity(1)
        g = om.graph()
        u, v = 1.5, 2.5
        tuning = se.GsTuning(m0=1, q=0.5, u=u, v=v)
        for w in (0.4, 1.4, 1.8, 2.2, 2.6, 5.0, -2.2, -5.0):
            reg = mo.regression_from_y(np.array([float(w)]), om)
            res = se.gs_clean(reg, g, np.array([0]), tuning)
            if abs(w) >= v:
                expect = w if w * w > u * u else 0.0
            else:
                clipped_obj = -2 * v * abs(w) + v * v + u * u
                expect = math.copysign(v, w) if clipped_obj < 0 else 0.0
            assert res.beta_hat[0] == pytest.approx(expect)

    def test_orthogonal_pair_decouples(self):
        # a two-node component whose columns are orthogonal solves like two
        # independent singletons
        from rareweak.graph import DependencyGraph

        om_pair = mo.PrecisionModel.identity(2)
        graph_joined = DependencyGraph(2, [(0, 1)])
        tuning = se.GsTuning(m0=2, q=0.5, u=1.0, v=1.2)
        w = np.array([3.0, 0.4])
        reg = mo.regression_from_y(w, om_pair)
        res = se.gs_clean(reg, graph_joined, np.array([0, 1]), tuning)
        singles = [
            se.gs_clean(mo.regression_from_y(np.array([wi]), mo.PrecisionModel.identity(1)),
                        mo.PrecisionModel.identity(1).graph(), np.array([0]), tuning).beta_hat[0]
            for wi in w
        ]
        assert np.allclose(res.beta_hat, singles)

    def test_magnitude_floor(self):
        om = mo.PrecisionModel.block2(20, -0.4)
        inst = mo.gen_arw(mo.ArwParams(p=20, vartheta=0.4, r=2.0), om, RngStream(31, 0))
        reg = mo.to_regression(inst)
        tuning = se.default_gs_tuning(20, 0.4, 2.0, m0=2)
        kept = se.gs_screen(reg, om.graph(), tuning)
        res = se.gs_clean(reg, om.graph(), kept, tuning)
        nz = res.beta_hat[res.beta_hat != 0]
        assert np.all(np.abs(nz) >= tuning.v - 1e-12)

    def test_component_cap(self, monkeypatch):
        monkeypatch.setattr(se, "CLEAN_COMPONENT_CAP", 3)
        p = 6
        om = mo.PrecisionModel.custom(np.eye(p))
        from rareweak.graph import DependencyGraph

        g = DependencyGraph(p, [(i, i + 1) for i in range(p - 1)])
        reg = mo.regression_from_y(np.ones(p), om)
        tuning = se.GsTuning(m0=2, q=0.5, u=1.0, v=1.0)
        with pytest.raises(CapacityError):
            se.gs_clean(reg, g, np.arange(p), tuning)


class TestGsEstimate:
    def test_pure_noise_keeps_almost_nothing(self):
        om = mo.PrecisionModel.identity(2000)
        mix = SimpleNamespace(p=2000, epsilon=0.0, tau=0.0)
        plan = se.gs_plan(om.omega, om.graph(), 1)
        sizes = []
        for k in range(20):
            inst = mo.gen_arw(mix, om, RngStream(32, 0).child(k))
            sizes.append(se.gs_estimate(inst.y, om, plan, 0.5, 4.0, q=0.9).support.size)
        assert np.mean(np.asarray(sizes) <= 10) >= 0.95

    def test_beats_universal_hard_threshold(self):
        om = mo.PrecisionModel.identity(2000)
        params = mo.ArwParams(p=2000, vartheta=0.5, r=4.0)
        plan = se.gs_plan(om.omega, om.graph(), 1)
        gs_err, ht_err = [], []
        for k in range(40):
            inst = mo.gen_arw(params, om, RngStream(33, 0).child(k))
            gs = se.gs_estimate(inst.y, om, plan, 0.5, 4.0, q=0.9)
            ht = se.hard_threshold(inst.y, se.universal_threshold(2000))
            gs_err.append(se.hamming(gs.beta_hat, inst.beta))
            ht_err.append(se.hamming(ht.beta_hat, inst.beta))
        assert np.mean(gs_err) <= np.mean(ht_err)

    def test_beats_us_under_cancellation(self):
        p, h0 = 400, -0.8
        om = mo.PrecisionModel.block2(p, h0)
        vartheta, r = 0.45, 3.5
        plan = se.gs_plan(om.omega, om.graph(), 2)
        gs_err, us_err = [], []
        for k in range(40):
            inst = mo.gen_arw(mo.ArwParams(p=p, vartheta=vartheta, r=r), om,
                              RngStream(34, 0).child(k))
            gs = se.gs_estimate(inst.y, om, plan, vartheta, r, q=0.9)
            reg = mo.to_regression(inst)
            us = se.hard_threshold(reg.xtw, se.ideal_threshold(p, vartheta, r))
            gs_err.append(se.hamming(gs.beta_hat, inst.beta))
            us_err.append(se.hamming(us.beta_hat, inst.beta))
        assert np.mean(gs_err) < np.mean(us_err)


class TestReports:
    def test_hamming_report_csv(self, tmp_path):
        rep = se.hamming_report([2, 0, 1, 3])
        assert rep.mean == pytest.approx(1.5)
        # reports reach disk as rows of the recover experiment's CSV
        cfg = cli.resolve_config("recover", {"p_grid": [64], "reps": 2})
        path = tmp_path / "recover.csv"
        cli.run_recover(cfg).write_csv(path)
        body = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert body[0] == "p,method,mean_hamming,se"
