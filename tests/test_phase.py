import math

import numpy as np
import pytest

from rareweak.errors import DomainError, SolverError
from rareweak import cli, phase as ph


class TestRhoDetect:
    def test_branches(self):
        assert ph.rho_detect(0.3) == 0.0
        assert ph.rho_detect(0.6) == pytest.approx(0.1)
        assert ph.rho_detect(0.84) == pytest.approx(0.36)

    def test_branch_continuity(self):
        eps = 1e-10
        assert abs(ph.rho_detect(0.5 + eps) - ph.rho_detect(0.5 - eps)) <= 1e-9
        assert abs(ph.rho_detect(0.75 + eps) - ph.rho_detect(0.75 - eps)) <= 1e-8
        assert ph.rho_detect(0.75) == pytest.approx(0.25)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(DomainError):
                ph.rho_detect(bad)


class TestRhoExactIdentity:
    def test_half(self):
        assert ph.rho_exact_identity(0.5) == pytest.approx((3 + 2 * math.sqrt(2)) / 2,
                                                           abs=1e-12)

    def test_limit_toward_one(self):
        assert ph.rho_exact_identity(1 - 1e-12) == pytest.approx(1.0, abs=1e-5)

    def test_three_quarters(self):
        assert ph.rho_exact_identity(0.75) == pytest.approx(2.25)


class TestBlockExponent:
    def test_hand_values(self):
        assert ph.block_exponent(0.5, 2.0, 0.0) == pytest.approx(0.78125)
        assert ph.block_exponent(0.5, 2.0, 0.5) == pytest.approx(0.78125)
        # the competing mechanisms at (0.5, 2, 0.5): 1.0 and 7/6
        v, r, h0 = 0.5, 2.0, 0.5
        t2 = v + 0.5 * (1 - abs(h0)) * r
        t3 = 2 * v + max((1 - h0**2) * r - v, 0.0) ** 2 / (4 * (1 - h0**2) * r)
        assert t2 == pytest.approx(1.0)
        assert t3 == pytest.approx(7.0 / 6.0)

    def test_extreme_h0_limits(self):
        v, r = 0.4, 1.3
        val = ph.block_exponent(v, r, 0.9999)
        t2 = v + 0.5 * (1 - 0.9999) * r
        assert val <= t2 + 1e-12
        assert ph.block_exponent(v, r, 0.9999) == pytest.approx(
            min((v + r) ** 2 / (4 * r), t2, 2 * v), abs=1e-3)

    def test_monotone_in_r_beyond_vartheta(self):
        for v in (0.3, 0.55, 0.8):
            for h0 in (0.0, 0.4, -0.7):
                grid = np.linspace(v + 1e-6, 30, 400)
                vals = [ph.block_exponent(v, r, h0) for r in grid]
                assert np.all(np.diff(vals) >= -1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ph.block_exponent(0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            ph.block_exponent(0.5, 0.0, 0.5)


class TestRhoExactBlock:
    def test_h0_zero_matches_identity(self):
        for v in np.arange(0.55, 0.96, 0.05):
            assert abs(ph.rho_exact_block(v, 0.0) - ph.rho_exact_identity(v)) <= 1e-6

    def test_never_below_identity(self):
        for v in (0.2, 0.5, 0.7, 0.9):
            for h0 in (-0.8, -0.3, 0.3, 0.8):
                assert ph.rho_exact_block(v, h0) >= ph.rho_exact_identity(v) - 1e-6

    def test_root_property(self):
        r = ph.rho_exact_block(0.75, 0.5)
        assert ph.block_exponent(0.75, r, 0.5) == pytest.approx(1.0, abs=1e-6)

    def test_no_root_raises(self, monkeypatch):
        monkeypatch.setattr(ph, "R_BRACKET_MAX", 0.6)
        with pytest.raises(SolverError):
            ph.rho_exact_block(0.5, 0.5)


class TestRhoChangepoint:
    def test_half(self):
        assert ph.rho_changepoint(0.5) == pytest.approx(2.0, abs=1e-12)

    def test_point_two(self):
        expect = max(3.2, 2.0 + 2.0 * math.sqrt(0.96))
        assert ph.rho_changepoint(0.2) == pytest.approx(expect, abs=1e-12)
        assert ph.rho_changepoint(0.2) == pytest.approx(3.9596, abs=1e-4)

    def test_limit_toward_one(self):
        assert ph.rho_changepoint(1 - 1e-9) == pytest.approx(0.0, abs=1e-6)


class TestRhoClassify:
    def test_theta_zero_is_detection_boundary(self):
        for v in (0.2, 0.55, 0.8):
            assert ph.rho_classify(v, 0.0) == ph.rho_detect(v)

    def test_composed_value(self):
        assert ph.rho_classify(0.48, 0.2) == pytest.approx(0.08)

    def test_vanishing_branch(self):
        assert ph.rho_classify(0.2, 0.4) == 0.0

    def test_vanishes_below_half_scaled(self):
        theta = 0.3
        for v in np.linspace(0.01, (1 - theta) / 2 - 1e-6, 25):
            assert ph.rho_classify(v, theta) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            ph.rho_classify(0.85, 0.2)


class TestRegions:
    def test_ordering_of_curves(self):
        for v in np.linspace(0.001, 0.999, 999):
            assert ph.rho_detect(v) < v < ph.rho_exact_identity(v)


class TestGridExport:
    def test_rows_and_csv(self, tmp_path):
        rows = ph.boundary_grid([0.3, 0.5, 0.9], theta=0.2)
        assert len(rows) == 3
        v, det, exact, cls = rows[1]
        assert v == 0.5
        assert exact == pytest.approx(ph.rho_exact_identity(0.5))
        assert cls == pytest.approx(ph.rho_classify(0.5, 0.2))
        assert math.isnan(rows[2][3])  # 0.9 >= 1 - theta
        cfg = cli.resolve_config("phase", {"vartheta_grid": [0.3, 0.5, 0.9]})
        path = tmp_path / "phase.csv"
        cli.run_phase(cfg).write_csv(path)
        body = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert body[0] == "vartheta,rho_detect,rho_exact,rho_classify_theta"
        assert len(body) == 1 + len(rows)

    def test_block_boundary_column(self):
        rows = ph.boundary_grid([0.6], theta=0.2, h0=0.5)
        assert rows[0][2] == pytest.approx(ph.rho_exact_block(0.6, 0.5), abs=1e-9)


class TestSimulatedDetectionBoundary:
    def test_ohc_power_follows_rho_detect(self):
        # Simulated HC power on either side of the closed-form boundary
        # r = rho_detect(vartheta): at half of it power stays near the size,
        # at three times it HC detects. At p = 1e4 power below the boundary
        # still runs a little above the size: over seeds 11-42, power - size
        # read -0.035 to 0.065 at m = 0.5 (mean 0.025), power 0.855-0.985 at
        # m = 3 and the size 0.02-0.085. The margins allow for that.
        reps, alpha = 200, 0.05
        grid = [[v, m * ph.rho_detect(v)] for v in (0.65, 0.75, 0.85) for m in (0.5, 3)]
        cfg = cli.resolve_config("detect", {
            "p": 10**4, "omega": {"kind": "identity"}, "variants": ["ohc"],
            "alpha": alpha, "reps": reps, "null_reps": 1000, "grid": grid})
        rows = cli.run_detect_power(cfg).rows
        assert [row[:2] for row in rows] == [tuple(point) for point in grid]
        se = math.sqrt(alpha * (1 - alpha) / reps)   # of one proportion at alpha
        for (v, r, _, size, power, _), m in zip(rows, [0.5, 3] * 3):
            assert abs(size - alpha) <= 3 * se
            if m == 0.5:
                assert abs(power - size) <= 5 * math.sqrt(2) * se, (v, r)
            else:
                assert power >= 0.8, (v, r)
