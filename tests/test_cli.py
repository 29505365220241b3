import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rareweak.errors import ConfigError
from rareweak import apps, cli, detect, phase, select
from rareweak.models import PrecisionModel, pair_blocks
from rareweak.numerics import RngStream, row_blocks, sym_sqrt


TINY = {
    "detect": {"p": 200, "grid": [[0.6, 1.5]], "variants": ["ohc"],
               "reps": 50, "null_reps": 200},
    "recover": {"p_grid": [64, 128], "reps": 4,
                "methods": ["ht_ideal", "ht_universal", "gs"]},
    "bandwidth": {"p": 200, "n": 60, "b": 1, "b0": 2, "cases": [[0.05, 0.5]],
                  "reps": 4, "null_reps": 200},
    "ranking": {"p": 60, "reps": 4, "cases": [[-0.8, 4.0]]},
    "classify": {"p": 300, "grid": [[0.3, 1.5]], "reps": 20, "test_size": 40},
    "phase": {"vartheta_grid": [0.3, 0.5, 0.7]},
}


class TestConfigResolution:
    def test_defaults_fill_every_field(self):
        cfg = cli.resolve_config("detect", None)
        assert cfg["scale"] == "desk"
        assert cfg["seed"] == 20260801
        assert "p" in cfg and "variants" in cfg and "threads" in cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.resolve_config("detect", {"oops": 3})

    def test_ranking_has_no_sample_size(self, tmp_path, capsys):
        # ranking draws its statistics from the exact Gram, so n is unknown
        config_path = tmp_path / "ranking.json"
        config_path.write_text(json.dumps({"n": 5}))
        assert cli.main(["ranking", "--config", str(config_path),
                         "--out", str(tmp_path)]) == 2
        assert "unknown config keys for ranking: ['n']" in capsys.readouterr().err
        assert "n" not in cli.resolve_config("ranking", None, {"scale": "paper"})

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            cli.resolve_config("detect", {"experiment": "phase"})

    def test_scale_switches_presets(self):
        desk = cli.resolve_config("bandwidth", None)
        paper = cli.resolve_config("bandwidth", None, {"scale": "paper"})
        assert desk["p"] == 2000 and paper["p"] == 5000
        assert len(paper["cases"]) == 6

    def test_overrides_beat_config(self):
        cfg = cli.resolve_config("phase", {"seed": 5}, {"seed": 9, "threads": 2})
        assert cfg["seed"] == 9 and cfg["threads"] == 2

    def test_validators_fire(self):
        with pytest.raises(ConfigError):
            cli.resolve_config("bandwidth", {"reps": 0})
        with pytest.raises(ConfigError):
            cli.resolve_config("detect", {"alpha": 1.5})
        with pytest.raises(ConfigError):
            cli.resolve_config("ranking", {"p": 99})
        with pytest.raises(ConfigError):
            cli.resolve_config("classify", {"theta": 0.0})
        with pytest.raises(ConfigError):
            cli.resolve_config("recover", {"methods": ["lasso"]})

    @pytest.mark.parametrize("raw", [{"p": "2000"}, {"reps": 50.5}, {"reps": True},
                                     {"cases": [["-0.8", 4.0]]}],
                             ids=["str_int", "float_int", "bool_int", "str_in_list"])
    def test_wrongly_typed_value_exit_code(self, tmp_path, capsys, raw):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(raw))
        assert cli.main(["ranking", "--config", str(config_path),
                         "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "ranking.csv").exists()

    @pytest.mark.parametrize("experiment,raw", [
        ("recover", {"p_grid": [512.7]}),
        ("recover", {"p_grid": [512, 1024.0]}),
        ("detect", {"grid": [[0.5, True]]}),
        ("bandwidth", {"cases": [[0.01, True]]}),
        ("ranking", {"cases": [[False, 4.0]]}),
        ("detect", {"omega": {"kind": "block2", "h0": "0.5"}}),
        ("phase", {"vartheta_grid": {"start": 0.1, "stop": 0.5, "num": 2.5}}),
        ("phase", {"vartheta_grid": {"start": 0.1, "stop": 0.5, "num": True}}),
        ("phase", {"h0": False}),
        ("detect", {"grid": [[0.6, math.inf]]}),
        ("detect", {"alpha0": math.nan}),
        ("recover", {"r": math.inf}),
        ("recover", {"q": math.inf}),
        ("bandwidth", {"cases": [[0.5, math.inf]]}),
        ("bandwidth", {"alpha0": math.nan}),
        ("ranking", {"cases": [[-0.8, math.inf]]}),
        ("ranking", {"delta": math.inf}),
        ("classify", {"grid": [[0.3, math.inf]]}),
        ("ranking", {"delta": 10**400}),
    ], ids=["float_p", "integral_float_p", "bool_grid", "bool_case", "bool_h0",
            "str_omega_h0", "float_num", "bool_num", "bool_phase_h0",
            "inf_detect_r", "nan_detect_alpha0", "inf_recover_r", "inf_recover_q",
            "inf_bandwidth_tau", "nan_bandwidth_alpha0", "inf_ranking_tau",
            "inf_ranking_delta", "inf_classify_r", "huge_int_ranking_delta"])
    def test_wrongly_typed_list_entry_exit_code(self, tmp_path, capsys,
                                                experiment, raw):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(raw))
        assert cli.main([experiment, "--config", str(config_path),
                         "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}.csv").exists()

    @pytest.mark.parametrize("alpha0", [0, -0.1, 0.75])
    @pytest.mark.parametrize("experiment", ["detect", "bandwidth"])
    def test_alpha0_out_of_range_exit_code(self, tmp_path, capsys, experiment, alpha0):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"alpha0": alpha0}))
        assert cli.main([experiment, "--config", str(config_path),
                         "--out", str(tmp_path)]) == 2
        assert "alpha0 must be a finite number in (0, 0.5]" in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}.csv").exists()

    @pytest.mark.parametrize("experiment,raw,rule", [
        ("detect", {"omega": {"kind": "block2", "h0": 0.5}, "p": 301},
         "an even p under a block2 omega"),
        ("classify", {"omega": {"kind": "block2", "h0": 0.5}, "p": 301},
         "an even p under a block2 omega"),
        ("recover", {"omega": {"kind": "block2", "h0": 0.5}, "p_grid": [64, 65],
                     "reps": 2}, "an even p under a block2 omega"),
        ("classify", {"p": 10, "alpha0": 0.05}, "alpha0 * p >= 1"),
        # the last diagonal of the scan would hold one entry
        ("bandwidth", {"p": 20, "b0": 19, "null_reps": 100, "reps": 1},
         "b <= b0 <= p - 2"),
        # an HC+ null table with no feasible index has a NaN threshold
        ("detect", {"p": 4, "variants": ["hcplus"], "alpha0": 0.1, "reps": 50,
                    "null_reps": 100}, "alpha0 * p >= 1 for the hcplus variant"),
        ("bandwidth", {"p": 12, "b0": 10, "alpha0": 0.05, "n": 20, "reps": 1,
                       "null_reps": 100}, "alpha0 * p >= 1"),
    ], ids=["odd_p_block2_detect", "odd_p_block2_classify", "odd_p_block2_recover",
            "classify_alpha0_p_below_one", "bandwidth_b0_p_minus_one",
            "detect_hcplus_alpha0_p_below_one", "bandwidth_alpha0_p_below_one"])
    def test_config_the_runner_rejects_exit_code(self, tmp_path, capsys, monkeypatch,
                                                 experiment, raw, rule):
        # rules that relate fields fail when the config is resolved, before
        # any simulation (no null table either), not as a runner error after
        # part of the run
        tables = []
        monkeypatch.setattr(cli.detect, "critical_value",
                            lambda *args, **kwargs: tables.append(args))
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(raw))
        assert cli.main([experiment, "--config", str(config_path),
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {experiment} config needs {rule}\n"
        assert not (tmp_path / f"{experiment}.csv").exists()
        assert tables == []

    def test_bandwidth_b0_at_p_minus_two_runs(self, tmp_path):
        # the last diagonal of the scan then holds the two entries it needs
        config_path = tmp_path / "edge.json"
        config_path.write_text(json.dumps({"p": 20, "b0": 18, "null_reps": 100, "reps": 1}))
        assert cli.main(["bandwidth", "--config", str(config_path),
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "bandwidth.csv").exists()

    def test_detect_nan_threshold_exit_code(self, tmp_path, capsys):
        # every null statistic the 0.1 quantile reads is -inf (no sorted
        # P-value above 1/p among the first two), so no threshold exists
        config_path = tmp_path / "nan.json"
        config_path.write_text(json.dumps({"p": 4, "variants": ["hcplus"], "alpha": 0.9,
                                           "reps": 50, "null_reps": 100}))
        assert cli.main(["detect", "--config", str(config_path),
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: no hcplus critical value at alpha 0.9 and p 4: "
                       "its null quantile interpolates from a statistic of -inf\n")
        assert not (tmp_path / "detect.csv").exists()

    def test_detect_minus_inf_threshold_exit_code(self, tmp_path, capsys):
        # the 0.29 quantile lies over half way from a null statistic of -inf
        # to a finite one, so it comes out -inf, a threshold that rejects all
        config_path = tmp_path / "inf.json"
        config_path.write_text(json.dumps({"p": 4, "variants": ["hcplus"], "alpha": 0.71,
                                           "reps": 50, "null_reps": 100}))
        assert cli.main(["detect", "--config", str(config_path),
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: no hcplus critical value at alpha 0.71 and p 4: "
                       "its null quantile interpolates from a statistic of -inf\n")
        assert not (tmp_path / "detect.csv").exists()

    def test_recover_overflowing_r_exit_code(self, tmp_path, capsys):
        # the schema takes any finite r, but (vartheta + r)^2 overflows here
        config_path = tmp_path / "r.json"
        config_path.write_text(json.dumps({"p_grid": [8], "reps": 1, "methods": ["gs"],
                                           "r": 1e308}))
        assert cli.main(["recover", "--config", str(config_path),
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "r=1e+308" in err and err.count("\n") == 1
        assert not (tmp_path / "recover.csv").exists()

    @pytest.mark.parametrize("experiment,raw", [
        ("detect", {"p": 301}), ("classify", {"p": 301}),
        ("recover", {"p_grid": [64, 65]}), ("classify", {"p": 10, "alpha0": 0.1}),
        ("detect", {"p": 10, "variants": ["hcplus"], "alpha0": 0.1}),
        ("detect", {"p": 4, "variants": ["ohc"], "alpha0": 0.1}),
    ])
    def test_cross_checks_accept_their_boundary(self, experiment, raw):
        # an odd p is fine under the identity, and alpha0 * p = 1 is enough
        assert cli.resolve_config(experiment, raw)["omega"] == {"kind": "identity"}

    def test_bandwidth_alpha0_p_of_one_accepted(self):
        cfg = cli.resolve_config("bandwidth", {"p": 20, "b0": 18, "alpha0": 0.05})
        assert (cfg["p"], cfg["alpha0"]) == (20, 0.05)

    @pytest.mark.parametrize("overrides", [
        {"threads": 0}, {"seed": -1}, {"seed": 2**64}, {"seed": 3.0},
        {"scale": "huge"}, {"out": 5}])
    def test_overrides_are_checked(self, overrides):
        with pytest.raises(ConfigError):
            cli.resolve_config("phase", None, overrides)

    @pytest.mark.parametrize("experiment,raw,digest", [
        ("ranking", {"delta": 1, "reps": 3}, "b288018b0a1a"),
        ("detect", {"alpha": 0.1, "p": 500, "omega": {"kind": "block2", "h0": 0.5}},
         "20c05564475a"),
        ("phase", {"theta": 0, "h0": 0.5}, "617fa12e77aa"),
        ("recover", {"p_grid": [512, 1024], "reps": 2}, "3a73491bf50f"),
        ("classify", {"grid": [[0.3, 1], [0.5, 0.02]]}, "e955253f61a7"),
        ("bandwidth", {"cases": [[0, 0.25], [0.01, 1]]}, "664e85d849ea"),
        ("phase", {"vartheta_grid": {"start": 0.1, "stop": 0.5, "num": 5}},
         "b8cc963429fd"),
        ("detect", {"omega": {"kind": "block2", "h0": 0}}, "d9547df07f20"),
        ("detect", {}, "3e34d5c2531e"),
        ("detect", {"scale": "paper"}, "c29c4b25db20"),
        ("recover", {}, "fe1824ab67a8"),
        ("recover", {"scale": "paper"}, "c4291ecbbe51"),
        ("bandwidth", {}, "924433e9ed66"),
        ("bandwidth", {"scale": "paper"}, "5d998146d820"),
        ("ranking", {}, "4531c508fbd5"),
        ("ranking", {"scale": "paper"}, "e3de1b422059"),
        ("classify", {}, "3174a46bdc8e"),
        ("classify", {"scale": "paper"}, "135c3336d166"),
        ("phase", {}, "90ea8192a332"),
        ("phase", {"scale": "paper"}, "14e2e65dd4b2"),
    ])
    def test_valid_config_hash_pinned(self, experiment, raw, digest):
        # an int is a valid float value, kept as written in the hashed config
        assert cli.config_hash(cli.resolve_config(experiment, raw)) == digest

    def test_hash_is_stable_and_sensitive(self):
        a = cli.resolve_config("phase", None)
        b = cli.resolve_config("phase", None)
        assert cli.config_hash(a) == cli.config_hash(b)
        c = cli.resolve_config("phase", {"theta": 0.3})
        assert cli.config_hash(a) != cli.config_hash(c)

    def test_resolved_defaults_are_copies(self):
        # mutating one resolved config leaves the schema's defaults alone
        first = cli.resolve_config("bandwidth", None, {"scale": "paper"})
        first["cases"].append([0.1, 0.1])
        first["cases"][0][1] = 9.0
        nxt = cli.resolve_config("bandwidth", None, {"scale": "paper"})
        assert len(nxt["cases"]) == 6
        assert cli.config_hash(nxt) == "5d998146d820"


_NUMBER = (st.sampled_from([math.nan, math.inf, -math.inf, 2**64, 10**400, -10**400])
           | st.floats() | st.integers())
_JSON = st.recursive(st.none() | st.booleans() | st.text(max_size=6) | _NUMBER,
                     lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.text(max_size=6), kids, max_size=3),
                     max_leaves=8)


@st.composite
def _json_near(draw, default):
    """Any JSON value, or the default with one entry, at any depth, replaced."""
    if isinstance(default, (list, dict)) and default and draw(st.booleans()):
        key = draw(st.sampled_from(range(len(default)) if isinstance(default, list)
                                   else sorted(default)))
        value = list(default) if isinstance(default, list) else dict(default)
        value[key] = draw(_json_near(default[key]))
        return value
    return draw(_NUMBER | _JSON)


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_resolved_config_is_checked_or_rejected(data):
    # any JSON value in any field: a ConfigError, or a config whose numbers
    # are all finite doubles; nothing else escapes
    experiment = data.draw(st.sampled_from(cli.EXPERIMENTS))
    scale = data.draw(st.sampled_from(["desk", "paper"]))
    defaults = cli.resolve_config(experiment, None, {"scale": scale})
    keys = data.draw(st.lists(st.sampled_from(sorted(defaults)), min_size=1,
                              max_size=2, unique=True))
    raw = {"scale": scale, **{k: data.draw(_json_near(defaults[k])) for k in keys}}
    try:
        cfg = cli.resolve_config(experiment, raw)
    except ConfigError:
        return
    assert all(math.isfinite(float(x)) for x in _numbers(cfg))


class TestResultTable:
    def test_float_formatting(self):
        cfg = cli.resolve_config("phase", None)
        table = cli.ResultTable("phase", ["a"], [(1.0 / 3.0,)], cfg)
        body = table.body_lines()
        assert body[0] == "a"
        assert body[1] == format(1.0 / 3.0, ".17g")

    def test_header_carries_hash_and_seed(self):
        cfg = cli.resolve_config("phase", None, {"seed": 77})
        table = cli.run_phase(cfg)
        header = table.header_lines()
        assert any("config_hash=" in line for line in header)
        assert any(line == "# seed=77" for line in header)


class TestRunners:
    def test_phase_grid_values(self):
        cfg = cli.resolve_config("phase", {"vartheta_grid": [0.5, 0.6], "theta": 0.2})
        table = cli.run_phase(cfg)
        assert table.columns == ["vartheta", "rho_detect", "rho_exact",
                                 "rho_classify_theta"]
        row = table.rows[0]
        assert row[2] == pytest.approx((3 + 2 * math.sqrt(2)) / 2, abs=1e-12)
        assert row[3] == phase.rho_classify(0.5, 0.2)

    def test_detect_empty_grid_gives_header_only(self):
        cfg = cli.resolve_config("detect", dict(TINY["detect"], grid=[]))
        table = cli.run_detect_power(cfg)
        assert table.rows == []
        assert table.body_lines() == ["vartheta,r,variant,size,power,se"]

    def test_detect_rows(self):
        cfg = cli.resolve_config("detect", TINY["detect"])
        table = cli.run_detect_power(cfg)
        assert len(table.rows) == 1
        v, r, variant, size, power, se = table.rows[0]
        assert variant == "ohc" and 0 <= size <= 1 and 0 <= power <= 1

    def test_detect_tables_follow_sorted_functionals(self, monkeypatch):
        # one table per functional the variants need: table i is simulated
        # from lane 0's child(i), over the functionals in sorted order
        seen = []
        simulate = detect.critical_value

        def recording(p, alphas, variant, *args, rng, **kwargs):
            seen.append((variant, rng.path))
            return simulate(p, alphas, variant, *args, rng=rng, **kwargs)

        monkeypatch.setattr(detect, "critical_value", recording)
        raw = dict(TINY["detect"], variants=["ihc", "hcplus", "bhc", "ohc"])
        cli.run_detect_power(cli.resolve_config("detect", raw))
        assert seen == [("hcplus", (0, 0)), ("ohc", (0, 1))]

    def test_recover_duplicate_grid_rows_identical(self):
        cfg = cli.resolve_config(
            "recover", dict(TINY["recover"], p_grid=[64, 64], methods=["ht_ideal"]))
        table = cli.run_recover(cfg)
        assert table.rows[0] == table.rows[1]

    def test_recover_all_methods(self):
        cfg = cli.resolve_config("recover", TINY["recover"])
        table = cli.run_recover(cfg)
        methods = {row[1] for row in table.rows}
        assert methods == {"ht_ideal", "ht_universal", "gs"}

    @pytest.mark.parametrize("methods,plans", [(["ht_ideal", "gs"], [64, 128]),
                                               (["ht_ideal"], [])])
    def test_recover_plans_once_per_p(self, monkeypatch, methods, plans):
        # the screening plan depends on Omega alone: one per grid value,
        # shared by every replicate, and none without gs
        seen = []
        plan = select.gs_plan

        def recording(gram, graph, m0):
            seen.append(gram.shape[0])
            return plan(gram, graph, m0)

        monkeypatch.setattr(select, "gs_plan", recording)
        cli.run_recover(cli.resolve_config("recover", dict(TINY["recover"],
                                                           methods=methods)))
        assert seen == plans

    def test_bandwidth_summary_rows(self):
        cfg = cli.resolve_config("bandwidth", TINY["bandwidth"])
        table = cli.run_bandwidth(cfg)
        rep_rows = [r for r in table.rows if r[2] >= 0]
        summaries = [r for r in table.rows if r[2] == -1]
        assert len(rep_rows) == 4 and len(summaries) == 1
        assert 0.0 <= summaries[0][4] <= 1.0

    def test_ranking_rows(self):
        cfg = cli.resolve_config("ranking", TINY["ranking"])
        table = cli.run_ranking(cfg)
        summary = [r for r in table.rows if r[2] == -1]
        assert len(summary) == 1
        assert 0.0 <= summary[0][3] <= 1.0 and 0.0 <= summary[0][4] <= 1.0

    def test_classify_rows(self):
        cfg = cli.resolve_config("classify", TINY["classify"])
        table = cli.run_classify(cfg)
        assert len(table.rows) == 1
        assert 0.0 <= table.rows[0][4] <= 1.0

    def test_detect_transform_ordering_paired(self):
        # under the paired-block model the innovated scan should not trail the
        # marginal one (paired replicates share draws, so compare directly)
        cfg = cli.resolve_config("detect", {
            "p": 2000, "omega": {"kind": "block2", "h0": 0.5},
            "grid": [[0.6, 0.9]], "variants": ["bhc", "whc", "ihc"],
            "reps": 200, "null_reps": 2000, "threads": 2})
        table = cli.run_detect_power(cfg)
        power = {row[2]: row[4] for row in table.rows}
        se_ = {row[2]: row[5] for row in table.rows}
        joint = 2 * math.hypot(se_["ihc"], se_["bhc"])
        assert power["ihc"] >= power["bhc"] - joint


    def test_ranking_plans_once_per_case(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        for module, name in ((cli, "graph_from_matrix"),
                             (select, "enum_connected_subgraphs")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        raw = dict(TINY["ranking"], reps=4, cases=[[-0.8, 4.0], [0.8, 1.5]])
        bodies = []
        for threads in (1, 2):
            calls.clear()
            cfg = cli.resolve_config("ranking", raw, {"threads": threads})
            bodies.append(cli.run_ranking(cfg).body_lines())
            assert sorted(calls) == ["enum_connected_subgraphs"] * 2 + ["graph_from_matrix"] * 2
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("raw, blocks", [
        ({"p": 1000, "reps": 28}, 6),              # 8, 8 and 12 rows per case
        (dict(TINY["ranking"], reps=12), 2),        # some rows have no support
        (dict(TINY["ranking"], epsilon=0.0), 0),    # no row has support
    ])
    def test_ranking_scores_once_per_block(self, monkeypatch, raw, blocks):
        calls = []

        def counting(name, fn):
            def counted(*args):
                block = args[0] if name == "roc_curve" else args[0].xtw
                calls.append((name, np.ndim(block)))
                return fn(*args)
            return counted

        for name in ("rank_features_us", "rank_features_gs", "roc_curve"):
            monkeypatch.setattr(apps, name, counting(name, getattr(apps, name)))
        raw = dict(raw, cases=[[-0.8, 4.0], [0.8, 1.5]])
        cfg = cli.resolve_config("ranking", raw)
        # blocks of consecutive replicates follow numerics.row_blocks
        per_case = len(row_blocks(cfg["reps"], cfg["p"]))
        assert blocks in (0, len(cfg["cases"]) * per_case)
        bodies = []
        for threads in (1, 2, 3, 4):
            calls.clear()
            cfg = cli.resolve_config("ranking", raw, {"threads": threads})
            bodies.append(cli.run_ranking(cfg).body_lines())
            assert sorted(calls) == ([("rank_features_gs", 2)] * blocks
                                     + [("rank_features_us", 2)] * blocks
                                     + [("roc_curve", 2)] * 2 * blocks)
        assert all(body == bodies[0] for body in bodies)
        assert ("nan" in "".join(bodies[0])) == (blocks != 6)
        # scoring one replicate at a time gives the same bytes
        monkeypatch.setattr(cli, "row_blocks", lambda n, p: [(k, k + 1) for k in range(n)])
        calls.clear()
        assert cli.run_ranking(cfg).body_lines() == bodies[0]
        scored = [row for row in (line.split(",") for line in bodies[0][1:])
                  if row[2] != "-1" and row[3] != "nan"]
        assert len(calls) == 4 * len(scored)

    def test_ranking_pools_only_blocks_past_the_floor(self, monkeypatch):
        # blocks at row_blocks' 4-row floor holding more than BLOCK_VALUES
        # values (p >= 2,049) go to a pool, one per case; smaller blocks run
        # in order on the calling thread whatever --threads says
        pools = []
        real = cli.ThreadPoolExecutor

        def counting(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", counting)
        cases = [[-0.8, 4.0], [0.8, 1.5]]
        for p in (2050, 4000):
            raw = dict(TINY["ranking"], p=p, reps=14, cases=cases)
            assert len(row_blocks(raw["reps"], p)) == 3
            bodies = []
            for threads in (1, 2, 3):
                pools.clear()
                cfg = cli.resolve_config("ranking", raw, {"threads": threads})
                bodies.append(cli.run_ranking(cfg).body_lines())
                assert pools == ([threads] * len(cases) if threads > 1 else [])
            assert all(body == bodies[0] for body in bodies)
            assert "nan" not in "".join(bodies[0])
        pools.clear()
        raw = dict(TINY["ranking"], p=1000, reps=28, cases=cases)
        cli.run_ranking(cli.resolve_config("ranking", raw, {"threads": 2}))
        assert pools == []

    @staticmethod
    def _ranking_operators(p, h0):
        # Sigma and Sigma^{1/2} as run_ranking builds them for one case
        tile = np.array([[1.0, h0], [h0, 1.0]])
        return pair_blocks(p, tile), pair_blocks(p, sym_sqrt(tile))

    @pytest.mark.parametrize("h0", [-0.95, -0.8, 0.0, 1e-13, 0.5, 0.8, 0.95])
    def test_ranking_operators_are_block2_blocks(self, h0):
        p = 40
        sigma, sigma_sqrt = self._ranking_operators(p, h0)
        model = PrecisionModel.block2(p, h0)
        assert sp.isspmatrix_csr(sigma) and sp.isspmatrix_csr(sigma_sqrt)
        assert np.array_equal(sigma.toarray(), model.dense())
        assert np.array_equal(sigma_sqrt.toarray(), model.sqrt_matrix().toarray())

    @pytest.mark.parametrize("h0", [-0.8, 0.0, 0.8])
    def test_ranking_products_match_block_row_sums(self, h0):
        # the CSR products add each row's two tile terms in column order, the
        # sums the runner formed from (p, 2) block rows before
        p = 200
        sigma, sigma_sqrt = self._ranking_operators(p, h0)
        rows = np.arange(p)[:, None]
        cols = (rows & ~1) + np.arange(2)
        block = np.array([[1.0, h0], [h0, 1.0]])
        sigma_rows = np.tile(block, (p // 2, 1))
        sqrt_rows = np.tile(sym_sqrt(block), (p // 2, 1))
        rng = RngStream(41, 0)
        for k in range(250):
            beta = np.where(rng.uniform(p) < 0.1, 4.0, 0.0)
            z = rng.standard_normal(p)
            old = ((sigma_rows * beta[cols]).sum(axis=1)
                   + (sqrt_rows * z[cols]).sum(axis=1))
            assert (sigma @ beta + sigma_sqrt @ z).tobytes() == old.tobytes()

    def test_ranking_allocates_no_square_array(self):
        # one dense p x p float array would be 128 MB here
        p = 4000
        cfg = cli.resolve_config("ranking", dict(TINY["ranking"], p=p, reps=2))
        tracemalloc.start()
        try:
            cli.run_ranking(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8 // 4


class TestDeterminism:
    @pytest.mark.parametrize("experiment", sorted(TINY))
    def test_rerun_identical(self, experiment):
        cfg = cli.resolve_config(experiment, TINY[experiment])
        a = cli._RUNNERS[experiment](cfg)
        b = cli._RUNNERS[experiment](cfg)
        assert a.body_lines() == b.body_lines()

    @pytest.mark.parametrize("experiment", ["bandwidth", "ranking", "classify"])
    def test_threads_do_not_change_results(self, experiment):
        cfg1 = cli.resolve_config(experiment, TINY[experiment], {"threads": 1})
        cfg8 = cli.resolve_config(experiment, TINY[experiment], {"threads": 8})
        a = cli._RUNNERS[experiment](cfg1)
        b = cli._RUNNERS[experiment](cfg8)
        assert a.body_lines() == b.body_lines()


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        config_path = tmp_path / "phase.json"
        config_path.write_text(json.dumps({"vartheta_grid": [0.4, 0.5]}))
        code = cli.main(["phase", "--config", str(config_path),
                         "--out", str(tmp_path), "--seed", "3"])
        assert code == 0
        out_file = tmp_path / "phase.csv"
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("# rareweak v")
        assert "vartheta,rho_detect" in lines[4]
        assert len(lines) == 4 + 1 + 2

    def test_config_error_exit_code(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"reps": 0}))
        assert cli.main(["bandwidth", "--config", str(config_path),
                         "--out", str(tmp_path)]) == 2

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RAREWEAK_THREADS", "2")
        config_path = tmp_path / "phase.json"
        config_path.write_text(json.dumps({"vartheta_grid": [0.5]}))
        assert cli.main(["phase", "--config", str(config_path),
                         "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("text", ["{\"reps\": ", "[1, 2]", "\"phase\""])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, text):
        config_path = tmp_path / "bad.json"
        config_path.write_text(text)
        assert cli.main(["phase", "--config", str(config_path),
                         "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert cli.main(["phase", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_env_threads_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RAREWEAK_THREADS", "abc")
        assert cli.main(["phase", "--out", str(tmp_path)]) == 2
        assert "RAREWEAK_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_unusable_out_dir_exit_code(self, tmp_path, capsys, monkeypatch, sub):
        # an existing file, or a path beneath one, fails before the runner
        # starts, in one line and with a config error's exit code
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setitem(cli._RUNNERS, "phase", lambda cfg: pytest.fail("ran"))
        out = blocker / sub if sub else blocker
        assert cli.main(["phase", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory")
        assert err.count("\n") == 1

    def test_csv_path_taken_by_directory_exit_code(self, tmp_path, capsys):
        (tmp_path / "phase.csv").mkdir()
        assert cli.main(["phase", "--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_write_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def full(self, path):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli.ResultTable, "write_csv", full)
        assert cli.main(["phase", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_written_files_byte_identical(self, tmp_path):
        config_path = tmp_path / "r.json"
        config_path.write_text(json.dumps(TINY["ranking"]))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["ranking", "--config", str(config_path),
                             "--out", str(out)]) == 0
        assert (out1 / "ranking.csv").read_bytes() == (out2 / "ranking.csv").read_bytes()


def test_python_m_entry_point():
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "rareweak", "ranking", "--help"],
                            capture_output=True, text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert "--threads" in result.stdout


def test_only_bandwidth_imports_scipy_linalg(tmp_path):
    # a fresh process, since this one may hold scipy.linalg already: only the
    # bandwidth scan factors a banded matrix, and chol_banded imports
    # scipy.linalg on its first call
    block2 = {"kind": "block2", "h0": 0.5}
    script = '''
import json, sys
from rareweak import cli
def run(experiment, raw):
    config = f"{sys.argv[1]}/{experiment}.json"
    with open(config, "w") as f:
        json.dump(raw, f)
    assert cli.main([experiment, "--config", config, "--out", sys.argv[1]]) == 0
    return "scipy.linalg" in sys.modules
print(json.dumps(["scipy.linalg" in sys.modules]
                 + [run(e, r) for e, r in json.loads(sys.argv[2])]))
'''
    runs = [("ranking", {}), ("detect", {"omega": block2}),
            ("recover", {"omega": block2, "methods": ["ht_ideal", "gs"]}),
            ("classify", {"omega": block2}), ("phase", {"h0": 0.5}),
            ("bandwidth", TINY["bandwidth"])]
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path), json.dumps(runs)],
                            capture_output=True, text=True, timeout=300,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [False] * 6 + [True]


def test_perfbench_spans_install():
    # the bench's tracer rebinds traced names across modules and raises when
    # a required binding (e.g. cli.sym_sqrt) is gone
    root = pathlib.Path(cli.__file__).parents[2]
    script = ("import sys; sys.path[:0] = sys.argv[1:]; import spans; "
              "spans.install(spans.Tracer())")
    result = subprocess.run([sys.executable, "-c", script, str(root / "src"),
                             str(root / "perfbench")],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def _load_perfbench(name):
    # perfbench is a script directory, not a package: load a module by path
    path = pathlib.Path(cli.__file__).parents[2] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


_BENCH_WORKLOADS = _load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(_BENCH_WORKLOADS))
def test_perfbench_child_fires_expected_spans(tmp_path, name):
    # a traced bench child at the self-test sizes exits 0 and fires every
    # span its workload expects; span coverage is not checked here
    root = pathlib.Path(cli.__file__).parents[2]
    workload = _BENCH_WORKLOADS[name]
    spec = {"out": str(tmp_path), "seed": 1, "threads": workload.threads, "trace": 1,
            "experiments": [list(e) for e in _load_perfbench("workloads").TINY[name]]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, str(root / "perfbench" / "child.py"),
                             str(spec_path)], cwd=root, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    child = json.loads((tmp_path / "result.json").read_text())
    assert child["codes"] and all(code == 0 for code in child["codes"])
    calls = {span: entry["calls"] for span, entry in child["trace"]["spans"].items()}
    assert [span for span in workload.expected_spans if not calls.get(span)] == []


def _bench_body_digest(checks, tmp_path, workload, experiment, config, seed):
    """Digest of one bench experiment's CSV body, run through main() as the
    bench runs it."""
    config_path = tmp_path / f"{experiment}.config.json"
    config_path.write_text(json.dumps(config))
    assert cli.main([experiment, "--config", str(config_path), "--scale", "paper",
                     "--seed", str(seed), "--threads", str(workload.threads),
                     "--out", str(tmp_path)]) == 0
    return checks.digest(checks.read_csv(tmp_path / f"{experiment}.csv")[2])


@pytest.mark.parametrize("name", sorted(_BENCH_WORKLOADS))
def test_paper_scale_bodies_match_recorded_digests(tmp_path, name):
    # the CSV bodies of each bench workload at seed 0, run through main() as
    # the bench runs them, equal the digests recorded in perfbench/
    checks = _load_perfbench("checks")
    workload = _BENCH_WORKLOADS[name]
    recorded = checks.load_digests()[name]["0"]
    for experiment, config in workload.experiments:
        assert _bench_body_digest(checks, tmp_path, workload, experiment, config,
                                  0) == recorded[experiment], experiment
    assert sorted(recorded) == sorted(e for e, _ in workload.experiments)


def test_block2_recover_bodies_match_recorded_digests_every_seed(tmp_path):
    # the graphlet screen scores singletons and pairs in stacked LAPACK calls;
    # one changed last bit in a score can flip a retained node, so block2
    # recover is checked at every recorded seed, not only at seed 0
    checks = _load_perfbench("checks")
    workload = _BENCH_WORKLOADS["block2"]
    config = dict(workload.experiments)["recover"]
    recorded = checks.load_digests()["block2"]
    assert len(recorded) == 20
    for seed in sorted(recorded, key=int):
        assert _bench_body_digest(checks, tmp_path, workload, "recover", config,
                                  seed) == recorded[seed]["recover"], seed


@pytest.mark.parametrize("threads", [1, 2])
def test_block2_classify_bodies_match_recorded_digests(tmp_path, threads):
    # held-out rows and training noise are drawn and scored in row blocks
    # that must reproduce the one-shot sums; a changed last bit flips a
    # mean_error only through a score at exactly zero, so three recorded
    # seeds are checked, at one and two threads
    checks = _load_perfbench("checks")
    workload = _BENCH_WORKLOADS["block2"]
    config = dict(workload.experiments)["classify"]
    recorded = checks.load_digests()["block2"]
    for seed in ("3", "7", "13"):
        assert _bench_body_digest(checks, tmp_path, replace(workload, threads=threads),
                                  "classify", config, seed) == recorded[seed]["classify"], seed


def test_bandwidth_bodies_match_recorded_digests_two_threads(tmp_path):
    # banded sampling and the HC+ scan feed every bandwidth body; beyond the
    # one-thread seed-0 check above, two more recorded seeds run on two threads
    checks = _load_perfbench("checks")
    workload = _BENCH_WORKLOADS["bandwidth"]
    config = dict(workload.experiments)["bandwidth"]
    recorded = checks.load_digests()["bandwidth"]
    for seed in ("0", "7"):
        assert _bench_body_digest(checks, tmp_path, replace(workload, threads=2),
                                  "bandwidth", config, seed) == recorded[seed]["bandwidth"], seed


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_ranking_bodies_match_recorded_digests_every_seed(tmp_path, threads):
    # GS ranking scores features by closed-form chi-square tails, in blocks
    # of replicates; a changed last bit can only move a body through a
    # near-tie flip in the ranking, so every recorded seed is checked, at one
    # to four threads
    checks = _load_perfbench("checks")
    workload = _BENCH_WORKLOADS["ranking"]
    config = dict(workload.experiments)["ranking"]
    recorded = checks.load_digests()["ranking"]
    assert len(recorded) == 20
    for seed in sorted(recorded, key=int):
        assert _bench_body_digest(checks, tmp_path, replace(workload, threads=threads),
                                  "ranking", config, seed) == recorded[seed]["ranking"], seed


# Classify bodies with nonzero errors, at seeds 3 and 7. The bench's block2
# point (0.3, 1.2) reads mean_error 0 and se 0 at those seeds, so its
# recorded digests cannot see a change in classify's arithmetic; the null
# point (0.5, 0.02) errs about half the time at paper block2 and desk identity.
CLASSIFY_DIGESTS = {
    "paper_block2": (
        "paper", {"reps": 20, "grid": [[0.5, 0.02]], "omega": {"kind": "block2", "h0": 0.5}},
        {3: "ff7202881d2622ded60f7c5387f0a8ad2b11fe13d46ce0821bcff179356d5ed1",
         7: "a5e71228a7892a0440b6911753f78d384afc491412c02f80694c9dbdb0d85007"}),
    "desk_identity": (
        "desk", {"grid": [[0.3, 0.6], [0.5, 0.02]]},
        {3: "010e077d0bae0f4454ef415a4c2d7d34418314175da6b3e2b8b62919b8266ce9",
         7: "f156101578bc870a894c301fa9dceabeedee20d18f28825426ec8c2e00c675e9"}),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(CLASSIFY_DIGESTS))
def test_classify_bodies_with_errors_match_recorded_digests(tmp_path, case, threads):
    checks = _load_perfbench("checks")
    scale, config, recorded = CLASSIFY_DIGESTS[case]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    for seed, digest in recorded.items():
        assert cli.main(["classify", "--config", str(config_path), "--scale", scale,
                         "--seed", str(seed), "--threads", str(threads),
                         "--out", str(tmp_path)]) == 0
        body = checks.read_csv(tmp_path / "classify.csv")[2]
        assert checks.digest(body) == digest, seed


# CSV body digests of the desk presets at seed 0 and one thread. Desk
# detect, recover and classify run the identity model, which no bench
# workload covers. Desk classify's default grid gives a body of zero errors
# at every seed tried, so it runs a separable and a null point instead.
DESK_DIGESTS = {
    "detect": (None, "7ff196f9b577c010a715fd4e09de008f0961528f7c959c9e9137849f37baa3f2"),
    "recover": (None, "cf39e384b44c60624c502c4bef55fe30306cf023d9fc1936236fd919a2ac3117"),
    "bandwidth": (None, "c9aae98d8561a2ce9b0ac152fed059d10d6d94312a61e14393ca754bc4166770"),
    "ranking": (None, "453ec49993befd478ac3ed1b4ca15297e050aa004887d4f5a83228aeffbbaf18"),
    "classify": ({"grid": [[0.3, 0.6], [0.5, 0.02]]},
                 "dac7974e695a655d0e9a495f70e732fdda485e1121aa444e9abd1c2ec1214745"),
    "phase": (None, "fbffe17a767ffa09e0bc871605d53cb6f783a7f65fd8fbdcbc4ae02d3b6a887b"),
}


@pytest.mark.parametrize("experiment", sorted(DESK_DIGESTS))
def test_desk_bodies_match_recorded_digests(tmp_path, experiment):
    checks = _load_perfbench("checks")
    config, recorded = DESK_DIGESTS[experiment]
    args = [experiment, "--seed", "0", "--threads", "1", "--out", str(tmp_path)]
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        args += ["--config", str(config_path)]
    assert cli.main(args) == 0
    assert checks.digest(checks.read_csv(tmp_path / f"{experiment}.csv")[2]) == recorded
