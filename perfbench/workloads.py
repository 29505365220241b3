"""Workload definitions: which experiments each workload runs, and how.

Every workload uses paper-scale parameters with replicate counts trimmed so
that one child process takes four to seven seconds. Together the three give
each library layer one workload where it does most of the work and one where
it does almost none:

* ``bandwidth`` spends its time in Philox bulk draws, banded Cholesky
  sampling, the HC+ null table and the bandwidth scan. It never touches
  ``graph``, ``select``, ``classify`` or ``PrecisionModel``.
* ``ranking`` rebuilds a dense-matrix graph and its subgraph enumeration in
  every replicate under two threads. It barely draws random numbers and never
  touches ``detect`` or ``PrecisionModel``.
* ``block2`` runs detect, recover, classify and phase under block2 precision
  (h0 = 0.5): dense ``PrecisionModel`` factoring at p = 10^4, the sparse- and
  dense-Gram graphlet paths (``p_grid`` straddles ``DENSE_GRAM_LIMIT``), HCT
  training and the block-model phase boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

BLOCK2 = {"kind": "block2", "h0": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    # (experiment, config overrides on top of the paper preset) in run order
    experiments: tuple
    # spans that must fire at least once in a traced run
    expected_spans: tuple


def replicate_count(experiment: str, cfg: dict) -> int:
    """Monte Carlo replicates one experiment performs (0 for closed forms)."""
    if experiment in ("bandwidth", "ranking"):
        return len(cfg["cases"]) * cfg["reps"]
    if experiment == "detect":
        return len(cfg["grid"]) * len(cfg["variants"]) * cfg["reps"]
    if experiment == "recover":
        return len(cfg["p_grid"]) * cfg["reps"]
    if experiment == "classify":
        return len(cfg["grid"]) * cfg["reps"]
    return 0


_COMMON_SPANS = ("numerics.rng_draw", "cli.resolve_config", "cli.write_csv")

WORKLOADS = {
    "bandwidth": Workload(
        name="bandwidth", threads=1,
        experiments=(("bandwidth", {"reps": 10}),),
        expected_spans=_COMMON_SPANS + (
            "numerics.chol_banded", "models.gen_banded_sample",
            "detect.critical_value", "detect.hc", "apps.estimate_bandwidth",
            "cli.run_bandwidth"),
    ),
    "ranking": Workload(
        name="ranking", threads=2,
        experiments=(("ranking", {"reps": 80}),),
        expected_spans=_COMMON_SPANS + (
            "numerics.sym_sqrt", "models.draw_paired_beta",
            "graph.graph_from_matrix", "graph.enum_connected_subgraphs",
            "apps.rank_features_gs", "apps.rank_features_us", "apps.roc_curve",
            "cli.run_ranking"),
    ),
    "block2": Workload(
        name="block2", threads=1,
        experiments=(
            ("detect", {"reps": 50, "omega": BLOCK2}),
            ("recover", {"reps": 1, "methods": ["ht_ideal", "gs"], "m0": 2,
                         "p_grid": [1024, 4096], "omega": BLOCK2}),
            ("classify", {"reps": 20, "grid": [[0.3, 1.2]], "omega": BLOCK2}),
            ("phase", {"h0": 0.5}),
        ),
        expected_spans=_COMMON_SPANS + (
            "numerics.restricted_quadform", "models.precision_factor",
            "models.sample_noise", "models.gen_arw", "models.gen_class_sample",
            "models.class_rows", "models.quadform", "graph.graph_from_matrix",
            "graph.enum_connected_subgraphs", "graph.connected_components",
            "detect.critical_value", "detect.power_estimate", "detect.hc",
            "detect.pvalues", "select.gs_screen", "select.gs_clean",
            "select.hard_threshold", "classify.train_hct",
            "classify.classify_batch", "phase.boundary_grid",
            "cli.run_detect_power", "cli.run_recover", "cli.run_classify",
            "cli.run_phase"),
    ),
}

# Self-test sizes: the same code paths as the real workloads (p_grid still
# straddles DENSE_GRAM_LIMIT) at the smallest replicate counts the config
# validators accept.
TINY = {
    "bandwidth": (("bandwidth", {"p": 1000, "reps": 1, "null_reps": 200,
                                 "cases": [[0.01, 0.225], [0.005, 0.25]]}),),
    "ranking": (("ranking", {"p": 200, "reps": 4}),),
    "block2": (
        ("detect", {"p": 1000, "reps": 50, "null_reps": 100, "omega": BLOCK2}),
        ("recover", {"reps": 1, "methods": ["ht_ideal", "gs"], "m0": 2,
                     "p_grid": [256, 2560], "omega": BLOCK2}),
        ("classify", {"p": 1000, "reps": 20, "grid": [[0.3, 1.2]],
                      "omega": BLOCK2}),
        # The full phase grid takes milliseconds; a smaller one leaves
        # run_phase too short for the 85% span-coverage check.
        ("phase", {"h0": 0.5}),
    ),
}
