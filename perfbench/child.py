"""Run one workload in a fresh process: ``python3 perfbench/child.py SPEC``.

SPEC is a JSON file written by run.py. The child resolves every config
(set-up), marks runner entry, runs each experiment through ``cli.main``, and
writes a JSON result with monotonic timestamps, replicate counts, library
versions and, when tracing, the span summary. CLOCK_MONOTONIC is shared by
all processes on the machine, so the parent can subtract its launch time.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    from rareweak import cli
    from workloads import replicate_count

    out, seed, threads = spec["out"], spec["seed"], spec["threads"]
    argvs, replicates = [], 0
    for experiment, config in spec["experiments"]:
        cfg = cli.resolve_config(experiment, config,
                                 {"seed": seed, "scale": "paper",
                                  "threads": threads, "out": out})
        replicates += replicate_count(experiment, cfg)
        path = os.path.join(out, f"{experiment}.config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argvs.append([experiment, "--config", path, "--scale", "paper",
                      "--seed", str(seed), "--threads", str(threads), "--out", out])
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    entry = time.monotonic()
    with warnings.catch_warnings(record=tracer is not None) as caught:
        if tracer is not None:
            warnings.simplefilter("always")
        codes = [cli.main(argv) for argv in argvs]
    end = time.monotonic()

    result = {"entry": entry, "end": end, "codes": codes, "replicates": replicates,
              "versions": _versions()}
    if tracer is not None:
        tracer.count_warnings(caught)
        result["trace"] = tracer.summary()
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
