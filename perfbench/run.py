"""End-to-end and per-layer benchmark of the rareweak Monte Carlo harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {bandwidth,ranking,block2} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke                 # self-test at tiny sizes
    python3 perfbench/run.py --record-digests 0 1 2  # re-record digests.json

Each run of a workload is one fresh child process (closed loop, one client)
that resolves its configs, then runs every experiment of the workload
through ``cli.main`` at paper scale. Children run with BLAS/OpenMP pinned to
one thread, so ``--threads`` is the only parallelism. With ``--trace 0``
children repeat until ``--seconds`` is used up. Before each child and after
the last, the parent runs the machine-speed yardstick (yardstick.py) on the
same CPUs; wall and CPU time are reported in units of the yardstick's mean
CPU time in the same run, set-up time in seconds.
With ``--trace 1`` each round runs the workload untraced and traced (plus a
traced one-thread baseline for a multi-threaded workload) and the per-layer
metrics are reported. Every CSV body is checked; a child that fails counts in
``failed``. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import spans
from workloads import TINY, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
YARDSTICK = os.path.join(HERE, "yardstick.py")

MIN_CHILDREN = 3          # untraced children per run, whatever --seconds says
MIN_ROUNDS = 2            # traced rounds, so counters can be compared
CHILD_TIMEOUT_S = 150.0
MIN_COVERAGE = 0.85       # share of a one-thread runner inside its direct spans
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "wall_rel": "yardstick", "cpu_rel": "yardstick",
              "peak_rss_mb": "MB", "reps_per_yardstick": "1/yardstick",
              "ok_frac": "frac"}
COUNTER_METRICS = {
    "numerics.rng_values": "count", "numerics.rng_streams": "count",
    "numerics.chol_banded_failures": "count", "graph.subgraphs_enumerated": "count",
    "detect.null_reps": "count", "detect.clamped": "count",
    "select.degenerate_skips": "count", "select.screen_retained_frac": "frac",
    "classify.degenerate_rules": "count", "apps.nan_replicates": "count",
    "cli.parallel_speedup": "x", "cli.trace_overhead_frac": "frac",
}


def per_layer_units():
    units = {}
    for name in spans.SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in spans.PERCENTILE_SPANS:
            units[f"{name}.p50_ms"] = "ms"
            units[f"{name}.p95_ms"] = "ms"
    units.update(COUNTER_METRICS)
    return units


@dataclass
class Child:
    tag: str
    threads: int
    trace: bool
    launched_at: float = 0.0
    returncode: int | None = None
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    result: dict | None = None
    bodies: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def setup_s(self):
        return self.result["entry"] - self.launched_at

    @property
    def wall_s(self):
        return self.result["end"] - self.result["entry"]


def _child_env():
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED)
    env.pop("RAREWEAK_THREADS", None)
    return env


def _wait(proc, timeout):
    """Reap proc with its resource usage; kill it after timeout seconds."""
    deadline = time.monotonic() + timeout
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, 0 if timed_out else os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage, timed_out
        if time.monotonic() > deadline:
            proc.kill()
            timed_out = True
        else:
            time.sleep(0.02)


def bench_cpus(threads):
    """The CPUs a workload's children and yardsticks run on: the last
    ``threads`` CPUs this process may use. Keeping a one-thread child and its
    yardsticks on the same CPU matters on a VM whose virtual CPUs differ in
    speed (by 15% between the two of a shared 2-vCPU VM)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-threads:] if threads < len(allowed) else allowed


def _pinned_to(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


def time_yardstick(cpus):
    """CPU seconds the machine-speed yardstick takes: one copy per CPU in cpus,
    run at once, each pinned to its CPU; the mean of their times."""
    procs = [subprocess.Popen([sys.executable, YARDSTICK], cwd=ROOT, env=_child_env(),
                              preexec_fn=_pinned_to({cpu})) for cpu in cpus]
    usages = [_wait(proc, CHILD_TIMEOUT_S)[0] for proc in procs]
    if any(proc.returncode != 0 for proc in procs):
        raise RuntimeError(f"yardstick failed: {[proc.returncode for proc in procs]}")
    return statistics.fmean(u.ru_utime + u.ru_stime for u in usages)


def launch(tag, experiments, seed, threads, trace, cpus=None):
    """Run one child to completion and read back its result and CSV bodies.
    With cpus, the child is pinned to those CPUs."""
    out = os.path.join(WORK, tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    spec = {"out": out, "seed": seed, "threads": threads, "trace": trace,
            "experiments": [list(e) for e in experiments]}
    spec_path = os.path.join(out, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    child = Child(tag=tag, threads=threads, trace=trace)
    with open(os.path.join(out, "log.txt"), "w") as log:
        child.launched_at = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path], cwd=ROOT,
                                env=_child_env(), stdout=log, stderr=subprocess.STDOUT,
                                preexec_fn=_pinned_to(set(cpus)) if cpus else None)
        usage, timed_out = _wait(proc, CHILD_TIMEOUT_S)
    child.returncode = proc.returncode
    child.cpu_s = usage.ru_utime + usage.ru_stime
    child.rss_mb = usage.ru_maxrss / 1024.0
    if timed_out:
        child.problems.append(f"killed after {CHILD_TIMEOUT_S:.0f} s")
    elif child.returncode != 0:
        child.problems.append(f"exit code {child.returncode}")
    collect(child, out, experiments, seed)
    return child


def collect(child, out, experiments, seed):
    """Read the child's result file and check each CSV it wrote."""
    result_path = os.path.join(out, "result.json")
    if os.path.exists(result_path):
        with open(result_path) as fh:
            child.result = json.load(fh)
    else:
        child.problems.append("no result file")
    for experiment, _ in experiments:
        path = os.path.join(out, f"{experiment}.csv")
        if not os.path.exists(path):
            child.problems.append(f"{experiment}: no CSV")
            continue
        cfg, header, body = checks.read_csv(path)
        if cfg is None or f"# seed={seed}\n" not in header:
            child.problems.append(f"{experiment}: header lacks config or seed {seed}")
            continue
        child.bodies[experiment] = body
        child.problems += checks.check_body(experiment, body, cfg)


def compare_bodies(children, recorded):
    """Flag children whose bodies differ from the recorded or first valid run."""
    reference = dict(recorded or {})
    for child in children:
        if not child.problems:
            for exp, body in child.bodies.items():
                reference.setdefault(exp, checks.digest(body))
    for child in children:
        for exp, body in child.bodies.items():
            if exp in reference and checks.digest(body) != reference[exp]:
                source = "recorded digest" if recorded and exp in recorded else "first run"
                child.problems.append(f"{exp}: CSV body differs from {source}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end_metrics(children, yardsticks):
    """One figure per metric for the run.

    Wall and CPU time are the children's mean divided by the yardsticks' mean
    over the same run, on the same CPUs. Their single timings are too noisy
    for anything else: on a shared 2-vCPU VM one child's wall time ranged
    over 4.2 to 6.9 s and one yardstick over 1.2 to 2.3 s within minutes,
    with no correlation between neighbours, while the host's speed drifted by
    a third over half an hour. Set-up time, which stays in seconds, is the
    median over the children.
    """
    timed = [c for c in children if c.result is not None]
    yard = statistics.fmean(yardsticks)
    series = {
        "setup_s": [c.setup_s for c in timed],
        "wall_s": [c.wall_s for c in timed],
        "cpu_s": [c.cpu_s for c in timed],
        "peak_rss_mb": [c.rss_mb for c in timed],
        "yardstick_s": yardsticks,
    }
    for name, values in series.items():
        q1, q3 = _quartiles(values)
        print(f"raw {name} median={_median(values):.6g} q1={q1:.6g} q3={q3:.6g} "
              f"mean={statistics.fmean(values):.6g} n={len(values)}")
    failed = sum(1 for c in children if c.problems)
    wall_rel = statistics.fmean(series["wall_s"]) / yard
    metrics = {
        "setup_s": _median(series["setup_s"]),
        "wall_rel": wall_rel,
        "cpu_rel": statistics.fmean(series["cpu_s"]) / yard,
        "peak_rss_mb": _median(series["peak_rss_mb"]),
        "reps_per_yardstick": timed[0].result["replicates"] / wall_rel,
        "ok_frac": 1.0 - failed / len(children),
    }
    for name, value in metrics.items():
        print(f"metric {name} {END_TO_END[name]} {value:.6g}")
    print(f"failed_frac {failed / len(children):.6g}: {failed} of {len(children)} runs failed")
    return metrics


def check_trace(child, workload, reference):
    """Spans fired, counters match the first traced child, runners covered."""
    summary = child.result["trace"]
    calls = {name: s["calls"] for name, s in summary["spans"].items()}
    silent = [s for s in workload.expected_spans if calls[s] == 0]
    if silent:
        child.problems.append(f"spans never fired: {silent}")
    if reference is not None:
        ref = reference.result["trace"]
        ref_calls = {name: s["calls"] for name, s in ref["spans"].items()}
        if summary["counts"] != ref["counts"] or calls != ref_calls:
            child.problems.append(f"counters differ from {reference.tag}")
    if child.threads == 1:
        for runner, share in summary["coverage"]:
            if share < MIN_COVERAGE:
                child.problems.append(f"{runner}: spans cover only {share:.1%}")


def per_layer_metrics(rounds, workload):
    """Medians over rounds of the span times; counts from the first round."""
    # Spans come from the one-thread traced child: under two threads, spans in
    # worker threads have no parent and wait on the interpreter lock, which
    # would blur self times.
    traced = [r.get("single", r["traced"]) for r in rounds]
    summaries = [c.result["trace"] for c in traced]
    metrics = {}
    for name in spans.SPANS:
        metrics[f"{name}.calls"] = summaries[0]["spans"][name]["calls"]
        for key in ("self_s", "p50_ms", "p95_ms"):
            if key in summaries[0]["spans"][name]:
                metrics[f"{name}.{key}"] = _median(
                    [s["spans"][name][key] for s in summaries])
    counts = summaries[0]["counts"]
    for key in ("rng_values", "rng_streams", "chol_banded_failures"):
        metrics[f"numerics.{key}"] = counts[key]
    metrics["graph.subgraphs_enumerated"] = counts["subgraphs_enumerated"]
    metrics["detect.null_reps"] = counts["null_reps"]
    metrics["detect.clamped"] = counts["clamped"]
    metrics["select.degenerate_skips"] = counts["degenerate_skips"]
    metrics["select.screen_retained_frac"] = (
        counts["screen_retained"] / counts["screen_nodes"] if counts["screen_nodes"] else 0.0)
    metrics["classify.degenerate_rules"] = counts["degenerate_rules"]
    ranking = traced[0].bodies.get("ranking")
    metrics["apps.nan_replicates"] = checks.nan_replicates(ranking) if ranking else 0
    # A one-thread workload has no parallel run to compare: its speed-up is 1.
    metrics["cli.parallel_speedup"] = _median(
        [r["single"].wall_s / r["traced"].wall_s for r in rounds]) if "single" in rounds[0] else 1.0
    metrics["cli.trace_overhead_frac"] = _median(
        [(r["traced"].wall_s - r["plain"].wall_s) / r["plain"].wall_s for r in rounds])
    units = per_layer_units()
    for name, value in metrics.items():
        print(f"metric {name} {units[name]} {value:.6g}")
    return metrics


def _loop(step, seconds, minimum):
    """Call step() until the next call would overrun seconds (at least minimum)."""
    start, done = time.monotonic(), []
    while True:
        done.append(step(len(done)))
        elapsed = time.monotonic() - start
        if len(done) >= minimum and elapsed * (len(done) + 1) / len(done) > seconds:
            return done


def environment(children):
    versions = next((c.result["versions"] for c in children if c.result), {})
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")), model)
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "rareweak")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, **versions, "pinned": PINNED,
            "git_commit": _git_commit(), "src_lines": src_lines}


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def bench(workload_name, seed, seconds, trace, tiny=False):
    """One benchmark invocation; prints the report and returns the result dict."""
    workload = WORKLOADS[workload_name]
    experiments = TINY[workload_name] if tiny else workload.experiments
    recorded = None if tiny else checks.load_digests().get(workload_name, {}).get(str(seed))
    print(f"perfbench workload={workload_name} seed={seed} seconds={seconds} "
          f"trace={int(trace)}{' tiny' if tiny else ''}"
          f" recorded_digests={'yes' if recorded else 'no'}")
    shutil.rmtree(WORK, ignore_errors=True)
    # Warm the page cache and bytecode cache; users pay this once, not per run.
    subprocess.run([sys.executable, "-c", "import rareweak.cli"], cwd=ROOT,
                   env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S)

    def run(tag, threads, traced, cpus=None):
        child = launch(tag, experiments, seed, threads, traced, cpus)
        status = "ok" if not child.problems else "; ".join(child.problems)
        timing = (f" setup_s={child.setup_s:.4f} wall_s={child.wall_s:.4f}"
                  if child.result else "")
        print(f"run {tag} threads={threads}{timing} cpu_s={child.cpu_s:.3f} "
              f"rss_mb={child.rss_mb:.1f} {status}")
        return child

    if not trace:
        cpus = bench_cpus(workload.threads)
        time_yardstick(cpus)  # warm-up
        yardsticks = []

        def timed_child(k):
            yardsticks.append(time_yardstick(cpus))
            print(f"yardstick {k} {yardsticks[-1]:.4f}")
            return run(f"run{k}", workload.threads, False, cpus)
        children = _loop(timed_child, seconds, MIN_CHILDREN)
        yardsticks.append(time_yardstick(cpus))
        print(f"yardstick {len(children)} {yardsticks[-1]:.4f}")
        rounds = []
    else:
        def one_round(k):
            rnd = {"plain": run(f"r{k}-plain", workload.threads, False),
                   "traced": run(f"r{k}-traced", workload.threads, True)}
            if workload.threads > 1:
                rnd["single"] = run(f"r{k}-single", 1, True)
            return rnd
        rounds = _loop(one_round, seconds, MIN_ROUNDS)
        children = [c for r in rounds for c in r.values()]
    compare_bodies(children, recorded)
    if trace:
        traced = [c for c in children if c.trace and c.result is not None]
        for child in traced:
            check_trace(child, workload, traced[0] if child is not traced[0] else None)
    print("env " + json.dumps(environment(children), sort_keys=True))
    for child in children:
        if child.problems:
            print(f"FAILED {child.tag}: {'; '.join(child.problems)}", file=sys.stderr)
    if not any(c.result for c in children):
        raise RuntimeError("no run produced a result")
    failed = sum(1 for c in children if c.problems)
    if trace and all(c.result for c in children):
        metrics = per_layer_metrics(rounds, workload)
    elif trace:
        raise RuntimeError("a traced round produced no result")
    else:
        metrics = end_to_end_metrics(children, yardsticks)
    units = per_layer_units() if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": len(children), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return result


def smoke():
    """Self-test: every workload traced and untraced at tiny sizes, names and
    units as BENCHMARK.json lists them, and a tampered CSV counted as failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                result = bench(name, 1, 1, trace, tiny=True)
            text = buf.getvalue()
            sys.stdout.write(text)
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {got} != {want}")
            missing = [m for m, u in want.items() if f"metric {m} {u} " not in text]
            if missing:
                problems.append(f"{name} trace={trace}: not printed: {missing}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: run not correct")

    experiments = TINY["ranking"]
    children = [launch(f"tamper{k}", experiments, 1, 2, False) for k in range(2)]
    _tamper(os.path.join(WORK, "tamper1", "ranking.csv"))
    children[1].bodies.clear()
    children[1].problems.clear()
    collect(children[1], os.path.join(WORK, "tamper1"), experiments, 1)
    compare_bodies(children, None)
    failed_frac = sum(1 for c in children if c.problems) / len(children)
    print(f"tamper check: failed_frac {failed_frac} ({children[1].problems})")
    if failed_frac != 0.5:
        problems.append(f"tampered CSV gave failed_frac {failed_frac}, expected 0.5")
    for p in problems:
        print(f"SMOKE FAILED: {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def _tamper(path):
    """Change the last character of the first data row of a CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    row = lines[k].rstrip("\n")
    lines[k] = row[:-1] + ("1" if row[-1] != "1" else "2") + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def record_digests(seeds):
    """Re-record body digests for the given seeds (ranking at one thread)."""
    digests = checks.load_digests()
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            child = launch(f"record-{name}-{seed}", workload.experiments, seed, 1, False)
            if child.problems:
                raise RuntimeError(f"{name} seed {seed}: {child.problems}")
            digests.setdefault(name, {})[str(seed)] = {
                exp: checks.digest(body) for exp, body in child.bodies.items()}
            print(f"recorded {name} seed {seed}")
    with open(checks.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "rareweak", "cli.py")):
        print(f"perfbench: no rareweak sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.record_digests:
        return record_digests(args.record_digests)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    bench(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
