"""Benchmark of the monge1d package: one seeded workload per run.

    python3 perfbench/run.py --workload solve_grid --seed 1 --seconds 16 --trace 0

Run from the repository root (or any checkout of it).  The package is
imported from the checkout's `src/`; without it the run stops with exit
code 1 and prints no result.  Metric names, units and bounds are read from
`BENCHMARK.json` at the root.

`--trace 0` repeats the workload's operation cycle untraced and reports
the end-to-end metrics.  Latencies are reported in reference units: each
operation's time over the time of a fixed reference kernel measured next
to it, which cancels the swings in machine speed on a shared host (raw
seconds are in the details line).  `--trace 1` alternates untraced and
traced passes over the cycle until `--seconds` have passed and reports the
per-layer metrics: counts per cycle, which must repeat exactly, and the
median self time per cycle.  The last line of standard output is the
result as one JSON object; the line before it records the environment,
sample counts and diagnostics."""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy and everything that imports it are imported inside functions, after
# `prepare_environment` has pinned the BLAS and OpenMP thread counts.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare_environment():
    """Pin BLAS/OpenMP to one thread, this process and its children to one
    CPU, and import the package from `src/`.

    One CPU keeps the CLI's child interpreters on the core where the
    reference kernel is timed.  Must run before numpy is imported.
    Returns the environment for child interpreters, or exits with code 1
    when the checkout has no package.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "monge1d" / "__init__.py").is_file():
        sys.exit(f"perfbench: no monge1d package under {SRC}")
    sys.path.insert(0, str(SRC))
    import monge1d
    if Path(monge1d.__file__).resolve().parent != SRC / "monge1d":
        sys.exit(f"perfbench: monge1d imported from {monge1d.__file__}, "
                 f"not from {SRC}")
    return dict(os.environ, PYTHONPATH=str(SRC))


def _import_seconds(env):
    """Wall time of a fresh interpreter importing the whole package."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import monge1d.cli"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - start


def _quantile(samples, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, steadier on a few dozen samples than any single one."""
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def _tail_percentile(n):
    """The highest percentile with at least ten of n samples above it; the
    median when fewer than 21 samples leave no such percentile above it."""
    return 100.0 * (n - 10) / n if n >= 21 else 50.0


def _peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def reference_kernel():
    """A fixed piece of work that does not touch monge1d.

    Small-array numpy calls in a Python loop, the same mix of interpreter
    overhead and short vector operations that dominates the solver.  Timing
    it between operations measures how fast the machine runs at that
    moment: on a shared host the same solve takes up to 1.8x longer while
    a neighbour is busy, and the reference slows with it.
    """
    import numpy as np
    x = np.linspace(0.1, 1.0, 105)
    acc = 0.0
    for i in range(100):
        w = np.log(x + i * 1e-3)
        for _ in range(3):
            ew = np.exp(w)
            w = w - (ew - 1.0) / (ew + 1.0)
        acc += float(np.max(np.abs(w)))
        y = np.sort(np.concatenate([x, w]))
        acc += float(y @ y)
    return acc


def _reference_seconds(budget=0.0):
    """Mean time of the reference kernel over a burst that lasts at least
    `budget` seconds (one call at the least)."""
    calls = 0
    start = time.perf_counter()
    while True:
        reference_kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return elapsed / calls


class Tally:
    """Operation outcomes summed over a run.

    Latencies are kept in seconds and in reference units: each operation's
    time divided by the mean of the reference times measured just before
    and just after it.
    """

    def __init__(self):
        self.samples = []
        self.ref_samples = []
        self.busy_s = 0.0
        self.busy_ref = 0.0
        self.attempted = 0
        self.failed = 0
        self.labels = []
        self.diagnostics = []

    def add(self, outcome, wall_s=0.0, reference_s=None):
        self.samples += outcome.samples
        self.busy_s += wall_s
        if reference_s:
            self.ref_samples += [s / reference_s for s in outcome.samples]
            self.busy_ref += wall_s / reference_s
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if outcome.label:
            self.labels.append(outcome.label)
        self.diagnostics.append((outcome.samples, outcome.diagnostics))


def _criterion02_summary(tally):
    """Range of each criterion-02 quantity seen; recorded, never judged."""
    summary = {}
    for _, diag in tally.diagnostics:
        for key in ("max_abs_slope", "max_log_lambda", "clip_depth"):
            if key in diag:
                lo, hi = summary.get(key, (diag[key], diag[key]))
                summary[key] = (min(lo, diag[key]), max(hi, diag[key]))
    return summary


def _per_command(tally):
    times = {}
    for samples, diag in tally.diagnostics:
        if "command" in diag:
            times.setdefault(diag["command"], []).extend(samples)
    return {c: {"median_s": statistics.median(t), "n": len(t)}
            for c, t in times.items()}


def timed_run(cycle, repeats):
    """Run the whole cycle `repeats` times, timing the reference kernel
    between operations for 1% of the last operation's time; returns the
    tally and the reference times."""
    from workloads import attempt

    tally = Tally()
    refs = [_reference_seconds()]
    for _ in range(repeats):
        for op in cycle:
            t0 = time.perf_counter()
            outcome = attempt(op)
            wall = time.perf_counter() - t0
            refs.append(_reference_seconds(0.01 * wall))
            tally.add(outcome, wall, 0.5 * (refs[-2] + refs[-1]))
    return tally, refs


def traced_run(prepared, seconds):
    """Alternate untraced and traced passes over the whole traced cycle.

    Returns (tally, per-cycle stats of each traced pass, untraced pass
    times, traced pass times); pass times are in reference units, measured
    like the operations of a timed run.
    """
    from tracer import Tracer
    from workloads import attempt

    tally = Tally()
    stats, plain, traced = [], [], []
    ref = _reference_seconds(0.05)
    start = time.perf_counter()
    while not stats or time.perf_counter() - start < seconds:
        tracer = Tracer()
        for times, context in ((plain, contextlib.nullcontext()),
                               (traced, tracer.installed())):
            t0 = time.perf_counter()
            with context:
                for op in prepared.traced_cycle:
                    tally.add(attempt(op))
            wall = time.perf_counter() - t0
            ref_after = _reference_seconds(0.01 * wall)
            times.append(wall / (0.5 * (ref + ref_after)))
            ref = ref_after
        stats.append(dict(tracer.stats))
    return tally, stats, plain, traced


def _layer_metrics(spec, stats, import_s):
    """Per-layer values: counts per cycle, median self times per cycle."""
    metrics = {}
    repeatable = True
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name == "monge1d.import_s":
            value = statistics.median(import_s)
        else:
            values = [cycle.get(name, 0.0) for cycle in stats]
            if unit == "count":
                repeatable &= len(set(values)) == 1
                value = int(values[0])
            else:
                value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeatable


def main(argv=None):
    env = prepare_environment()
    import numpy
    import scipy
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORKDIR / f"run-{os.getpid()}"
    try:
        setup_s, import_s = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            import_s.append(_import_seconds(env))
            prepared = workloads.prepare(args.workload, args.seed, workdir, env)
            setup_s.append(time.perf_counter() - start)

        details = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpu": sorted(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "setup_samples_s": setup_s, "import_samples_s": import_s,
        }
        if args.trace:
            tally, stats, plain, traced = traced_run(prepared, args.seconds)
            metrics, repeatable = _layer_metrics(bench["per_layer"], stats, import_s)
            details.update(
                traced_cycles=len(stats), counts_repeat=repeatable,
                untraced_cycle_ref=plain, traced_cycle_ref=traced,
                tracing_overhead=sum(traced) / sum(plain) - 1.0)
        else:
            repeats = max(1, round(args.seconds / prepared.cycle_seconds))
            tally, refs = timed_run(prepared.cycle, repeats)
            n = len(tally.samples)
            tail_q = _tail_percentile(n) / 100.0
            values = {
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": _peak_rss_mb(),
                "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
                "ops_per_kref": 1000.0 * n / tally.busy_ref,
                "op_p50_ref": _quantile(tally.ref_samples, 0.5),
                "op_tail_ref": _quantile(tally.ref_samples, tail_q),
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in bench["end_to_end"]}
            repeatable = True
            details.update(
                cycles=repeats, samples=n, tail_percentile=100.0 * tail_q,
                busy_s=tally.busy_s, reference_s_median=statistics.median(refs),
                reference_s_range=[min(refs), max(refs)],
                ops_per_s=n / tally.busy_s,
                op_p50_s=_quantile(tally.samples, 0.5),
                op_tail_s=_quantile(tally.samples, tail_q))
        details.update(criterion02=_criterion02_summary(tally),
                       per_command=_per_command(tally),
                       failures=tally.labels[:20])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": tally.failed == 0 and repeatable,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
