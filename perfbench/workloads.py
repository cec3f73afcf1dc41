"""Seeded inputs, operations and correctness checks of the three workloads.

Every workload turns a seed into a fixed list of operations (`cycle`).  The
timed run repeats the cycle a fixed number of times; the traced run
repeats it whole, so its counts per cycle are exact.  An operation returns
an `Outcome`: latency samples, how many units it attempted and how many of
them failed their check, the output numbers the check looked at, and
diagnostics that are recorded but never counted as failures.

Workloads, and why each was chosen:

* solve_grid: independent cold `assemble_density` + `duality_gap` calls
  over a Latin-hypercube box (alpha, eps, target offset and width, grid
  size, both orientations).  `duality` and `numerics` carry the time; no
  solve can reuse another, so a sweep warm start shows no change here.
* analyze_cached: densities solved during set-up, then repeated analyses
  (energies, variational probes, both transport maps, pushforward
  residuals) against seeded source densities.  `transport`, `energy` and
  the cumulative/inverse kernels carry the time; the root solves are idle.
* cli_commands: the five CLI commands, each a fresh process, on the
  canonical README config with one LP oracle fixture for `verify`.  This is
  the user's path: import cost, artifact writing and `verify`'s second
  solve per fixture.  Its `sweep` command is also where `epsilon_sweep`,
  `convergence_report` and the tent oracle run.

The projected-descent oracle is left out: it is a test-time cross-check,
not user traffic, and at 0.4-3 s a call it would swamp the other layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Calls go through the module attributes so that the tracer, which
# rebinds them, sees the benchmark's own calls into each layer.
from monge1d import cli, duality, energy, oracles, problem, transport

# `verify`'s mass and zero-gap bounds; for analyses, bounds tighter than
# the transport tests' (1e-8 for the cost identity, 1e-6 for the
# pushforward residual), set from what the program achieves here.
MASS_TOL = 1e-8
GAP_REL_TOL = 1e-6
COST_TOL = 1e-9
PUSHFORWARD_TOL = 1e-10

# The perturbation amplitudes `verify` probes with.
PROBE_T = (-1e-2, -1e-3, 1e-3, 1e-2)

# Checks `verify` fails by design on the canonical config, as
# (check, epsilon).  The slope bound fails at every epsilon (criterion 02);
# `nonnegative` also fails at eps 0.01, where the clip depth is 2.19e-12
# against the 1e-12 threshold.  A run fails if this set grows.
EXPECTED_VERIFY_FAILURES = frozenset({
    ("slope bound", "0.1"), ("slope bound", "0.01"), ("slope bound", "0.001"),
    ("nonnegative", "0.01"),
})

CANONICAL_CONFIG = {
    "problem": {
        "assumption": "I",
        "source": {"interval": [6, 8], "density": {"kind": "uniform"}},
        "target": [0, 5],
        "alpha": 1.0,
    },
    "epsilons": [0.1, 0.01, 0.001],
    "grid_n": 2001,
    "tolerances": {"root": 1e-12, "quad": 1e-10},
}
CLI_COMMANDS = ("validate", "solve", "map", "sweep", "verify")
CLI_EXIT_CODES = {"validate": 0, "solve": 0, "map": 0, "sweep": 0, "verify": 5}


@dataclass
class Outcome:
    """What one operation did."""

    samples: list              # latency per unit, seconds
    attempted: int
    failed: int
    outputs: dict              # numbers the check used; bitwise-comparable
    diagnostics: dict = field(default_factory=dict)
    label: str = ""


def attempt(op):
    """Run one operation; one that raises counts as one failed attempt,
    timed up to the exception, so a run goes on measuring."""
    start = time.perf_counter()
    try:
        return op()
    except Exception as exc:   # the measuring loop's boundary
        return Outcome(samples=[time.perf_counter() - start], attempted=1,
                       failed=1, outputs={},
                       label=f"{type(exc).__name__}: {exc}")


def _design(rng, layout, n, dims):
    """n points in [0, 1)^dims, one per stratum along every axis.

    Which cell each point occupies is a Latin hypercube fixed by `layout`;
    the seed's `rng` places each point inside its cell.  Seeds then vary
    the inputs without varying the mix of easy and hard points, which
    would otherwise dominate the run-to-run spread.
    """
    fixed = np.random.default_rng(layout)
    strata = np.array([fixed.permutation(n) for _ in range(dims)]).T
    return (strata + rng.random((n, dims))) / n


def _log_between(u, lo, hi):
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _spec(rng_u, assumption, alpha):
    """Spec with target offset 1e-2..1e3 from the origin and a width
    1.02..3 times the capacity width 2/sqrt(alpha)."""
    offset = _log_between(rng_u[0], 1e-2, 1e3)
    width = 2.0 / math.sqrt(alpha) * _log_between(rng_u[1], 1.02, 3.0)
    gap = 0.5 + 1.5 * rng_u[2]
    source_width = 1.0 + 2.0 * rng_u[3]
    target = (offset, offset + width)
    source = (target[1] + gap, target[1] + gap + source_width)
    if assumption == "II":
        target = (-target[1], -target[0])
        source = (-source[1], -source[0])
    return problem.uniform_spec(source, target, assumption, alpha)


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _criterion02(solution):
    return {"max_abs_slope": solution.max_abs_slope,
            "max_log_lambda": solution.max_log_lambda,
            "clip_depth": solution.clip_depth}


def _solve_failures(solution, report):
    """Names of the solve checks this (solution, energy report) misses."""
    bound = GAP_REL_TOL * max(1.0, abs(report.primal))
    failures = []
    if not report.constraint_residuals.mass_error <= MASS_TOL:
        failures.append("mass")
    if not (abs(report.gap_primal_dual) <= bound
            and abs(report.gap_primal_xi) <= bound):
        failures.append("gap")
    if not _finite(solution.dual.constant, solution.support_endpoint,
                   solution.mass, solution.expectation, report.primal,
                   report.dual, report.xi_total):
        failures.append("finite")
    return failures


# -- solve_grid ---------------------------------------------------------------

SOLVE_BLOCK = 16


def solve_grid_inputs(seed):
    """One Latin-hypercube block of cold solves over the box."""
    rng = np.random.default_rng([seed, 1])
    u = _design(rng, 1, SOLVE_BLOCK, 7)
    points = []
    for k, row in enumerate(u):
        alpha = _log_between(row[0], 0.5, 4.0)
        points.append({
            "spec": _spec(row[3:7], ("I", "II")[k % 2], alpha),
            "epsilon": _log_between(row[1], 1e-5, 1e-1),
            "grid_n": int(round(_log_between(row[2], 501, 8001))),
        })
    return points


def solve_op(point):
    start = time.perf_counter()
    solution = duality.assemble_density(point["spec"], point["epsilon"], point["grid_n"])
    report = energy.duality_gap(solution)
    elapsed = time.perf_counter() - start
    failures = _solve_failures(solution, report)
    return Outcome(
        samples=[elapsed], attempted=1, failed=int(bool(failures)),
        outputs={"constant": solution.dual.constant,
                 "endpoint": solution.support_endpoint,
                 "mass": solution.mass, "expectation": solution.expectation,
                 "primal": report.primal, "dual": report.dual,
                 "xi": report.xi_total},
        diagnostics=_criterion02(solution),
        label=",".join(failures))


# -- analyze_cached -----------------------------------------------------------

ANALYZE_SOLUTIONS = 6
SOURCES_PER_SOLUTION = 2
ANALYZE_GRID_N = 2001
SOURCE_KINDS = ("uniform", "piecewise-linear", "tabulated")


def _source(rng, kind, interval):
    """A unit-mass source density: uniform, or 5-9 random positive values
    on equally spaced nodes (see NOTES.md for unequal spacing)."""
    if kind == "uniform":
        return problem.SourceDensity(interval=interval)
    n_nodes = int(rng.integers(5, 10))
    return problem.normalize_density(problem.SourceDensity(
        interval=interval, kind=kind,
        nodes=tuple(np.linspace(interval[0], interval[1], n_nodes)),
        values=tuple(rng.uniform(0.2, 2.0, n_nodes))))


def analyze_inputs(seed):
    """Specs to solve during set-up and, per spec, two sources; the kinds
    rotate, so each kind meets four specs."""
    rng = np.random.default_rng([seed, 3])
    u = _design(rng, 3, ANALYZE_SOLUTIONS, 6)
    cases = []
    for k, row in enumerate(u):
        spec = _spec(row[2:6], ("I", "II")[k % 2], _log_between(row[0], 0.5, 4.0))
        cases.append({
            "spec": spec,
            "epsilon": _log_between(row[1], 1e-4, 1e-1),
            "sources": [_source(rng, SOURCE_KINDS[(k + i) % len(SOURCE_KINDS)],
                                spec.source_interval)
                        for i in range(SOURCES_PER_SOLUTION)],
        })
    return cases


def analyze_setup(cases):
    """(solution, analysis spec) pairs; the solves are set-up work."""
    pairs = []
    for case in cases:
        solution = duality.assemble_density(case["spec"], case["epsilon"], ANALYZE_GRID_N)
        pairs += [(solution, replace(case["spec"], source_density=source))
                  for source in case["sources"]]
    return pairs


def analysis_op(pair):
    solution, spec = pair
    start = time.perf_counter()
    report = energy.duality_gap(solution)
    probe = energy.second_variation_probe(
        solution, energy.SinePerturbation(solution.support, k=1), PROBE_T,
        dual_perturbation=lambda y: np.full(np.shape(y), 1.0))
    maps = {variant: transport.build_map(spec, solution, variant)
            for variant in ("increasing", "decreasing")}
    residuals = {variant: transport.pushforward_residual(m, solution, spec)
                 for variant, m in maps.items()}
    elapsed = time.perf_counter() - start
    exact_cost = abs(spec.source_density.barycenter() - solution.expectation)
    failures = [f"cost {v}" for v, m in maps.items()
                if not abs(m.cost - exact_cost) <= COST_TOL]
    failures += [f"pushforward {v}" for v, r in residuals.items()
                 if not r <= PUSHFORWARD_TOL]
    if not _finite(report.primal, report.dual, report.xi_total,
                   *probe.primal_deltas, *probe.dual_deltas):
        failures.append("finite")
    outputs = {"primal": report.primal, "dual": report.dual,
               "xi": report.xi_total}
    for v in maps:
        outputs[f"cost_{v}"] = maps[v].cost
        outputs[f"residual_{v}"] = residuals[v]
    for t, dp, dd in zip(PROBE_T, probe.primal_deltas, probe.dual_deltas):
        outputs[f"probe_primal_{t}"] = dp
        outputs[f"probe_dual_{t}"] = dd
    return Outcome(samples=[elapsed], attempted=1, failed=int(bool(failures)),
                   outputs=outputs, label=",".join(failures))


# -- cli_commands -------------------------------------------------------------

def cli_inputs(seed):
    """The canonical config plus the grid size of the LP oracle fixture."""
    rng = np.random.default_rng([seed, 4])
    return {"config": CANONICAL_CONFIG, "fixture_n": int(rng.integers(201, 1002))}


def cli_setup(inputs, workdir: Path):
    """Write the config and one oracle fixture into the output directory."""
    out = workdir / "artifacts"
    out.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "run.json"
    config_path.write_text(json.dumps({**inputs["config"], "out": str(out)}))
    spec = cli.load_run_config(config_path).spec
    oracles.save_fixture(oracles.discrete_expectation_optimizer(spec, inputs["fixture_n"]),
                 out / "oracle_lp.csv")
    return {"config": config_path, "out": out}


def _verify_failures(stdout):
    found = set()
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == "fail":
            scope = line[line.index("[") + 1:line.index("]")]
            name = line[len("fail"):line.index("[")].strip()
            found.add((name, scope.removeprefix("epsilon=")))
    return found


def _artifact_failures(command, out: Path, epsilons):
    """Check the artifacts a command writes against the program's bounds."""
    failures = []
    if command == "solve":
        for eps in epsilons:
            doc = json.loads((out / f"eps_{eps!r}" / "energy.json").read_text())
            bound = GAP_REL_TOL * max(1.0, abs(doc["primal"]))
            if not (abs(doc["mass"] - 1.0) <= MASS_TOL
                    and abs(doc["gap_primal_dual"]) <= bound
                    and abs(doc["gap_primal_xi"]) <= bound):
                failures.append(f"energy eps={eps!r}")
    elif command == "map":
        for eps in epsilons:
            energy_doc = json.loads((out / f"eps_{eps!r}" / "energy.json").read_text())
            cost = json.loads((out / f"eps_{eps!r}" / "cost.json").read_text())
            exact = abs(7.0 - energy_doc["expectation"])   # uniform [6, 8]
            for v in ("increasing", "decreasing"):
                if not (abs(cost[f"cost_{v}"] - exact) <= COST_TOL
                        and cost[f"residual_{v}"] <= PUSHFORWARD_TOL):
                    failures.append(f"map {v} eps={eps!r}")
    elif command == "sweep":
        report = json.loads((out / "report.json").read_text())
        if report.get("n_success") != len(epsilons):
            failures.append("sweep rows")
    return failures


def _artifact_paths(command, out: Path):
    eps_dirs = [out / f"eps_{eps!r}" for eps in CANONICAL_CONFIG["epsilons"]]
    if command == "solve":
        return [d / n for d in eps_dirs for n in ("energy.json", "density.csv")]
    if command == "map":
        return [d / n for d in eps_dirs for n in ("cost.json", "map.csv")]
    if command == "sweep":
        return [out / "sweep.csv", out / "report.json"]
    return []


def _command_outputs(command, out: Path):
    """Digest of each artifact the command wrote (they are deterministic)."""
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in _artifact_paths(command, out)}


def _judge_command(command, code, stdout, paths):
    """(failures, diagnostics) of one finished CLI command."""
    failures, diagnostics = [], {"command": command}
    if code != CLI_EXIT_CODES[command]:
        failures.append(f"exit {code}")
    elif command == "verify":
        found = _verify_failures(stdout)
        diagnostics["verify_failures"] = sorted(found)
        failures += [f"verify {name} [{scope}]"
                     for name, scope in sorted(found - EXPECTED_VERIFY_FAILURES)]
    else:
        failures += _artifact_failures(command, paths["out"],
                                       CANONICAL_CONFIG["epsilons"])
    return failures, diagnostics


def _command_outcome(command, elapsed, code, stdout, paths):
    failures, diagnostics = _judge_command(command, code, stdout, paths)
    return Outcome(samples=[elapsed], attempted=1, failed=int(bool(failures)),
                   outputs=_command_outputs(command, paths["out"]),
                   diagnostics=diagnostics, label=",".join(failures))


def cli_op(command, paths, env):
    """One CLI command in its own interpreter, as a user runs it."""
    argv = [sys.executable, "-m", "monge1d.cli", command,
            "--config", str(paths["config"])]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - start
    return _command_outcome(command, elapsed, proc.returncode, proc.stdout, paths)


def cli_inprocess_op(command, paths):
    """The same command through `cli.main` in this process (traced runs)."""
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(paths["config"])])
    elapsed = time.perf_counter() - start
    return _command_outcome(command, elapsed, code, stdout.getvalue(), paths)


# -- registry -----------------------------------------------------------------

@dataclass
class Prepared:
    """A workload after set-up: its operation cycle, timed and traced forms."""

    cycle: list                # callables returning Outcome, timed loop
    traced_cycle: list         # same work, in-process (for tracing)
    cycle_seconds: float       # share of `--seconds` one cycle stands for


# A timed run repeats the cycle max(1, round(seconds / CYCLE_SECONDS))
# times: a fixed amount of work per `--seconds`, so the sample count, and
# with it the tail percentile, does not depend on how busy the machine is.
# At `--seconds 16` that is 2 cycles of solve_grid (8-13 s each on a
# 2-core Intel Xeon VM), 16 of analyze_cached (1-1.6 s) and 2 of cli_commands
# (11-17 s).
CYCLE_SECONDS = {"solve_grid": 8.0, "analyze_cached": 1.0, "cli_commands": 8.0}


def prepare(name, seed, workdir: Path, env) -> Prepared:
    """Build the workload's inputs from the seed and do its set-up work."""
    nominal = CYCLE_SECONDS[name]
    if name == "solve_grid":
        ops = [lambda p=p: solve_op(p) for p in solve_grid_inputs(seed)]
        return Prepared(ops, ops, nominal)
    if name == "analyze_cached":
        ops = [lambda p=p: analysis_op(p)
               for p in analyze_setup(analyze_inputs(seed))]
        return Prepared(ops, ops, nominal)
    if name == "cli_commands":
        paths = cli_setup(cli_inputs(seed), workdir)
        return Prepared(
            [lambda c=c: cli_op(c, paths, env) for c in CLI_COMMANDS],
            [lambda c=c: cli_inprocess_op(c, paths) for c in CLI_COMMANDS],
            nominal)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = tuple(CYCLE_SECONDS)
