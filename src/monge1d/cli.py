"""Command-line driver: one JSON config document, five commands.

`validate` checks the problem statement and target capacity without
solving.  `solve` runs the dual pipeline per requested epsilon and emits
plot-ready density samples plus the energy report.  `map` additionally
builds both monotone transport maps.  `sweep` produces the convergence
table and summary.  `verify` runs the invariant battery (sign and slope
bound, zero gap, variational probes, and oracle fixtures when present)
and reports a pass/fail table.  Only `sweep` and `verify` with a fixture
import `monge1d.oracles`.

Exit codes: 0 success, 2 config or validation problem, 3 capacity
failure (both verdicts are taken before any solve), 4 solver failure,
5 verification failure.  Scalar flags override config fields, which
override built-in defaults.  All file writes go through a temp-file
rename so a crash never leaves a partial artifact, and floats are
serialized with repr so identical inputs give byte-identical files.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .duality import assemble_density
from .energy import SinePerturbation, duality_gap, second_variation_probe
from .errors import (
    CapacityError,
    ConfigError,
    InsufficientRows,
    MaxDepth,
    MaxIterations,
    Monge1dError,
)
from .problem import (MongeProblemSpec, _as_float, _expect_object, require_capacity,
                      spec_from_document, validate_spec)
from .sweep import (
    EPSILON_FLOOR,
    convergence_report,
    epsilon_sweep,
    rows_to_csv,
)
from .transport import build_map, pushforward_residual

# Stage labels for solver failures, keyed by what actually broke: the
# coupled zero solve and the slope inversion are the Newton iterations.
_STAGE_LABELS = {
    MaxIterations: "Newton iteration",
    MaxDepth: "quadrature subdivision",
}


@dataclass(frozen=True)
class RunConfig:
    """One parsed config document with flag overrides already applied."""

    spec: MongeProblemSpec
    epsilons: tuple[float, ...]
    grid_n: int = 2001
    out_dir: Path = Path("out")
    quiet: bool = False


def _positive_float(value, path) -> float:
    out = _as_float(value, path)
    if not (math.isfinite(out) and out > 0.0):
        raise ConfigError(f"{path}: expected a finite positive number, "
                          f"got {value!r}")
    return out


def parse_run_config(doc, *, overrides=None) -> RunConfig:
    """Build a RunConfig from the JSON document, strictly.

    Unknown keys are rejected at every level.  `overrides` carries the
    scalar command-line flags; a None override leaves the file (or
    default) value in place.  `tolerances` is checked (an object with
    finite positive `root` and `quad`, each optional) and otherwise
    ignored: the solve and the probes run at their own fixed tolerances.
    """
    overrides = overrides or {}
    _expect_object(doc, "config", required=("problem", "epsilons"),
                   optional=("grid_n", "tolerances", "out"))
    spec = spec_from_document(doc["problem"])

    raw_eps = overrides.get("epsilons") or doc["epsilons"]
    if not isinstance(raw_eps, (list, tuple)) or not raw_eps:
        raise ConfigError("config.epsilons: expected a nonempty list")
    epsilons = tuple(_positive_float(e, f"config.epsilons[{i}]")
                     for i, e in enumerate(raw_eps))

    grid_n = overrides.get("grid_n")
    if grid_n is None:
        grid_n = doc.get("grid_n", 2001)
    if isinstance(grid_n, bool) or not isinstance(grid_n, int):
        raise ConfigError(f"config.grid_n: expected an integer, got {grid_n!r}")
    if grid_n < 33:
        raise ConfigError(f"config.grid_n: needs at least 33 nodes, got {grid_n}")

    tols = doc.get("tolerances", {})
    _expect_object(tols, "config.tolerances", required=(), optional=("root", "quad"))
    for key, value in tols.items():
        _positive_float(value, f"config.tolerances.{key}")

    out_dir = overrides.get("out") or doc.get("out", "out")
    if not isinstance(out_dir, (str, Path)):
        raise ConfigError(f"config.out: expected a path string, got {out_dir!r}")

    return RunConfig(spec=spec, epsilons=epsilons, grid_n=grid_n,
                     out_dir=Path(out_dir),
                     quiet=bool(overrides.get("quiet", False)))


def load_run_config(path, *, overrides=None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_run_config(doc, overrides=overrides)


# -- artifact serialization ---------------------------------------------------


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path: Path, doc):
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _eps_dir(out_dir: Path, epsilon: float) -> Path:
    return out_dir / f"eps_{epsilon!r}"


def _csv_text(header, columns) -> str:
    """CSV text with one row per index of the float columns, each value
    written with repr."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def density_csv(solution) -> str:
    return _csv_text(["y", "u"], [solution.nodes, solution.values])


def energy_json_document(solution, report) -> dict:
    doc = dataclasses.asdict(report)
    doc.update(
        epsilon=solution.epsilon,
        alpha=solution.spec.alpha,
        assumption=solution.spec.assumption,
        constant=solution.dual.constant,
        multiplier=solution.dual.multiplier,
        support=list(solution.support),
        support_endpoint=solution.support_endpoint,
        crossing=solution.dual.zeros[1],
        mass=solution.mass,
        expectation=solution.expectation,
    )
    return doc


def map_csv(spec, increasing, decreasing, grid_n) -> str:
    lo, hi = spec.source_interval
    xs = np.linspace(lo, hi, grid_n)
    return _csv_text(["x", "s_increasing", "s_decreasing"],
                     [xs, increasing.map(xs), decreasing.map(xs)])


def cost_json_document(spec, solution, increasing, decreasing) -> dict:
    return {
        "epsilon": solution.epsilon,
        "cost_increasing": increasing.cost,
        "cost_decreasing": decreasing.cost,
        "residual_increasing": pushforward_residual(increasing, solution, spec),
        "residual_decreasing": pushforward_residual(decreasing, solution, spec),
    }


# -- commands -----------------------------------------------------------------


def _emit(config: RunConfig, *parts):
    if not config.quiet:
        print(*parts)


def _fail(message: str) -> None:
    print(message, file=sys.stderr)


def _solver_failure(epsilon, exc) -> int:
    stage = _STAGE_LABELS.get(type(exc), type(exc).__name__)
    _fail(f"solve failed at epsilon={epsilon!r} in {stage}: {exc}")
    return 4


def _verdicts(config: RunConfig, *, announce=False) -> int:
    """Verdicts on the spec alone, taken before any solve: 2 for an invalid
    spec, 3 for a target narrower than the sharp width, else 0 (announced
    by `validate`)."""
    spec = config.spec
    report = validate_spec(spec)
    if not report.ok:
        _fail(f"spec: invalid: {report.message()}")
        return 2
    if announce:
        _emit(config, "spec: ok")
    try:
        require_capacity(spec)
    except CapacityError as exc:
        _fail(f"capacity: fail: {exc}")
        return 3
    if announce:
        _emit(config, f"capacity: ok (target width {spec.target_width!r} "
                      f">= 2/sqrt(alpha) = {spec.sharp_width!r})")
    return 0


def cmd_validate(config: RunConfig) -> int:
    return _verdicts(config, announce=True)


def _precheck(config: RunConfig) -> int:
    """The epsilon floor, then the spec and capacity verdicts."""
    for eps in config.epsilons:
        if eps < EPSILON_FLOOR:
            _fail(f"config.epsilons: {eps!r} is below the supported floor "
                  f"{EPSILON_FLOOR!r}")
            return 2
    return _verdicts(config)


def cmd_solve(config: RunConfig) -> int:
    code = _precheck(config)
    if code:
        return code
    for eps in config.epsilons:
        try:
            solution = assemble_density(config.spec, eps, config.grid_n)
            report = duality_gap(solution)
            target = _eps_dir(config.out_dir, eps)
            _write_atomic(target / "density.csv", density_csv(solution))
            _write_json(target / "energy.json",
                        energy_json_document(solution, report))
        except Monge1dError as exc:
            return _solver_failure(eps, exc)
        _emit(config, f"epsilon={eps!r}: support endpoint "
                      f"{solution.support_endpoint!r}, gap "
                      f"{report.gap_primal_dual!r} -> {target}")
    return 0


def cmd_map(config: RunConfig) -> int:
    code = _precheck(config)
    if code:
        return code
    for eps in config.epsilons:
        try:
            solution = assemble_density(config.spec, eps, config.grid_n)
            increasing = build_map(config.spec, solution, "increasing")
            decreasing = build_map(config.spec, solution, "decreasing")
            target = _eps_dir(config.out_dir, eps)
            _write_atomic(target / "map.csv",
                          map_csv(config.spec, increasing, decreasing,
                                  config.grid_n))
            _write_json(target / "cost.json",
                        cost_json_document(config.spec, solution, increasing,
                                           decreasing))
        except Monge1dError as exc:
            return _solver_failure(eps, exc)
        _emit(config, f"epsilon={eps!r}: cost {increasing.cost!r} -> {target}")
    return 0


def cmd_sweep(config: RunConfig) -> int:
    code = _verdicts(config)
    if code:
        return code
    rows = epsilon_sweep(config.spec, config.epsilons)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(config.out_dir / "sweep.csv", rows_to_csv(rows))
    try:
        summary = dataclasses.asdict(convergence_report(rows))
    except InsufficientRows as exc:
        summary = {"error": f"{type(exc).__name__}: {exc}"}
    _write_json(config.out_dir / "report.json", summary)

    failed = [r for r in rows if not r.ok]
    for row in failed:
        _fail(f"epsilon={row.epsilon!r}: {row.error}")
    _emit(config, f"sweep: {len(rows) - len(failed)}/{len(rows)} rows ok "
                  f"-> {config.out_dir}")
    return 4 if failed else 0


# -- verification battery -----------------------------------------------------


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


def _check(name, ok, detail) -> VerifyCheck:
    return VerifyCheck(name, "pass" if ok else "fail", detail)


def _battery_for(config: RunConfig, sol) -> list[VerifyCheck]:
    """The checks of one solution, each able to fail: what the assembly
    pins (the Dirichlet ends, the zero off the support, the slope's
    inversion of the stress, the unit mass its solve holds within 1e-10)
    is not re-read."""
    alpha = config.spec.alpha
    out = []
    report = duality_gap(sol)
    res = report.constraint_residuals

    out.append(_check("nonnegative", res.negativity <= 1e-12,
                      f"max(-u) = {res.negativity:.3e}"))
    out.append(_check(
        "slope bound", sol.max_abs_slope <= alpha * (1.0 + 1e-10),
        f"sup|u_y| = {sol.max_abs_slope!r} vs alpha = {alpha!r}"))

    gap = abs(report.gap_primal_dual)
    bound = 1e-6 * max(1.0, abs(report.primal))
    out.append(_check("zero gap", gap <= bound,
                      f"worst gap = {gap:.3e} vs {bound:.3e}"))

    probe = second_variation_probe(
        sol, SinePerturbation(sol.support, k=1),
        (-1e-2, -1e-3, 1e-3, 1e-2),
        dual_perturbation=lambda y: np.full(np.shape(y), 1.0))
    out.append(_check(
        "variational probes",
        probe.min_primal_delta >= -1e-10 and probe.max_dual_delta <= 1e-10,
        f"min primal delta = {probe.min_primal_delta:.3e}, "
        f"max dual delta = {probe.max_dual_delta:.3e}"))
    return out


def _fixture_checks(config: RunConfig, solved: dict) -> list[VerifyCheck]:
    """One check per oracle fixture under the output directory, against
    the density solved at the fixture's epsilon (the last configured one
    when the fixture has none).  `solved` maps epsilon to the solutions
    the battery already made; a fixture epsilon outside it is solved and
    added."""
    paths = sorted(config.out_dir.glob("oracle*.csv"))
    if not paths:
        return [VerifyCheck("oracle fixtures", "skipped",
                            f"no oracle*.csv under {config.out_dir}")]
    from .oracles import load_fixture

    out = []
    for path in paths:
        name = f"oracle {path.name}"
        try:
            run = load_fixture(path)
        except (OSError, ValueError) as exc:
            out.append(_check(name, False, str(exc)))
            continue
        problems = run.density.violations()
        if problems:
            out.append(_check(name, False, problems[0]))
            continue
        eps = run.epsilon if run.epsilon is not None else config.epsilons[-1]
        if not (math.isfinite(eps) and eps >= EPSILON_FLOOR):
            out.append(_check(name, False, f"fixture epsilon {eps!r} is not "
                              f"a finite value >= {EPSILON_FLOOR!r}"))
            continue
        if eps not in solved:
            try:
                solved[eps] = assemble_density(config.spec, eps, config.grid_n)
            except Monge1dError as exc:
                out.append(_check(name, False, f"solve at epsilon={eps!r} "
                                  f"failed: {type(exc).__name__}: {exc}"))
                continue
        values = solved[eps](run.density.nodes)
        dist = float(np.max(np.abs(run.density.values - values)))
        out.append(_check(name, dist <= 0.05,
                          f"sup distance to solved density = {dist:.3e}"))
    return out


def cmd_verify(config: RunConfig) -> int:
    code = _precheck(config)
    if code:
        return code
    checks = []
    solved = {}
    for eps in config.epsilons:
        try:
            if eps not in solved:
                solved[eps] = assemble_density(config.spec, eps, config.grid_n)
            checks.extend((eps, c) for c in _battery_for(config, solved[eps]))
        except Monge1dError as exc:
            return _solver_failure(eps, exc)
    checks.extend((None, c) for c in _fixture_checks(config, solved))

    failed = [c for _, c in checks if c.status == "fail"]
    for eps, check in checks:
        scope = "fixtures" if eps is None else f"epsilon={eps!r}"
        _emit(config, f"{check.status:<8} {check.name:<20} [{scope}] "
                      f"{check.detail}")
    if failed:
        _fail("verify: failed " + ", ".join(sorted({c.name for c in failed})))
        return 5
    _emit(config, f"verify: all {len(checks)} checks passed or skipped")
    return 0


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monge1d",
        description="Canonical-duality solver for the 1-D mass transfer "
                    "problem with disjoint intervals.")
    parser.add_argument("command",
                        choices=("validate", "solve", "map", "sweep", "verify"))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--epsilon", action="append", type=float,
                        help="smoothing value; repeatable (overrides config)")
    parser.add_argument("--grid", type=int,
                        help="profile grid nodes (overrides config)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "map": cmd_map,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "epsilons": tuple(args.epsilon) if args.epsilon else None,
        "grid_n": args.grid,
        "out": args.out,
        "quiet": args.quiet,
    }
    try:
        config = load_run_config(args.config, overrides=overrides)
    except ConfigError as exc:
        _fail(str(exc))
        return 2
    return _COMMANDS[args.command](config)


if __name__ == "__main__":
    sys.exit(main())
