"""Independent ground-truth generators for cross-checking the dual solve.

Nothing here touches the stress/scale-factor machinery: the sharp-limit
tent is pure closed form, the expectation optimizer is a linear program
over the discretized constraint polytope, and the primal minimizer is
projected gradient descent on the literal discrete objective.  Agreement
between these and the assembled densities is therefore evidence, not
circularity.

Oracle runs can be persisted as a CSV of (y, u) samples plus a JSON
sidecar with the run metadata, so acceptance checks can pin the oracle
output before comparing the main pipeline against it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CapacityError, MaxIterations
from .problem import MongeProblemSpec, SourceDensity, require_capacity

_MASS_TOL = 1e-10
_SLOPE_SLACK = 1e-10
_DESCENT_MAX_ITER = 100_000


# -- sharp-limit tent ---------------------------------------------------------

@dataclass(frozen=True)
class TentDensity:
    """The vanishing-smoothing limit profile: a symmetric tent with
    slopes +-alpha, anchored at the target edge nearest the source.

    Width 2/sqrt(alpha) makes the mass exactly 1 and the peak sqrt(alpha).
    """

    support: tuple[float, float]
    alpha: float
    target: tuple[float, float]

    @property
    def center(self) -> float:
        return 0.5 * (self.support[0] + self.support[1])

    @property
    def mean(self) -> float:
        return self.center

    @property
    def peak(self) -> tuple[float, float]:
        return self.center, math.sqrt(self.alpha)

    @property
    def mass(self) -> float:
        lo, hi = self.support
        return self.alpha * (hi - lo) ** 2 / 4.0

    def __call__(self, y):
        y_arr = np.asarray(y, dtype=float)
        lo, hi = self.support
        out = self.alpha * np.maximum(
            np.minimum(y_arr - lo, hi - y_arr), 0.0)
        return out if np.ndim(y) else float(out)

    def slope(self, y):
        y_arr = np.asarray(y, dtype=float)
        lo, hi = self.support
        out = np.where((y_arr > lo) & (y_arr < self.center), self.alpha, 0.0)
        out = np.where((y_arr > self.center) & (y_arr < hi), -self.alpha, out)
        return out if np.ndim(y) else float(out)


def tent_limit_density(spec: MongeProblemSpec) -> TentDensity:
    """Closed-form limit density for a spec (no smoothing parameter).

    Raises CapacityError when the target is narrower than the tent
    (`problem.require_capacity`).
    """
    require_capacity(spec)
    anchor = spec.anchor
    support = tuple(sorted((anchor, anchor - spec.orientation * spec.sharp_width)))
    return TentDensity(support=support, alpha=spec.alpha,
                       target=spec.target_interval)


# -- discretized feasible set -------------------------------------------------

@dataclass(frozen=True)
class GridDensity:
    """A density sampled on a uniform grid over the full target interval.

    Feasibility means: zero endpoint values, trapezoidal mass 1 within
    1e-10, and per-cell slopes within alpha (1e-10 relative slack).
    """

    nodes: np.ndarray
    values: np.ndarray
    step: float
    alpha: float

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.step))

    def __call__(self, y):
        out = np.interp(np.asarray(y, dtype=float), self.nodes, self.values,
                        left=0.0, right=0.0)
        return out if np.ndim(y) else float(out)

    def expectation(self) -> float:
        return float(np.trapezoid(self.nodes * self.values, dx=self.step))

    def violations(self) -> tuple[str, ...]:
        out = []
        if self.values[0] != 0.0 or self.values[-1] != 0.0:
            out.append(f"endpoint values ({self.values[0]}, {self.values[-1]}) "
                       "are not zero")
        if np.any(self.values < 0.0):
            out.append(f"negative value {float(np.min(self.values))}")
        mass = self.trapezoid_mass
        if abs(mass - 1.0) > _MASS_TOL:
            out.append(f"trapezoidal mass {mass} is off by {mass - 1.0}")
        worst = float(np.max(np.abs(np.diff(self.values)))) / self.step
        if worst > self.alpha * (1.0 + _SLOPE_SLACK):
            out.append(f"cell slope {worst} exceeds the bound {self.alpha}")
        return tuple(out)


@dataclass(frozen=True)
class OracleRun:
    """A feasible grid density plus the metadata the sidecar records."""

    density: GridDensity
    objective: float
    iterations: int
    epsilon: float | None = None
    objective_trace: tuple[float, ...] = ()


def _grid(spec: MongeProblemSpec, n: int):
    tl, tr = spec.target_interval
    nodes = np.linspace(tl, tr, n)
    return nodes, (tr - tl) / (n - 1)


def _shift_to_mass(values: np.ndarray, step: float) -> np.ndarray:
    # uniform interior shift: preserves every interior difference
    out = values.copy()
    mass = np.trapezoid(out, dx=step)
    out[1:-1] += (1.0 - mass) / (step * (len(out) - 2))
    return out


def _clip_slopes(values: np.ndarray, bound: float) -> np.ndarray:
    """Pull values down onto the slope cone pinned at zero endpoints.

    u_i <= u_{i-1} + bound is enforced by a running minimum of
    u_i - i*bound, and the mirrored sweep handles the other direction.
    Pulling down only, this never moves a zero endpoint of a nonnegative
    profile, and together the two sweeps satisfy every pairwise bound.
    """
    ramp = bound * np.arange(len(values))
    out = np.minimum.accumulate(values - ramp) + ramp
    out = (np.minimum.accumulate((out + ramp)[::-1])[::-1]) - ramp
    return out


def _make_feasible(values: np.ndarray, step: float, alpha: float,
                   rounds: int = 60) -> np.ndarray:
    """Alternate the slope pull-down, nonnegativity, and the mass shift
    until all three hold to tolerance.  The mass shift only disturbs the
    boundary cells' slopes and the zero plateau's nonnegativity by the
    per-round shift amount, so the cycle contracts geometrically."""
    out = np.maximum(values, 0.0)
    out[0] = out[-1] = 0.0
    bound = alpha * step
    for _ in range(rounds):
        out = _clip_slopes(out, bound)
        out = np.maximum(out, 0.0)
        out = _shift_to_mass(out, step)
        slope_ok = np.max(np.abs(np.diff(out))) <= bound * (1.0 + _SLOPE_SLACK)
        mass_ok = abs(np.trapezoid(out, dx=step) - 1.0) <= _MASS_TOL
        if slope_ok and mass_ok and np.min(out) >= -1e-13:
            return np.maximum(out, 0.0)
    return np.maximum(out, 0.0)


# -- expectation optimizer (linear program) -----------------------------------

def discrete_expectation_optimizer(spec: MongeProblemSpec, n: int) -> OracleRun:
    """Extremize the discrete mean over the feasible polytope.

    Maximizes sum(y_i u_i) h under orientation I, minimizes it under II;
    the polytope (zero endpoints, slope bound, unit trapezoidal mass) is
    handed to a deterministic LP solve.  CapacityError when the target
    fails `problem.require_capacity`, or when the polytope is empty on
    this grid (at the sharp width an odd number of cells misses unit mass
    by a fraction 1/(n-1)^2).
    """
    # The LP is the package's only scipy call; importing it here keeps
    # scipy off every other import path (the CLI's among them).
    from scipy.optimize import linprog
    from scipy.sparse import eye_array, vstack

    if n < 101:
        raise ValueError("need at least 101 grid nodes")
    require_capacity(spec)
    nodes, h = _grid(spec, n)
    d = eye_array(n - 1, n, k=1) - eye_array(n - 1, n)
    a_ub = vstack([d, -d], format="csr")
    b_ub = np.full(2 * (n - 1), spec.alpha * h)
    a_eq = np.full((1, n), h)
    a_eq[0, 0] = a_eq[0, -1] = 0.5 * h
    bounds = [(0.0, 0.0)] + [(0.0, None)] * (n - 2) + [(0.0, 0.0)]
    result = linprog(-spec.orientation * h * nodes, A_ub=a_ub, b_ub=b_ub,
                     A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
    if result.status == 2:
        raise CapacityError(
            f"no grid density of mass 1 fits the slope bound {spec.alpha} "
            f"on {spec.target_interval}")
    if not result.success:
        raise RuntimeError(f"optimizer failed: {result.message}")
    values = _make_feasible(np.maximum(result.x, 0.0), h, spec.alpha)
    density = GridDensity(nodes=nodes, values=values, step=h, alpha=spec.alpha)
    return OracleRun(density=density, objective=density.expectation(),
                     iterations=int(result.nit))


# -- primal minimizer (projected descent) -------------------------------------

def _discrete_objective(values, nodes, h, alpha, epsilon):
    slopes = np.diff(values) / h
    hterm = epsilon * np.exp((slopes * slopes - alpha * alpha) / (2.0 * epsilon))
    return float(h * (np.sum(hterm) - np.sum(values * np.abs(nodes))))


def _objective_gradient(values, nodes, h, alpha, epsilon):
    slopes = np.diff(values) / h
    hprime = slopes * np.exp((slopes * slopes - alpha * alpha) / (2.0 * epsilon))
    grad = -h * np.abs(nodes)
    grad[:-1] -= hprime
    grad[1:] += hprime
    return grad


def discrete_primal_minimizer(spec: MongeProblemSpec, epsilon,
                              n: int) -> OracleRun:
    """Minimize the literal discrete smoothed objective by projected
    descent over the feasible polytope.

    Objective: h * sum_i [ eps e^{(s_i^2 - a^2)/(2 eps)} - u_i |y_i| ]
    with forward-difference slopes s_i.  Each iteration takes a gradient
    step, re-projects (slope clip, nonnegativity, mass shift), and keeps
    the step only if the objective did not increase, halving otherwise,
    so the recorded trace is nonincreasing by construction.  Returns when
    the relative objective change drops below 1e-10.  Raises CapacityError
    through the tent it starts from (`problem.require_capacity`).
    """
    if n < 101:
        raise ValueError("need at least 101 grid nodes")
    if epsilon < 1e-3:
        raise ValueError("smoothing below 1e-3 makes the discrete "
                         "objective too stiff for this oracle")
    nodes, h = _grid(spec, n)
    values = _make_feasible(tent_limit_density(spec)(nodes), h, spec.alpha)
    obj = _discrete_objective(values, nodes, h, spec.alpha, epsilon)
    trace = [obj]
    # curvature of the H term bounds the useful step
    step = h / (2.0 * (1.0 + spec.alpha ** 2 / epsilon))
    for iteration in range(1, _DESCENT_MAX_ITER + 1):
        grad = _objective_gradient(values, nodes, h, spec.alpha, epsilon)
        accepted = False
        for _ in range(40):
            trial = _make_feasible(values - step * grad, h, spec.alpha,
                                   rounds=8)
            trial_obj = _discrete_objective(trial, nodes, h, spec.alpha,
                                            epsilon)
            if trial_obj <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        values, prev, obj = trial, obj, trial_obj
        trace.append(obj)
        step *= 1.3
        if abs(prev - obj) < 1e-10 * max(1.0, abs(obj)):
            break
    else:
        raise MaxIterations(
            f"no convergence within {_DESCENT_MAX_ITER} descent iterations")
    values = _make_feasible(values, h, spec.alpha)
    density = GridDensity(nodes=nodes, values=values, step=h, alpha=spec.alpha)
    return OracleRun(density=density,
                     objective=_discrete_objective(values, nodes, h,
                                                   spec.alpha, epsilon),
                     iterations=iteration, epsilon=epsilon,
                     objective_trace=tuple(trace))


# -- mirror -------------------------------------------------------------------

def mirror_transform(spec: MongeProblemSpec) -> MongeProblemSpec:
    """Reflect a problem through the origin, swapping the orientation.

    Negation is exact in floating point, so the transform is exactly
    involutive, which is what makes mirror agreement a usable oracle.
    """

    def flip(iv):
        return (-iv[1], -iv[0])

    density = spec.source_density
    mirrored = replace(
        density,
        interval=flip(density.interval),
        nodes=(None if density.nodes is None
               else tuple(-x for x in reversed(density.nodes))),
        values=(None if density.values is None
                else tuple(reversed(density.values))),
    )
    return MongeProblemSpec(
        source_interval=flip(spec.source_interval),
        target_interval=flip(spec.target_interval),
        assumption="II" if spec.assumption == "I" else "I",
        alpha=spec.alpha,
        source_density=mirrored,
    )


# -- fixtures -----------------------------------------------------------------

def save_fixture(run: OracleRun, csv_path) -> Path:
    """Write (y, u) rows to csv_path and the run metadata to a JSON
    sidecar next to it; returns the sidecar path."""
    csv_path = Path(csv_path)
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "u"])
        for y, u in zip(run.density.nodes, run.density.values):
            writer.writerow([repr(float(y)), repr(float(u))])
    sidecar = csv_path.with_suffix(".json")
    meta = {
        "objective": run.objective,
        "n": run.density.n,
        "epsilon": run.epsilon,
        "alpha": run.density.alpha,
        "iterations": run.iterations,
    }
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")
    return sidecar


def load_fixture(csv_path) -> OracleRun:
    """Read back a fixture written by save_fixture.

    Raises ValueError naming the problem when the CSV header or the JSON
    sidecar is not what save_fixture writes, or when the CSV holds fewer
    than two rows.
    """
    csv_path = Path(csv_path)
    with csv_path.open(newline="") as fh:
        lines = list(csv.reader(fh))
    if lines and lines[0] != ["y", "u"]:
        raise ValueError(f"unexpected fixture header {lines[0]!r}")
    if len(lines) < 3:
        raise ValueError(f"{csv_path.name}: {max(len(lines) - 1, 0)} data "
                         f"row(s) after the y,u header, a fixture needs two")
    rows = [(float(y), float(u)) for y, u in lines[1:]]
    sidecar = csv_path.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar.name}: expected an object")
    for key in ("alpha", "objective", "iterations", "epsilon"):
        if key not in meta:
            raise ValueError(f"{sidecar.name}: missing key {key!r}")
    try:
        alpha, objective = float(meta["alpha"]), float(meta["objective"])
        iterations = int(meta["iterations"])
        epsilon = None if meta["epsilon"] is None else float(meta["epsilon"])
    except TypeError as exc:
        raise ValueError(f"{sidecar.name}: {exc}") from exc
    nodes = np.array([y for y, _ in rows])
    values = np.array([u for _, u in rows])
    density = GridDensity(nodes=nodes, values=values,
                          step=float(nodes[1] - nodes[0]), alpha=alpha)
    return OracleRun(density=density, objective=objective,
                     iterations=iterations, epsilon=epsilon)
