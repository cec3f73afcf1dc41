"""Independent ground-truth generators for cross-checking the dual solve.

Nothing here touches the stress/scale-factor machinery: the sharp-limit
tent is pure closed form, the expectation optimizer is a linear program
over the discretized constraint polytope, and the primal minimizer is a
log-barrier Newton iteration on the literal discrete objective, strictly
inside that polytope.  Agreement between these and the assembled
densities is therefore evidence, not circularity.

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
_FIXTURE_STEP_TOL = 1e-9


# -- sharp-limit tent ---------------------------------------------------------

@dataclass(frozen=True)
class TentDensity:
    """The vanishing-smoothing limit profile: a symmetric tent with
    slopes +-alpha, anchored at the target edge nearest the source.

    Width W = 2/sqrt(alpha) makes the mass alpha W^2/4 exactly 1 and the
    peak sqrt(alpha).
    """

    support: tuple[float, float]
    alpha: float

    @property
    def center(self) -> float:
        return 0.5 * (self.support[0] + self.support[1])

    def __call__(self, y):
        y_arr = np.asarray(y, dtype=float)
        lo, hi = self.support
        out = self.alpha * np.maximum(
            np.minimum(y_arr - lo, hi - y_arr), 0.0)
        return out if np.ndim(y) else float(out)


def tent_limit_density(spec: MongeProblemSpec) -> TentDensity:
    """Closed-form limit density for a spec (no smoothing parameter).

    Raises CapacityError when the target is narrower than the tent, and
    DomainError when no tent width is defined (`problem.require_capacity`).
    """
    require_capacity(spec)
    anchor = spec.anchor
    support = tuple(sorted((anchor, anchor - spec.orientation * spec.sharp_width)))
    return TentDensity(support=support, alpha=spec.alpha)


# -- discretized feasible set -------------------------------------------------

@dataclass(frozen=True)
class GridDensity:
    """A density sampled on a uniform grid over the full target interval.

    Feasibility means: finite nodes, values and alpha, zero endpoint
    values, trapezoidal mass 1 within 1e-10, and per-cell slopes within
    alpha (1e-10 relative slack).
    """

    nodes: np.ndarray
    values: np.ndarray
    step: float
    alpha: float

    @property
    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.step))

    def expectation(self) -> float:
        return float(np.trapezoid(self.nodes * self.values, dx=self.step))

    def violations(self) -> tuple[str, ...]:
        """The failed feasibility conditions.  Non-finite nodes, values or
        alpha are reported alone: every comparison with NaN is False, so
        the checks that read them would pass a NaN."""
        out = []
        for name, arr in (("node", self.nodes), ("value", self.values)):
            bad = ~np.isfinite(arr)
            if bad.any():
                k = int(np.argmax(bad))
                out.append(f"{int(bad.sum())} non-finite {name}(s), the first "
                           f"{float(arr[k])} at index {k}")
        if not math.isfinite(self.alpha):
            out.append(f"non-finite slope bound alpha = {self.alpha}")
        if out:
            return tuple(out)
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


def _grid(spec: MongeProblemSpec, n: int):
    """(nodes, step, tent, sharp): the full-width tent at unit mass is the
    grid density of least slope, so the polytope is empty when it exceeds
    the bound, and within the check's slack of alpha (`sharp`) the tent is
    its one point.  Raises CapacityError then, ValueError for fewer than
    101 nodes, and what `problem.require_capacity` raises."""
    if n < 101:
        raise ValueError("need at least 101 grid nodes")
    require_capacity(spec)
    tl, tr = spec.target_interval
    nodes, h = np.linspace(tl, tr, n), (tr - tl) / (n - 1)
    tent = np.minimum(nodes - tl, tr - nodes)
    tent /= np.trapezoid(tent, dx=h)
    slope = np.max(np.abs(np.diff(tent))) / h
    if slope > spec.alpha * (1.0 + _SLOPE_SLACK):
        raise CapacityError(f"no grid density of mass 1 fits the slope bound "
                            f"{spec.alpha} on {spec.target_interval}")
    return nodes, h, tent, slope >= spec.alpha * (1.0 - _SLOPE_SLACK)


def _checked(nodes, values, step, alpha) -> GridDensity:
    """The solver's point, or MaxIterations naming its first violation."""
    density = GridDensity(nodes=nodes, values=values, step=step, alpha=alpha)
    problems = density.violations()
    if problems:
        raise MaxIterations(f"the solver returned a point with {problems[0]}")
    return density


# -- expectation optimizer (linear program) -----------------------------------

def discrete_expectation_optimizer(spec: MongeProblemSpec, n: int) -> OracleRun:
    """Extremize the discrete mean over the feasible polytope: maximize
    sum(y_i u_i) h under orientation I, minimize it under II, by HiGHS at
    a feasibility tolerance of 1e-10 (the tent where `_grid` finds the
    sharp width).  Raises what `_grid` raises."""
    # Imported here, scipy stays off every other import path (the CLI's).
    from scipy.optimize import linprog
    from scipy.sparse import eye_array, vstack

    nodes, h, values, sharp = _grid(spec, n)
    iterations = 0
    if not sharp:
        d = eye_array(n - 1, n, k=1) - eye_array(n - 1, n)
        a_eq = np.full((1, n), h)
        a_eq[0, 0] = a_eq[0, -1] = 0.5 * h
        bounds = [(0.0, 0.0)] + [(0.0, None)] * (n - 2) + [(0.0, 0.0)]
        result = linprog(-spec.orientation * h * nodes,
                         A_ub=vstack([d, -d], format="csr"),
                         b_ub=np.full(2 * (n - 1), spec.alpha * h),
                         A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs",
                         options={"primal_feasibility_tolerance": 1e-10})
        if not result.success:
            raise RuntimeError(f"optimizer failed: {result.message}")
        values, iterations = result.x, int(result.nit)
    density = _checked(nodes, values, h, spec.alpha)
    return OracleRun(density=density, objective=density.expectation(),
                     iterations=iterations)


# -- primal minimizer (log-barrier Newton) ------------------------------------

def _discrete_objective(values, nodes, h, alpha, epsilon):
    slopes = np.diff(values) / h
    hterm = epsilon * np.exp((slopes * slopes - alpha * alpha) / (2.0 * epsilon))
    return float(h * (np.sum(hterm) - np.sum(values * np.abs(nodes))))


def _barrier_newton(values, nodes, h, alpha, epsilon):
    """Newton on the objective minus mu (sum ln u_i + sum ln(a^2 - s_i^2)),
    +inf off the open box, from the strictly feasible `values`; returns
    (values, steps).  A step du_i = w_i - w_{i-1} moves mass w_i across
    each interior cell, so it keeps the mass, and its Hessian in w is
    pentadiagonal (bordering the one in u by the mass row cancels where
    only the barrier holds a block of nodes).  mu falls tenfold from 1e-2
    until the 3n barrier terms cost at most 1e-10; a stage ends at a
    decrement of 1e-13 max(1, |phi|), or raises MaxIterations after 50
    steps or 60 halvings of one."""
    from scipy.linalg import solve_banded

    a2, u, weights, steps = alpha * alpha, values, h * np.abs(nodes[1:-1]), 0

    def phi(v, mu):
        room = a2 - (np.diff(v) / h) ** 2
        if np.min(v[1:-1]) <= 0.0 or np.min(room) <= 0.0:
            return math.inf
        return (_discrete_objective(v, nodes, h, alpha, epsilon)
                - mu * (np.sum(np.log(v[1:-1])) + np.sum(np.log(room))))

    mu = 1e-2
    while True:
        value = phi(u, mu)
        for _ in range(50):
            s = np.diff(u) / h
            room, e = a2 - s * s, np.exp((s * s - a2) / (2.0 * epsilon))
            # each cell's share of the gradient (c) and of the Hessian (d)
            c = s * e + 2.0 * mu * s / (h * room)
            d = (1.0 + s * s / epsilon) * e / h + 2.0 * mu * (a2 + s * s) / (h * room) ** 2
            grad = c[:-1] - c[1:] - mu / u[1:-1] - weights
            a, b = d[:-1] + d[1:] + mu / u[1:-1] ** 2, -d[1:-1]
            band = np.zeros((5, b.size))
            band[0, 2:] = band[4, :-2] = -b[1:-1]
            band[1, 1:] = band[3, :-1] = b[:-1] - a[1:-1] + b[1:]
            band[2] = a[:-1] + a[1:] - 2.0 * b
            du = np.diff(np.pad(solve_banded((2, 2), band, grad[1:] - grad[:-1]), 2))
            decrement = -grad @ du[1:-1]
            if decrement <= 1e-13 * max(1.0, abs(value)):
                break
            t = 1.0
            for _ in range(60):
                trial = phi(u + t * du, mu)
                if trial <= value - 0.25 * t * decrement:
                    break
                t *= 0.5
            else:
                raise MaxIterations(f"60 halvings of a barrier step at mu = {mu:.0e}")
            u, value, steps = u + t * du, trial, steps + 1
        else:
            raise MaxIterations(f"50 Newton steps in the barrier stage mu = {mu:.0e}")
        if 3 * u.size * mu <= 1e-10:
            return u, steps
        mu /= 10.0


def discrete_primal_minimizer(spec: MongeProblemSpec, epsilon,
                              n: int) -> OracleRun:
    """Minimize h sum_i [eps e^{(s_i^2 - a^2)/(2 eps)} - u_i |y_i|] (slopes
    s_i forward differences) over the feasible polytope by `_barrier_newton`
    from `_grid`'s tent (slope 4/W^2, below alpha on a target wider than the
    sharp width); at the sharp width that tent is returned.  Raises
    ValueError for an epsilon not finite and > 0, and what `_grid` raises.
    A known limit: within about 1e-5 of the sharp width, on a grid that
    still fits the tent, a barrier stage raises MaxIterations rather than
    return a point (alpha 1, width 2 (1 + 1e-9), n = 401, eps 0.1 to 1e-6):
    every slope sits that close to alpha, and the rounding of
    alpha^2 - s^2 outgrows the decrement test.  The LP solves those grids."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon!r}")
    nodes, h, values, sharp = _grid(spec, n)
    steps = 0
    if not sharp:
        values, steps = _barrier_newton(values, nodes, h, spec.alpha, epsilon)
    density = _checked(nodes, values, h, spec.alpha)
    objective = _discrete_objective(values, nodes, h, spec.alpha, epsilon)
    return OracleRun(density=density, objective=objective, iterations=steps,
                     epsilon=epsilon)


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
        "n": len(run.density.nodes),
        "epsilon": run.epsilon,
        "alpha": run.density.alpha,
        "iterations": run.iterations,
    }
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")
    return sidecar


def load_fixture(csv_path) -> OracleRun:
    """Read back a fixture written by save_fixture.

    Raises ValueError naming the problem when the CSV header or the JSON
    sidecar is not what save_fixture writes, when the sidecar's alpha or
    objective is not finite or its epsilon neither null nor finite (`json`
    reads NaN and Infinity), when the CSV holds fewer than two rows or
    another count of rows than the sidecar's n (a CSV cut short inside
    its zero tail keeps zero end values and a unit mass, and would pass
    every other check), or when its nodes are not increasing and equally
    spaced (the trapezoidal mass and the slopes read every cell with the
    first step), naming the first row whose step departs from the first
    by more than 1e-9 relative.  A non-finite u is a feasibility violation
    (`GridDensity.violations`), not a malformed file.
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
    for key in ("alpha", "objective", "iterations", "epsilon", "n"):
        if key not in meta:
            raise ValueError(f"{sidecar.name}: missing key {key!r}")
    try:
        alpha, objective = float(meta["alpha"]), float(meta["objective"])
        iterations, n = int(meta["iterations"]), int(meta["n"])
        epsilon = None if meta["epsilon"] is None else float(meta["epsilon"])
    except TypeError as exc:
        raise ValueError(f"{sidecar.name}: {exc}") from exc
    if n != len(rows):
        raise ValueError(f"{csv_path.name}: {len(rows)} data rows, but "
                         f"{sidecar.name} records n = {n}")
    for key, value in (("alpha", alpha), ("objective", objective),
                       ("epsilon", epsilon)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{sidecar.name}: {key} {value!r} is not finite")
    nodes = np.array([y for y, _ in rows])
    values = np.array([u for _, u in rows])
    steps = np.diff(nodes)
    bad = ~(np.abs(steps - steps[0]) <= _FIXTURE_STEP_TOL * steps[0])
    bad[0] = not steps[0] > 0.0
    if bad.any():
        k = int(np.argmax(bad))
        # Data row k + 2 (counting from 1) ends step k.
        raise ValueError(
            f"{csv_path.name}: row {k + 2} (y = {float(nodes[k + 1])!r}) is "
            f"{float(steps[k])!r} past the row before it, but the first "
            f"step is {float(steps[0])!r}: fixture nodes must increase in "
            f"equal steps")
    density = GridDensity(nodes=nodes, values=values,
                          step=float(nodes[1] - nodes[0]), alpha=alpha)
    return OracleRun(density=density, objective=objective,
                     iterations=iterations, epsilon=epsilon)
