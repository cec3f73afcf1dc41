"""Dual construction of the smoothed transfer density.

The density minimizes the integral of H(u_y) - |y| u over nonnegative,
unit-mass profiles on the target.  The chain of reasoning implemented
here, all in closed form up to one two-unknown root solve:

1. On its support the stress field is an explicit parabola satisfying
   the stress equation theta_y = -|y| - mu exactly, where mu is the
   multiplier of the unit-mass constraint.  It is held through its two
   zeros, theta(y) = -orientation (y - z)(y - c)/2 with
   mu = -orientation (z + c)/2: the crossing c, where the density peaks,
   and the free zero z, where the density leaves zero (the free-endpoint
   condition theta(z) = H'(0) = 0).
2. The pointwise algebraic identity theta^2 = E(lambda) with
   E(lambda) = lambda^2 (alpha^2 + 2 eps ln lambda) links the stress to a
   scale factor lambda = e^l; the density slope is then
   slope = sign(theta) * sqrt(alpha^2 + 2 eps l), which is the exact
   inverse of the smoothed-penalty derivative.
3. The two zeros are fixed together by two conditions: the density
   vanishes at both support endpoints (closure) and holds unit mass.  One
   safeguarded Newton iteration on (z, c) solves both, starting from the
   sharp-limit tent; each iterate costs one quadrature pass, which yields
   both residuals (`_solve_zeros`).  When even the free zero at the far
   target edge leaves less than unit mass, the support is the whole
   target: the far edge is then a Dirichlet end with theta > 0 there, and
   the free zero lies beyond it; the same iteration reaches it by letting
   z cross the far edge.
4. The density itself is the cumulative integral of the slope from the
   anchored endpoint.

The quadratures of the slope, the solve's unknowns and the assembly's
grid are all depths s = orientation (anchor - y), 0 at the anchored edge
and the target width at the far edge.  In depth both orientations are one
problem, with stress (s - z)(s - c)/2 on the support [0, min(z, width)],
so orientation enters only where depths map back to y, and a mirrored
problem gives the bitwise mirrored solution.  A shifted problem gives the
shifted solution, and the zeros resolve to ulps of the target's width
rather than of its distance from the origin.  Whether the target can hold
unit mass at all is decided before the solve, in closed form, by
`problem.require_capacity`: the target must be at least as wide as the
sharp-limit tent, 2/sqrt(alpha).  The multiplier-free parabola
orientation * (constant - y^2/2) survives only as a reference
construction (`solve_constant`).

Every quadrature of the slope starts from panels graded geometrically
toward the stress zeros in the support (`_graded_edges`).  Next to a zero
the slope has a log-type layer, slope^2 ~ alpha^2 + 2 eps ln|theta|,
which bisection would reach one level per round, over 20 to 35 rounds;
graded panels each see the layer on their own scale, so one or two
vectorized rounds settle a quadrature.  The assembly's cumulative pass
inserts the same graded edges into its grid, so it integrates the same
panels next to the zeros as the solve did, and the closing density
keeps the sign the solve gave it.  A pass integrates a stack of rows of
one inversion (`_depth_integral`): the solve's passes carry the
expectation, and `DualField.integrate` gives energies and probes the
same panels.

Everything lambda-related is handled in log form: the lower endpoint
lambda_min = e^{-alpha^2/(2 eps)} underflows already for moderate
parameters, while l = ln lambda stays representable for eps down to 1e-6.

The smoothed penalty is finite beyond the slope bound, so where the
solved stress exceeds alpha in magnitude (next to the anchored endpoint
when alpha < 1, where the sharp-limit stress is 1/alpha) the algebra
extends continuously to l > 0 and this module follows it, reporting
max_log_lambda / max_abs_slope diagnostics instead of clamping.
Clamping would break both the equilibrium identity and the primal/dual
energy match, which downstream modules verify at tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MaxIterations
from .numerics import (_MAX_PANEL_DEPTH, MonotoneCubic, _adaptive, _cell_edges,
                       _graded_edges, integrate, solve_root)
from .problem import MongeProblemSpec, require_capacity, validate_spec

_MASS_TOL = 1e-10          # |mass - 1| contract of the coupled zero solve
_DEEP_TAIL = 1e-8          # below this slope_sq/alpha^2, skip the log polish
_NEWTON_MAX_ITER = 80      # Newton steps of the slope inversion
_ZERO_MAX_STEPS = 40       # Newton steps of the coupled zero solve
_FD_STEP = 2.0 ** -24      # forward-difference step, in target widths
_FD_BEYOND = 2.0 ** -13    # z's step past the far edge, in distances from it


# -- pointwise inversion ------------------------------------------------------

def _invert_stress_sq(stress_sq, alpha, epsilon):
    """Solve e^{2l} (alpha^2 + 2 eps l) = T for each T >= 0.

    Returns (l, slope_sq) with slope_sq = alpha^2 + 2 eps l evaluated
    without cancellation.  The solve runs in w = ln(slope_sq), where the
    residual phi(w) = (e^w - alpha^2)/eps + w - ln T is convex and
    increasing, so Newton converges globally (at worst one overshoot,
    then monotone).  A final two-step polish directly in l removes the
    cancellation incurred by l = (e^w - alpha^2)/(2 eps) when eps is
    small; in the deep tail (slope_sq << alpha^2) that division is
    already exact and the polish is skipped.

    No cap at l = 0: T > alpha^2 continues smoothly into l > 0.  Raises
    MaxIterations when Newton has not converged after 80 steps (a NaN
    stress, for instance).
    """
    T = np.asarray(stress_sq, dtype=float)
    a2 = alpha * alpha
    l_out = np.empty_like(T)
    u_out = np.empty_like(T)
    zero = T <= 0.0
    l_out[zero] = -a2 / (2.0 * epsilon)
    u_out[zero] = 0.0
    pos = ~zero
    if np.any(pos):
        t = T[pos]
        log_t = np.log(t)
        z = log_t - math.log(a2)
        # Two start regimes split where a2 + eps z crosses zero: above it
        # the root has slope_sq near a2 + eps z; below it the tail start
        # ln T + a2/eps is bounded by ln a2 and sits right of the root.
        w = np.where(z > -a2 / epsilon,
                     np.log(np.maximum(a2 + epsilon * z, 1e-300)),
                     log_t + a2 / epsilon)
        for _ in range(_NEWTON_MAX_ITER):
            ew = np.exp(w)
            step = ((ew - a2) / epsilon + w - log_t) / (ew / epsilon + 1.0)
            w = w - step
            if float(np.max(np.abs(step))) < 1e-14 * (1.0 + float(np.max(np.abs(w)))):
                break
        else:
            raise MaxIterations(
                f"slope inversion did not converge in {_NEWTON_MAX_ITER} "
                f"Newton steps (last step {float(np.max(np.abs(step))):.3e})")
        u = np.exp(w)
        l = (u - a2) / (2.0 * epsilon)
        polish = u > _DEEP_TAIL * a2
        if np.any(polish):
            lp = l[polish]
            ltp = log_t[polish]
            for _ in range(2):
                up = a2 + 2.0 * epsilon * lp
                g = 2.0 * lp + np.log(up) - ltp
                lp = lp - g / (2.0 + 2.0 * epsilon / up)
            l[polish] = lp
            u[polish] = a2 + 2.0 * epsilon * lp
        l_out[pos] = l
        u_out[pos] = u
    return l_out, u_out


def _slope_many(theta, alpha, epsilon):
    """Vectorized extended slope recovery (no cap at |theta| = alpha)."""
    th = np.asarray(theta, dtype=float)
    _, u = _invert_stress_sq(th * th, alpha, epsilon)
    return np.copysign(np.sqrt(u), th)


# -- the dual field -----------------------------------------------------------

@dataclass(frozen=True)
class DualField:
    """Closed-form stress parabola plus the pointwise scale/slope algebra.

    The stress is held through its two zeros `zeros = (z, c)` and
    evaluated in the factored form theta = -orientation (y - z)(y - c)/2:
    c is the crossing (the density peak) and z the free zero, which is the
    free support endpoint or, when the support fills the target, a point
    beyond the far edge.  The factored form keeps theta(z) = 0 exact; the
    expanded form orientation * (constant - y^2/2) - multiplier * y loses
    it to cancellation, so `constant` and `multiplier` are only read out.
    multiplier is the unit-mass multiplier mu of the stress equation
    theta_y = -|y| - mu.
    """

    support: tuple[float, float]
    zeros: tuple[float, float]
    orientation: float
    alpha: float
    epsilon: float

    @property
    def constant(self) -> float:
        """Level of the expanded form, -z c / 2."""
        z, c = self.zeros
        return -0.5 * z * c

    @property
    def multiplier(self) -> float:
        """Unit-mass multiplier, -orientation (z + c) / 2."""
        z, c = self.zeros
        return -0.5 * self.orientation * (z + c)

    @property
    def crossing(self) -> float:
        """Location where the stress vanishes inside the support (the
        density peak)."""
        return self.zeros[1]

    def theta(self, y):
        z, c = self.zeros
        y_arr = np.asarray(y, dtype=float)
        out = -0.5 * self.orientation * (y_arr - z) * (y_arr - c)
        return out if np.ndim(y) else float(out)

    def theta_y(self, y):
        """Stress gradient -|y| - multiplier, free of the cancellation the
        expanded form suffers far from the origin."""
        z, c = self.zeros
        y_arr = np.asarray(y, dtype=float)
        out = -0.5 * self.orientation * ((y_arr - z) + (y_arr - c))
        return out if np.ndim(y) else float(out)

    def log_lambda(self, y):
        th = np.asarray(self.theta(y), dtype=float)
        l, _ = _invert_stress_sq(th * th, self.alpha, self.epsilon)
        return l if np.ndim(y) else float(l)

    def slope(self, y):
        out = _slope_many(self.theta(y), self.alpha, self.epsilon)
        return out if np.ndim(y) else float(out)

    def fields_at(self, y):
        """(theta, log_lambda, slope) arrays from one inversion pass."""
        th = np.asarray(self.theta(y), dtype=float)
        l, u = _invert_stress_sq(th * th, self.alpha, self.epsilon)
        return th, l, np.copysign(np.sqrt(u), th)

    def integrate(self, fn, tol):
        """Support integrals of the rows fn(y, log_lambda, slope), from one
        `_depth_integral` pass in depths from the anchored support end (the
        upper one under orientation I)."""
        o, (lo, hi) = self.orientation, self.support
        anchor = hi if o > 0 else lo
        zeros = tuple(o * (anchor - p) for p in self.zeros)
        return _depth_integral(lambda s, l, g: fn(anchor - o * s, l, -o * g),
                               zeros, (0.0, hi - lo), self.alpha, self.epsilon,
                               tol)


def _level_zeros(r, orientation):
    """Zeros (free zero, crossing) of the multiplier-free parabola
    orientation * (r - y^2/2)."""
    root = math.sqrt(max(2.0 * r, 0.0))
    return (-orientation * root, orientation * root)


def _depths(points, spec: MongeProblemSpec):
    """Depths orientation * (anchor - p) of absolute points: 0 at the
    anchored edge, the target width at the far edge."""
    return tuple(spec.orientation * (spec.anchor - float(p)) for p in points)


def _depth_rows(fn, zeros, alpha, epsilon):
    """The rows fn(s, l, du/ds) as an integrand in depth s.  In depth both
    orientations carry the stress (s - z)(s - c)/2, whose one inversion
    per node gives l = ln lambda and du/ds."""
    z, c = zeros

    def rows(s):
        theta = 0.5 * (s - z) * (s - c)
        l, u = _invert_stress_sq(theta * theta, alpha, epsilon)
        return fn(s, l, np.copysign(np.sqrt(u), theta))

    return rows


def _depth_integral(fn, zeros, span, alpha, epsilon, tol):
    """Integrals over the depth span of the rows fn(s, l, du/ds) (a float
    for one row), from one `integrate` pass on panels graded toward the
    stress zeros; refinement follows row 0."""
    return integrate(_depth_rows(fn, zeros, alpha, epsilon), span[0], span[1],
                     tol, breakpoints=_graded_edges(span, zeros))


def _support_of(zero, spec: MongeProblemSpec):
    """Depth span [0, S] of the support whose free zero lies at depth
    `zero`: from the anchor to the zero, clamped to the far edge."""
    return (0.0, min(float(zero), spec.target_width))


def _support_in_y(zero, spec: MongeProblemSpec):
    """Support in y, ascending, of the density whose free zero lies at
    `zero`, and its closing end: the zero clamped to the target, so the
    far edge exactly once the zero lies beyond it."""
    tl, tr = spec.target_interval
    m = min(max(float(zero), tl), tr)
    return tuple(sorted((spec.anchor, m))), m


def boundary_residual(r, support, spec: MongeProblemSpec, epsilon, *,
                      zero=None, quad_tol=1e-13):
    """Density value forced at the closing endpoint by a trial stress.

    Integrates the recovered slope across the support: the result is the
    value the density would take at the end of the sweep when pinned to
    zero at the start, so the admissible trial value is this function's
    root.  Without `zero`, r is the level of the multiplier-free parabola
    orientation * (r - y^2/2) (`solve_constant`); the residual is
    strictly increasing in r under orientation I, strictly decreasing
    under II.  With `zero`, r is the crossing of the parabola factored
    through (zero, r), and the residual is strictly increasing in r for
    both orientations.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValueError(f"support [{lo}, {hi}] is degenerate")
    zeros = (_level_zeros(r, spec.orientation) if zero is None
             else (zero, r))
    # Depth runs against y under orientation I: flip the integral back.
    return -spec.orientation * _depth_integral(
        lambda s, l, g: g, _depths(zeros, spec), sorted(_depths((lo, hi), spec)),
        spec.alpha, epsilon, quad_tol)


def solve_constant(support, spec: MongeProblemSpec, epsilon, tol=1e-12):
    """Level of the multiplier-free stress parabola for a given support.

    One bracketed root solve between the parabola levels that put the
    stress zero at either support endpoint; the returned level has
    |boundary_residual| <= tol, or the solve raises.  A reference
    construction without the mass multiplier (criterion 05 of the
    acceptance suite checks its monotonicity); the solved density uses
    `_solve_zeros`.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValueError(f"support [{lo}, {hi}] is degenerate")
    quad_tol = min(1e-13, 0.1 * tol)
    f = lambda r: boundary_residual(r, (lo, hi), spec, epsilon, quad_tol=quad_tol)
    r_lo, r_hi = sorted((0.5 * lo * lo, 0.5 * hi * hi))
    return solve_root(f, r_lo, r_hi, tol=tol)


def solve_crossing(support, zero, spec: MongeProblemSpec, epsilon, tol=1e-12):
    """Crossing of the stress parabola with free zero `zero` that closes
    the density on the support (one bracketed root solve for a given
    zero; `_solve_zeros` fixes both zeros at once and lands on the same
    aim).

    The residual is monotone in the crossing and changes sign between
    the support endpoints.  The solve aims the density's value at the
    closing endpoint at tol/10 rather than at zero, and returns a
    crossing within 0.9 tol of that aim, so |boundary_residual| <= tol;
    otherwise it raises.  Quadrature noise in the assembly (about 1e-14)
    then cannot take the density below zero next to the free endpoint,
    where the stress vanishes.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValueError(f"support [{lo}, {hi}] is degenerate")
    quad_tol = min(1e-13, 0.1 * tol)
    # The density closes with value -orientation * residual.
    aim = 0.1 * tol * spec.orientation
    f = lambda c: boundary_residual(c, (lo, hi), spec, epsilon, zero=zero,
                                    quad_tol=quad_tol) + aim
    return solve_root(f, lo, hi, tol=0.9 * tol)


def total_mass(endpoint, spec: MongeProblemSpec, epsilon, *, crossing=None,
               constant_tol=1e-12, quad_tol=1e-11):
    """Mass held by the density whose stress vanishes at `endpoint`.

    Inside the target the endpoint is the free support end (stress zero
    there, support up to the anchor).  Past the far edge the support is
    the whole target and the far edge is a Dirichlet end with positive
    stress.  Solves the crossing for that support to the residual
    `constant_tol` (unless one is passed in), then uses the exact
    reduction
        integral of u  =  integral of (S - s) du/ds ds
    over the support's depths s in [0, S], which folds the double
    integral of the cumulative construction into a single quadrature.
    """
    zero = float(endpoint)
    support, _ = _support_in_y(zero, spec)
    if not support[0] < support[1]:
        return 0.0
    if crossing is None:
        crossing = solve_crossing(support, zero, spec, epsilon, tol=constant_tol)
    zeros = _depths((zero, crossing), spec)
    span = _support_of(zeros[0], spec)
    return _depth_integral(lambda s, l, g: (span[1] - s) * g, zeros, span,
                           spec.alpha, epsilon, quad_tol)


def _require_valid(spec: MongeProblemSpec):
    report = validate_spec(spec)
    if not report.ok:
        raise DomainError(f"inadmissible problem: {report.message()}")


def _zero_residuals(zeros, spec: MongeProblemSpec, epsilon, aim, quad_tol):
    """Closure and mass residuals of the stress with zeros at the depths
    `zeros`, and its expectation moment, from one quadrature pass over
    the support [0, S]: the closing density integral of du/ds less its
    aim, integral of (S - s) du/ds - 1 and integral of (S - s)^2 du/ds,
    all taken from the same samples."""
    S = _support_of(zeros[0], spec)[1]
    closure, mass, moment = _depth_integral(
        lambda s, l, g: (g, (S - s) * g, (S - s) ** 2 * g), zeros, (0.0, S),
        spec.alpha, epsilon, quad_tol)
    return np.array([closure - aim, mass - 1.0, moment])


@dataclass(frozen=True)
class _ZeroSolve:
    """Outcome of the coupled solve: the zeros (z, c) as depths, the
    Newton steps taken, the final residuals and expectation moment."""

    zeros: tuple[float, float]
    steps: int
    closure: float
    mass_residual: float
    moment: float


def _solve_zeros(spec: MongeProblemSpec, epsilon, mass_tol, crossing_tol,
                 root_tol) -> _ZeroSolve:
    """Free zero z and crossing c from one safeguarded Newton iteration on
    the closure and unit-mass conditions (`_zero_residuals`); the final
    pass's expectation moment rides along.

    The unknowns are depths, so both orientations run the same iteration
    on the same numbers (orientation enters only where the caller maps
    depths back to y), and the zeros resolve to ulps of the target's
    width: in y one ulp of c moves the closure by about 4e-13 at
    |y| ~ 500, more than its aim.  Starts from the sharp-limit tent,
    z = 2/sqrt(alpha) and c = S/2 on the support [0, S = min(z, width)].
    The Jacobian is taken by forward differences until both contracts
    hold, then kept for the closing steps.  Each step is cut back to half
    way to any bound it would cross, keeping 0 < c < width and c < z; z
    may cross the far edge, which is the full-target regime.

    Beyond the far edge the support no longer moves with z, and the
    residuals follow z only through the log layer of the slope,
    slope^2 ~ alpha^2 + 2 eps ln|theta|: they change by about eps per
    e-fold of the distance z - width past the edge.  The difference step
    in z is therefore max(h, 2^-13 (z - width)); a fixed fraction h of the
    width would change the residuals by less than their rounding at
    eps 1e-6.

    Converged when |mass - 1| <= mass_tol, the closing density lands on
    `solve_crossing`'s aim (+crossing_tol/10) within 0.9 crossing_tol,
    and the last step either moved neither zero by more than root_tol or
    no longer halved max |residual|.  The second case is the residuals'
    rounding floor: where they barely depend on z, rounding noise over
    the small Jacobian column keeps |dz| above root_tol with nothing left
    to reduce.  Raises MaxIterations otherwise.
    """
    width = spec.target_width
    aim = 0.1 * crossing_tol
    quad_tol = min(1e-13, 0.1 * crossing_tol)
    h = _FD_STEP * width
    z = spec.sharp_width
    c = 0.5 * _support_of(z, spec)[1]
    F = _zero_residuals((z, c), spec, epsilon, aim, quad_tol)
    J = None
    step = size = math.inf
    for k in range(_ZERO_MAX_STEPS):
        if not np.all(np.isfinite(F)):
            break
        held = abs(F[1]) <= mass_tol and abs(F[0]) <= 0.9 * crossing_tol
        last, size = size, float(np.max(np.abs(F[:2])))
        ulps = 4.0 * float(np.spacing(max(abs(z), abs(c))))
        if held and (step <= root_tol + ulps or size >= 0.5 * last):
            return _ZeroSolve((z, c), k, *(float(f) for f in F))
        if J is None or not held:
            # z moves away from c; c toward the farther end of its support.
            hz = max(h, _FD_BEYOND * (z - width))
            hc = h if _support_of(z, spec)[1] - c > c else -h
            Fz = _zero_residuals((z + hz, c), spec, epsilon, aim, quad_tol)
            Fc = _zero_residuals((z, c + hc), spec, epsilon, aim, quad_tol)
            J = np.column_stack([(Fz - F)[:2] / hz, (Fc - F)[:2] / hc])
        try:
            dz, dc = (float(d) for d in np.linalg.solve(J, -F[:2]))
        except np.linalg.LinAlgError:
            break
        # Bounds: c > 0 (anchor), width - c > 0 (far edge), z - c > 0.
        t = 1.0
        for g0, dg in ((c, dc), (width - c, -dc), (z - c, dz - dc)):
            if g0 + dg <= 0.0:
                t = min(t, 0.5 * g0 / -dg)
        z, c = z + t * dz, c + t * dc
        step = t * max(abs(dz), abs(dc))
        F = _zero_residuals((z, c), spec, epsilon, aim, quad_tol)
    raise MaxIterations(
        f"coupled zero solve did not meet its contracts in {_ZERO_MAX_STEPS} "
        f"Newton steps (closure {F[0]:.3e}, mass residual {F[1]:.3e})")


# -- assembled density --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensitySolution:
    """Sampled transfer density with its dual field and diagnostics.

    nodes/values cover the whole target interval (zero extension
    included); support_slice marks the support portion.  slope_nodes
    holds the recovered slope at the support nodes, which is the exact
    derivative of the cumulative construction.  boundary_gap is the
    (pre-clip) density value at the closing endpoint, a direct readout of
    the crossing-solve residual.  max_abs_slope and max_log_lambda report
    how far the solution runs above the nominal scale ceiling instead of
    clamping it (see the module docstring).  cell_masses holds the mass
    of each support cell, h u_i + integral of (s_i+1 - s) du/ds ds in
    depths s, taken from the same quadrature of the slope as the values,
    so no interpolant of the density enters it.  newton_steps,
    closure_residual and mass_residual record what the coupled zero solve did: its Newton
    steps and its final closure (measured from the aim) and mass - 1
    residuals.  No CLI artifact writes them.
    """

    spec: MongeProblemSpec
    epsilon: float
    dual: DualField
    support_endpoint: float
    support: tuple[float, float]
    crossing: float
    nodes: np.ndarray
    values: np.ndarray
    slope_nodes: np.ndarray
    support_slice: slice
    mass: float
    expectation: float
    max_abs_slope: float
    max_log_lambda: float
    boundary_gap: float
    clip_depth: float
    newton_steps: int
    closure_residual: float
    mass_residual: float
    cell_masses: np.ndarray = field(repr=False)
    _profile: MonotoneCubic = field(repr=False)

    @property
    def support_nodes(self):
        return self.nodes[self.support_slice]

    @property
    def support_values(self):
        return self.values[self.support_slice]

    def __call__(self, y):
        y_arr = np.asarray(y, dtype=float)
        lo, hi = self.support
        inside = (y_arr >= lo) & (y_arr <= hi)
        out = np.where(inside, self._profile(y_arr), 0.0)
        out = np.maximum(out, 0.0)
        return out if np.ndim(y) else float(out)

    def slope(self, y):
        """Derivative of the density: the cumulative construction makes it
        the recovered dual slope on the support, zero on the extension."""
        y_arr = np.asarray(y, dtype=float)
        lo, hi = self.support
        inside = (y_arr >= lo) & (y_arr <= hi)
        out = np.where(inside, self.dual.slope(np.clip(y_arr, lo, hi)), 0.0)
        return out if np.ndim(y) else float(out)

    def peak(self) -> tuple[float, float]:
        """(location, value) of the interior maximum (at the stress zero)."""
        return self.crossing, float(self(self.crossing))


def assemble_density(spec: MongeProblemSpec, epsilon, grid_n=2001, *,
                     root_tol=1e-12) -> DensitySolution:
    """Full solve: free zero, crossing, and the sampled density.

    Raises CapacityError when the target is narrower than the sharp-limit
    tent (`problem.require_capacity`).  The zeros come from one coupled
    solve (`_solve_zeros`, mass contract `_MASS_TOL`, closure contract
    0.01 `_MASS_TOL`, Newton step bound root_tol); the assembly uses them as
    they are.  The density is the cumulative integral of the recovered
    slope, anchored at the target endpoint adjacent to the source (it
    vanishes there by construction and at the other support end by the
    closure condition).  The cumulative quadrature runs in the solve's
    depths and at its tolerance, so the values near the free endpoint,
    where the stress vanishes, keep the sign the solve gives them.  The
    grid is uniform over the support with the crossing inserted as an
    extra exact node, plus a zero extension over the rest of the target
    at matching resolution.  The mass and the expectation are the
    solve's own: its last Newton pass integrates the expectation moment
    next to the closure and the mass, at the solve's tolerance.
    """
    _require_valid(spec)
    epsilon = float(epsilon)
    if grid_n < 33:
        raise ValueError(f"grid_n must be >= 33, got {grid_n}")
    require_capacity(spec)
    crossing_tol = 0.01 * _MASS_TOL
    solved = _solve_zeros(spec, epsilon, _MASS_TOL, crossing_tol, root_tol)
    # The grid and the cumulative pass run in the solve's depths, on its
    # span and zeros: the density rises from 0 at depth 0, the anchor.
    zeros = solved.zeros
    span = _support_of(zeros[0], spec)
    base = np.linspace(span[0], span[1], grid_n)
    dc = zeros[1]
    if span[0] < dc < span[1] and float(np.min(np.abs(base - dc))) > 1e-13:
        grid_s = np.sort(np.append(base, dc))
    else:
        grid_s = base
    # Quadrature nodes lie inside their cell; the first grid node at or
    # past a node's depth is its cell's deeper end.
    to_cell_end = lambda s: grid_s[np.minimum(np.searchsorted(grid_s, s),
                                              grid_s.size - 1)] - s
    # The panels next to the stress zeros are the ones the solve
    # integrated, each tagged to the grid cell that contains it.
    edges, cell_id = _cell_edges(grid_s, _graded_edges(span, zeros))
    sums, moments = _adaptive(
        _depth_rows(lambda s, l, g: (g, to_cell_end(s) * g), zeros,
                    spec.alpha, epsilon),
        edges, cell_id, min(1e-13, 0.1 * crossing_tol), _MAX_PANEL_DEPTH)
    raw = np.concatenate([[0.0], np.cumsum(sums)])
    boundary_gap = float(raw[-1])
    # The anchored end is zero exactly; the closing end only up to the
    # residual tolerance, and interior rounding can graze zero, so clip
    # (recording how deep the clip went) and pin both Dirichlet ends.
    clip_depth = float(max(0.0, -np.min(raw)))
    values_support = np.maximum(raw, 0.0)
    values_support[0] = 0.0
    values_support[-1] = 0.0
    # On a cell, integral of u = h u_i + integral of (s_i+1 - s) du/ds ds.
    cell_masses = np.maximum(np.diff(grid_s) * values_support[:-1] + moments, 0.0)

    # Back to y: depth s sits at anchor - orientation * s.
    o, anchor = spec.orientation, spec.anchor
    zero, crossing = anchor - o * zeros[0], anchor - o * zeros[1]
    support, m = _support_in_y(zero, spec)
    dual = DualField(support, (zero, crossing), o, spec.alpha, epsilon)
    lo, hi = support
    grid = anchor - o * grid_s
    grid[-1] = m                # a far edge exactly, not anchor - o * width
    # The zero extension runs on at the support's resolution.
    n_zero = math.ceil(abs(spec.far_edge - m) / ((hi - lo) / (grid_n - 1)))
    zero_nodes = np.linspace(m, spec.far_edge, n_zero + 1)[1:]
    nodes = np.concatenate([grid, zero_nodes])
    values = np.concatenate([values_support, np.zeros(zero_nodes.size)])
    support_slice = slice(0, grid.size)
    if o > 0:
        # Under assumption I depth runs against y: reverse to ascending y.
        grid, values_support, cell_masses, nodes, values = (
            a[::-1] for a in (grid, values_support, cell_masses, nodes, values))
        support_slice = slice(zero_nodes.size, nodes.size)

    slope_nodes = dual.slope(grid)
    # |theta| peaks at a support end or at the parabola's vertex.
    probes = [lo, hi]
    vertex = 0.5 * (zero + crossing)
    if lo < vertex < hi:
        probes.append(vertex)
    stress_max = float(np.max(np.abs(dual.theta(np.array(probes)))))
    l_max, u_max = _invert_stress_sq(np.array([stress_max ** 2]),
                                     spec.alpha, epsilon)
    mass = 1.0 + solved.mass_residual
    # integral of y u = m * mass + integral of (y - m) u, and the latter
    # integrates by parts to -1/2 integral of (y - m)^2 u_y dy, which is
    # orientation/2 times integral of (s - S)^2 du/ds ds in depth, the
    # moment of the solve's final pass: the quadrature only sees depths,
    # so a shifted problem gives the shifted expectation and a mirrored
    # one the negated expectation.
    expectation = m * mass + 0.5 * o * solved.moment
    return DensitySolution(
        spec=spec, epsilon=epsilon, dual=dual, support_endpoint=m,
        support=support, crossing=crossing, nodes=nodes, values=values,
        slope_nodes=slope_nodes, support_slice=support_slice, mass=float(mass),
        expectation=float(expectation), max_abs_slope=float(np.sqrt(u_max[0])),
        max_log_lambda=float(l_max[0]), boundary_gap=boundary_gap,
        clip_depth=clip_depth, newton_steps=solved.steps,
        closure_residual=solved.closure, mass_residual=solved.mass_residual,
        cell_masses=cell_masses,
        _profile=MonotoneCubic(grid, values_support))

