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
   zeros' expansion about the sharp-limit tent to third order in eps,
   in closed form; each iterate costs one quadrature pass, which yields
   both residuals and their exact Jacobian, and the solve returns the
   zeros of the first pass that meets both contracts and either proposes
   a step at the rounding floor of the zeros or no longer halves its
   residuals (`_solve_zeros`).  When even the free zero at the far target
   edge leaves less than unit mass, the support is the whole target: the
   far edge is then a Dirichlet end with theta > 0 there, and the free
   zero lies beyond it; the same iteration reaches it by letting z cross
   the far edge.
4. The density is the cumulative integral of the slope from the anchored
   endpoint, and its CDF the cumulative integral of the density: both are
   read in closed form off the solve's last pass at any y, and so is the
   CDF's inverse (`DensitySolution`).  The sampled grid is only the table
   that `density.csv` writes.

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
sharp-limit tent, 2/sqrt(alpha).

Every quadrature of the slope starts from panels graded geometrically
toward the stress zeros in the support (`_graded_edges`).  Next to a zero
the slope has a log-type layer, slope^2 ~ alpha^2 + 2 eps ln|theta|,
which bisection would reach one level per round; graded panels each see
the layer on their own scale, so one or two vectorized rounds settle a
quadrature.  The assembly runs no pass of its own: it reads the solve's
last one, so the closing density keeps the sign the solve gave it, and a
finer grid adds no panel and no inversion.  Every pass is built by one
function, `_depth_pass`, and integrates a stack of rows of one
inversion.  The solve's passes carry the expectation and the primal and
dual energy integrals (at the solved pair the complementary energy is the
primal, see `energy`), and their panels, graded 64 ulps deep into each
zero, become the density.  `DualField.integrate` sums rows alone, the
probes' among them: its pass grades into the zeros only as deep as its
tolerance needs, and toward the anchored edge too.

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
from .numerics import _KRONROD_ENDS, MonotoneProfile, _adaptive, _graded_edges
from .problem import MongeProblemSpec, require_capacity, validate_spec

_MASS_TOL = 1e-10          # |mass - 1| contract of the coupled zero solve
_CLOSURE_TOL = 0.01 * _MASS_TOL     # its closure contract, about the aim
_CLOSURE_AIM = 0.1 * _CLOSURE_TOL   # the closing density it aims at
_ZERO_QUAD_TOL = min(1e-13, 0.1 * _CLOSURE_TOL)     # its passes' tolerance
_NEWTON_MAX_ITER = 80      # Newton steps of the slope inversion
_ZERO_MAX_STEPS = 40       # Newton steps of the coupled zero solve


# -- pointwise inversion ------------------------------------------------------

def _invert_stress_sq(stress_sq, alpha, epsilon):
    """Solve e^{2l} (alpha^2 + 2 eps l) = T for each T >= 0.

    Returns (l, slope_sq) with slope_sq = alpha^2 + 2 eps l.  One Newton
    iteration runs on every node, in w = ln(slope_sq), on
    phi(w) = (e^w - alpha^2)/eps + w - ln T.  phi is increasing and
    convex, so Newton converges from any start: a start left of the root
    overshoots it once, and from the right the iterates fall to it
    monotonically.  With z = ln(T/alpha^2) the start is
    ln(alpha^2 + eps z), the root to first order in eps z, where
    alpha^2 + eps z > 0, and ln T + alpha^2/eps, right of the root,
    elsewhere.  The loop stops once no step exceeds 1e-9 max(1, |w|):
    phi''/phi' < 1, so a step delta leaves an error below delta^2/2.

    Each output is read off w in the form that does not cancel.  Where
    e^w >= alpha^2/2, l = (ln T - w)/2, while (e^w - alpha^2)/(2 eps)
    would cancel and scale w's error by e^w/(2 eps).  Below that,
    l = (e^w - alpha^2)/(2 eps), which stays within a factor 2 of the
    floor, while ln T and w would cancel down to their difference
    alpha^2/eps.  slope_sq is alpha^2 + 2 eps l where e^w >= alpha^2/2
    and eps <= e^w: the sum cannot cancel there, and its relative error
    is l's absolute error times 2 eps/slope_sq, while e^w carries w's
    absolute error whole.  Elsewhere slope_sq is e^w.

    T <= 0 reads the floor l = -alpha^2/(2 eps), slope_sq = 0.  No cap at
    l = 0: T > alpha^2 continues smoothly into l > 0.  Raises
    MaxIterations at once on a NaN or infinite T, naming the first, and
    when Newton has not converged after 80 steps.
    """
    T = np.asarray(stress_sq, dtype=float)
    bad = np.flatnonzero(~np.isfinite(T))
    if bad.size:
        raise MaxIterations(f"slope inversion got the non-finite squared "
                            f"stress {T.flat[bad[0]]} at node {bad[0]}")
    a2 = alpha * alpha
    pos = T > 0.0
    log_t = np.log(np.where(pos, T, a2))
    z = log_t - math.log(a2)
    w = np.where(z > -a2 / epsilon, np.log(np.maximum(a2 + epsilon * z, 1e-300)),
                 log_t + a2 / epsilon)
    for _ in range(_NEWTON_MAX_ITER):
        u = np.exp(w)
        step = ((u - a2) / epsilon + w - log_t) / (u / epsilon + 1.0)
        w = w - step
        if np.all(np.abs(step) <= 1e-9 * np.maximum(1.0, np.abs(w))):
            break
    else:
        raise MaxIterations(
            f"slope inversion did not converge in {_NEWTON_MAX_ITER} "
            f"Newton steps (last step {float(np.max(np.abs(step))):.3e})")
    u = np.exp(w)
    upper = u >= 0.5 * a2
    l = np.where(upper, 0.5 * (log_t - w), (u - a2) / (2.0 * epsilon))
    u = np.where(upper & (u >= epsilon), a2 + 2.0 * epsilon * l, u)
    l[~pos], u[~pos] = -a2 / (2.0 * epsilon), 0.0
    return l, u


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
    theta_y = -|y| - mu.  The field is geometry alone: what a solve's
    passes sum over it is held on the `DensitySolution`.
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

    def fields_at(self, y):
        """(theta, log_lambda, slope) arrays from one inversion pass."""
        th = np.asarray(self.theta(y), dtype=float)
        l, u = _invert_stress_sq(th * th, self.alpha, self.epsilon)
        return th, l, np.copysign(np.sqrt(u), th)

    def integrate(self, fn, tol, levels=()):
        """Support integrals of the rows fn(y, log_lambda, slope) (a float
        for one row), the sums of one `_depth_pass` in depths from the
        anchored support end (the upper one under orientation I), panel
        after panel.  The pass sums rows and delivers no density, so its
        panels grade into the stress zeros only as deep as `tol` needs and
        toward the anchored end as well; both rules read the field and
        `tol` alone, so one row and a stack of them share panels.

        Every point where |theta| takes one of the `levels` is a panel
        edge, so no round of the pass hunts a row's kink there by
        bisection.  The depths are the closed-form roots of
        (s - z)(s - c) = +-2 level in the depth zeros, accurate to ulps of
        the support's width wherever it lies.
        """
        o, (lo, hi) = self.orientation, self.support
        anchor = hi if o > 0 else lo
        zeros = tuple(o * (anchor - p) for p in self.zeros)
        S = hi - lo
        sums = _depth_pass(lambda s, l, g: fn(anchor - o * s, l, -o * g), zeros, S,
                           self.alpha, self.epsilon, tol, density=False,
                           cuts=_level_depths(zeros, (0.0, S), levels))[1]
        out = np.cumsum(sums, axis=1)[:, -1]
        return float(out[0]) if out.size == 1 else out


def _level_depths(zeros, span, levels):
    """Depths inside the open span where the depth stress (s - z)(s - c)/2
    has magnitude equal to one of the levels: s = m +- sqrt(h^2 +- 2 level)
    with m = (z + c)/2, h = (z - c)/2."""
    z, c = zeros
    m, h2 = 0.5 * (z + c), (0.5 * (z - c)) ** 2
    disc = np.concatenate([h2 + 2.0 * np.asarray(levels, dtype=float),
                           h2 - 2.0 * np.asarray(levels, dtype=float)])
    root = np.sqrt(disc[disc >= 0.0])
    s = np.concatenate([m - root, m + root])
    return s[(s > span[0]) & (s < span[1])]


def _depth_pass(fn, zeros, S, alpha, epsilon, tol, *, density, cuts=()):
    """One `_adaptive` pass of the rows fn(s, l, du/ds) over the depths
    [0, S], on panels graded toward the stress zeros and cut at the depths
    `cuts`, refined until every row meets the tolerance.  In depth both
    orientations carry the stress (s - z)(s - c)/2, whose one inversion
    per node gives l = ln lambda and du/ds.  Returns the pass: its edges,
    row sums and du/ds samples.

    A `density` pass (the solve's) grades 64 ulps deep into each zero: its
    panels become the delivered density and its CDF, read between the
    nodes, so every panel must resolve the slope's log layer.  A pass
    that only sums rows grades each zero down to tol S alpha/eps, or 64
    ulps if that is wider: the slope's layer has strength eps/alpha, so the
    panel ending at the zero errs by about its width times that, tol S,
    and the refinement still holds every row to tol.  It also grades
    toward depth 0, the anchored edge, where the stress and the slope
    peak: there the probes' t > 0 primal rows,
    eps lambda expm1(t dg (2 du/ds + t dg)/(2 eps)), vary on the penalty's
    own scale, so their edges are S 2^-k for k = 1 .. ceil(log2(alpha^2/eps)).
    Neither rule reads the rows, so a stack and each of its rows alone are
    summed on the same panels."""
    z, c = zeros

    def rows(s):
        theta = 0.5 * (s - z) * (s - c)
        l, u = _invert_stress_sq(theta * theta, alpha, epsilon)
        return fn(s, l, np.copysign(np.sqrt(u), theta))

    if density:
        graded = _graded_edges((0.0, S), zeros)
    else:
        levels = math.ceil(math.log2(alpha * alpha / epsilon))
        graded = np.concatenate([_graded_edges((0.0, S), zeros, tol * S * alpha / epsilon),
                                 S * 0.5 ** np.arange(1, levels + 1)])
    return _adaptive(rows, 0.0, S, np.concatenate([graded, cuts]), tol)


def _support_of(zero, spec: MongeProblemSpec):
    """Depth span [0, S] of the support whose free zero lies at depth
    `zero`: from the anchor to the zero, clamped to the far edge."""
    return (0.0, min(float(zero), spec.target_width))


def _require_valid(spec: MongeProblemSpec):
    report = validate_spec(spec)
    if not report.ok:
        raise DomainError(f"inadmissible problem: {report.message()}")


def _zero_residuals(zeros, spec: MongeProblemSpec, epsilon, aim, quad_tol):
    """Closure and mass residuals of the stress with zeros (z, c) at the
    depths `zeros`, with its expectation moment and energy integrals, from
    one quadrature pass over the support [0, S]: the closing density
    integral of du/ds less its aim, integral of (S - s) du/ds - 1,
    integral of (S - s)^2 du/ds and `DensitySolution.energy_integrals`, summed
    panel after panel as `DualField.integrate` sums them.  Also the
    residuals' exact Jacobian in (z, c), from two more rows of the same
    pass (see `_solve_zeros`), and the pass itself (`_depth_pass`)."""
    z, c = zeros
    S = _support_of(z, spec)[1]

    def fn(s, l, g):
        h = epsilon * g / (g * g + epsilon)     # theta dg/dtheta
        lam = np.exp(l)
        return (g, (S - s) * g, (S - s) ** 2 * g, h, (S - s) * h, epsilon * lam,
                -lam * (g * g - epsilon))

    done = _depth_pass(fn, zeros, S, spec.alpha, epsilon, quad_tol, density=True)
    I, M, moment, K, L, *energies = np.cumsum(done[1], axis=1)[:, -1]
    # The slope at depths 0 and S, off the end panels' interpolants.
    g0, gS = _KRONROD_ENDS[0] @ done[2][0], _KRONROD_ENDS[1] @ done[2][-1]
    J = (np.outer([I + 2.0 * K, 2.0 * (M + L)], [1.0, -1.0])
         + np.outer([g0, S * g0], [-c, z]))
    if z > S:                   # the far edge, not z, closes the support
        J += np.outer([gS, I], [c - S, S - z])
    return np.array([I - aim, M - 1.0, moment, *energies]), J / (z - c), done


def _expansion_coefficients(alpha):
    """The coefficients (v1, v2, v3), each a (z, c) pair, of the stress
    zeros' expansion z0 k (v1 + k v2 + k^2 v3), k = eps/alpha^2, as
    polynomials in l = ln alpha; `_expansion_step` derives them."""
    l, ln2 = math.log(alpha), math.log(2.0)
    pi2, zeta3 = math.pi ** 2, 1.2020569031595942
    v1 = (0.5 * (1.0 + ln2) + l, 0.25 * (1.0 - ln2) + 0.5 * l)
    v2 = (-1.0 / 8.0 + 0.75 * ln2 + 9.0 / 8.0 * ln2 * ln2 - pi2 / 48.0
          + (0.5 + 2.5 * ln2) * l + 2.5 * l * l,
          -1.0 / 16.0 - 0.375 * ln2 - 7.0 / 16.0 * ln2 * ln2 + pi2 / 96.0
          + (0.25 - 1.25 * ln2) * l + 1.25 * l * l)
    v3 = ((-18.0 + 162.0 * ln2 + 54.0 * ln2 ** 2 + 258.0 * ln2 ** 3 - 5.0 * pi2
           - 13.0 * pi2 * ln2 - 99.0 * zeta3) / 96.0
          + (-34.0 + 28.0 * ln2 + 162.0 * ln2 ** 2 - 3.0 * pi2) / 16.0 * l
          + (-11.0 + 45.0 * ln2) / 4.0 * l * l + 7.5 * l ** 3,
          (-18.0 - 162.0 * ln2 + 6.0 * ln2 ** 2 - 162.0 * ln2 ** 3 + 5.0 * pi2
           + 11.0 * pi2 * ln2 + 99.0 * zeta3) / 192.0
          + (-34.0 - 28.0 * ln2 - 126.0 * ln2 ** 2 + 3.0 * pi2) / 32.0 * l
          - (11.0 + 45.0 * ln2) / 8.0 * l * l + 3.75 * l ** 3)
    return v1, v2, v3


def _expansion_step(alpha, epsilon):
    """Step (dz, dc) from the sharp-limit tent (z0, z0/2), z0 = 2/sqrt(alpha),
    to the stress zeros' expansion to third order in eps (the coupled
    solve's start), or (0, 0) where that series no longer decreases.

    With k = eps/alpha^2 and l = ln alpha the step is
    z0 k (v1 + k v2 + k^2 v3).  With l0 = ln(|theta|/alpha) the slope is
    g = sign(theta) alpha (1 + d), where (1 + d)^2 = 1 + 2 k (l0 - ln(1 + d))
    gives d = k l0 - k^2 (l0 + l0^2/2) + k^3 (l0 + 2 l0^2 + l0^3/2)
    + O(k^4).  So the residuals at fixed zeros are F0 + eps F1 + eps^2 F2
    + eps^3 F3: a polynomial, then integrals of the powers of l0 up to the
    third, which reduce to ln 2, pi^2 and zeta(3).  With J0 the Jacobian of
    F0 at the tent, the zeros move by eps p1 + eps^2 p2 + eps^3 p3 with
    p1 = -J0^-1 F1, p2 = -J0^-1 (F0''(p1, p1)/2 + F1' p1 + F2) and
    p3 = -J0^-1 (F0''(p1, p2) + F1' p2 + F1''(p1, p1)/2 + F2' p1 + F3);
    v_n = alpha^(2n) p_n/z0.  l0 = ln(2/alpha^2) + a function of s/z0
    alone, which makes v_n a polynomial of degree n in l.  The series is
    used while k max|v2| <= max|v1|/2: at eps of order alpha^2 its second
    term outgrows the first, and a start there can leave Newton short of
    the root (alpha 1, eps 1 on a target three sharp widths wide).
    """
    k = epsilon / (alpha * alpha)
    v1, v2, v3 = _expansion_coefficients(alpha)
    if k * max(map(abs, v2)) > 0.5 * max(map(abs, v1)):
        return 0.0, 0.0
    z0k = 2.0 / math.sqrt(alpha) * k
    return (z0k * (v1[0] + k * (v2[0] + k * v3[0])),
            z0k * (v1[1] + k * (v2[1] + k * v3[1])))


def _bounded_step(zeros, delta, width):
    """Zeros (z, c) moved by the step delta = (dz, dc), cut back to half way
    to any bound it would cross: c > 0 (anchor), width - c > 0 (far edge)
    and z - c > 0; z may cross the far edge."""
    (z, c), (dz, dc) = zeros, delta
    t = 1.0
    for g0, dg in ((c, dc), (width - c, -dc), (z - c, dz - dc)):
        if g0 + dg <= 0.0:
            t = min(t, 0.5 * g0 / -dg)
    return z + t * dz, c + t * dc


@dataclass(frozen=True)
class _ZeroSolve:
    """Outcome of the coupled solve: the zeros (z, c) as depths, the Newton
    steps taken, the final residuals, moment, energy integrals and pass."""

    zeros: tuple[float, float]
    steps: int
    closure: float
    mass_residual: float
    moment: float
    energy_integrals: tuple[float, ...]
    final_pass: tuple = field(repr=False)


def _solve_zeros(spec: MongeProblemSpec, epsilon) -> _ZeroSolve:
    """Free zero z and crossing c from one safeguarded Newton iteration on
    the closure and unit-mass conditions (`_zero_residuals`); the final
    pass, its expectation moment and its energy integrals ride along.

    The unknowns are depths, so both orientations run the same iteration
    on the same numbers (orientation enters only where the caller maps
    depths back to y), and the zeros resolve to ulps of the target's
    width: in y one ulp of c moves the closure by about 4e-13 at
    |y| ~ 500, more than its aim.  Starts from the sharp-limit tent,
    z = 2/sqrt(alpha) and c = z/2, moved by the zeros' expansion to third
    order in eps (`_expansion_step`), which misses the solution by
    O(eps^4), and by the closure aim's own shift: the Jacobian at the
    tent, J0 = [[-alpha, 2 alpha], [0, 2 sqrt(alpha)]], takes the aim to
    J0^-1 (aim, 0) = (-aim/alpha, 0).  The start and each step are cut
    back to half way to any bound they would cross (`_bounded_step`),
    keeping 0 < c < width and c < z; z may cross the far edge, which is
    the full-target regime.

    The Jacobian is exact and rides on the residual pass, so each step
    costs one pass.  With s = c + D t, D = z - c, the stress is
    D^2 t (t - 1)/2, whose zeros stay at t = 0 and 1, so z and c enter
    only through D and the ends of the support in t.  Differentiating
    theta^2 = lambda^2 (alpha^2 + 2 eps ln lambda) gives
    theta dg/dtheta = eps g/(g^2 + eps) = h for the slope g, bounded by
    sqrt(eps)/2, and the pass adds the rows K = integral of h and
    L = integral of (S - s) h to I = integral of g and
    M = integral of (S - s) g.  With g0 and gS the slope at depths 0 and S,
    A = (I + 2K)/D and B = 2 (M + L)/D, the closure row is
    (A - g0 c/D, -A + g0 z/D) in (z, c) and the mass row
    (B - S g0 c/D, -B + S g0 z/D).  When z is past the far edge the
    support's end S = width no longer moves with z, and the rows gain
    (gS, I) (c - S, S - z)/D.  There the residuals follow z only through
    the log layer of the slope, slope^2 ~ alpha^2 + 2 eps ln|theta|: they
    change by about eps per e-fold of the distance z - width.

    Converged when |mass - 1| <= _MASS_TOL and the closing density lands
    on its aim, _CLOSURE_AIM, within 0.9 _CLOSURE_TOL (so quadrature noise
    in the assembly cannot take it below zero next to the free end), and
    one of two tests holds, each of which returns the zeros of the pass
    just taken, with its moment and energies:
    - the step this pass proposes moves neither zero by more than 4 ulps
      of the larger depth, the rounding floor of the zeros, so the pass
      that step would cost moves the residuals by their rounding alone;
    - the last step no longer halved max |residual|.  This is the
      residuals' rounding floor where they barely depend on z: rounding
      noise over the small Jacobian column keeps the proposed |dz| far
      above the zeros' ulps with nothing left to reduce.
    Raises MaxIterations otherwise: after _ZERO_MAX_STEPS steps, on a
    non-finite residual or Jacobian, or on a singular one.
    """
    width, aim = spec.target_width, _CLOSURE_AIM
    z0 = spec.sharp_width
    dz, dc = _expansion_step(spec.alpha, epsilon)
    z, c = _bounded_step((z0, 0.5 * z0), (dz - aim / spec.alpha, dc), width)
    F, J, final = _zero_residuals((z, c), spec, epsilon, aim, _ZERO_QUAD_TOL)
    size = math.inf
    for k in range(_ZERO_MAX_STEPS):
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(J))):
            break
        held = abs(F[1]) <= _MASS_TOL and abs(F[0]) <= 0.9 * _CLOSURE_TOL
        last, size = size, float(np.max(np.abs(F[:2])))
        ulps = 4.0 * float(np.spacing(max(abs(z), abs(c))))
        try:
            delta = np.linalg.solve(J, -F[:2]).tolist()
        except np.linalg.LinAlgError:
            delta = None
        proposed = math.inf if delta is None else max(map(abs, delta))
        if held and (proposed <= ulps or size >= 0.5 * last):
            return _ZeroSolve((z, c), k, *F[:3].tolist(), tuple(F[3:].tolist()), final)
        if delta is None:
            break
        z, c = _bounded_step((z, c), delta, width)
        F, J, final = _zero_residuals((z, c), spec, epsilon, aim, _ZERO_QUAD_TOL)
    raise MaxIterations(
        f"coupled zero solve did not meet its contracts in {_ZERO_MAX_STEPS} "
        f"Newton steps (closure {F[0]:.3e}, mass residual {F[1]:.3e})")


# -- assembled density --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensitySolution:
    """Sampled transfer density with its dual field and diagnostics.

    nodes/values tabulate the density over the whole target interval (zero
    extension included), the table `density.csv` writes; clip_depth is how
    far below zero that table's support values ran before the clip.
    max_abs_slope and max_log_lambda report how far the solution runs
    above the nominal scale ceiling instead of clamping it (see the module
    docstring).  mass, expectation and energy_integrals (the H-term and
    dual integrals `energy` reads) are rows of the solve's last pass; what
    the coupled zero solve did (its Newton steps and final residuals)
    stays on its `_ZeroSolve`.

    The solution holds one representation of the density, that pass read
    in depth as a `numerics.MonotoneProfile`, and one map of y to depth
    (`_depth`): by calling the solution, the delivered density, zero off
    the open support and clipped at 0, so both Dirichlet ends read 0
    exactly; `cdf`, the target CDF; and `quantile`, its inverse, which the
    transport maps read.  No read consults the table: a node reads the
    profile at the depth its y maps to, which has lost the node's last
    bits.  The cumulative construction makes the density's slope the
    recovered dual slope, `dual.fields_at(y)[2]`, on the support and zero
    on the extension.
    """

    spec: MongeProblemSpec
    epsilon: float
    dual: DualField
    support_endpoint: float
    support: tuple[float, float]
    nodes: np.ndarray
    values: np.ndarray
    mass: float
    expectation: float
    energy_integrals: tuple[float, ...]
    max_abs_slope: float
    max_log_lambda: float
    clip_depth: float
    profile: MonotoneProfile = field(repr=False)

    def _depth(self, y):
        """Depth o (anchor - y) of each y, clamped to the pass; the closing
        end, support_endpoint, reads the last edge exactly."""
        y = np.asarray(y, dtype=float)
        edges = self.profile.edges
        s = np.clip(self.spec.orientation * (self.spec.anchor - y), edges[0], edges[-1])
        return np.where(y == self.support_endpoint, edges[-1], s)

    def __call__(self, y):
        y_arr = np.asarray(y, dtype=float)
        lo, hi = self.support
        density = self.profile.density(self._depth(y_arr))
        out = np.where((y_arr > lo) & (y_arr < hi), np.maximum(density, 0.0), 0.0)
        return out if np.ndim(y) else float(out)

    def cdf(self, y):
        """The target CDF, the fraction of the mass below y; it clamps y
        into the support."""
        fraction = self.profile.fraction(self._depth(y))
        out = 1.0 - fraction if self.spec.orientation > 0 else fraction
        return out if np.ndim(y) else float(out)

    def quantile(self, t):
        """The CDF's inverse at the mass fractions 1 - t from the anchor
        (orientation 1) or t (orientation -1), clipped into [0, 1] and
        solved in depth (`MonotoneProfile.invert_many`); the last edge maps
        back to the closing end exactly.  A NaN t raises ValueError."""
        o, t_arr = self.spec.orientation, np.ravel(np.asarray(t, dtype=float))
        s = self.profile.invert_many(1.0 - t_arr if o > 0 else t_arr)
        out = np.where(s == self.profile.edges[-1], self.support_endpoint,
                       self.spec.anchor - o * s)
        return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


def _depth_grid(span, crossing, grid_n):
    """Uniform depths over the span with the crossing, where the density
    kinks, as a node: inserted, unless a node already equals it."""
    grid = np.linspace(span[0], span[1], grid_n)
    i = int(np.searchsorted(grid, crossing))
    return grid if i < grid.size and grid[i] == crossing else np.insert(grid, i, crossing)


def assemble_density(spec: MongeProblemSpec, epsilon,
                     grid_n=2001) -> DensitySolution:
    """Full solve: free zero, crossing, and the sampled density.

    Raises CapacityError when the target is narrower than the sharp-limit
    tent (`problem.require_capacity`).  The zeros come from one coupled
    solve (`_solve_zeros`, mass contract `_MASS_TOL`, closure contract
    `_CLOSURE_TOL`, stopped at the zeros' or the residuals' rounding
    floor); the assembly uses them as they are.  The density is the
    cumulative integral of the recovered slope, anchored at the target
    endpoint adjacent to the source (it vanishes there by construction and
    at the other support end by the closure condition).  The solve's last
    pass, read as a `numerics.MonotoneProfile`, is the density, and every
    read of the solution goes through it (see `DensitySolution`).  The
    table `density.csv` writes samples it in the pass's depths, so the
    values near the free endpoint, where the stress vanishes, keep the
    sign the solve gives them, and the assembly runs no quadrature and
    inverts no grid node.  Its grid is uniform over the support with the
    crossing as a node (`_depth_grid`), plus a zero extension over the
    rest of the target at matching resolution.  The mass, the expectation
    and the `energy_integrals` come from rows of the solve's last Newton
    pass.  Raises ValueError unless epsilon is finite and > 0 and grid_n
    an integer >= 33.
    """
    _require_valid(spec)
    epsilon = float(epsilon)
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if not isinstance(grid_n, (int, np.integer)) or grid_n < 33:
        raise ValueError(f"grid_n must be an integer >= 33, got {grid_n!r}")
    require_capacity(spec)
    solved = _solve_zeros(spec, epsilon)
    # Depth s sits at anchor - orientation * s; the density rises from 0 at
    # depth 0, the anchor, and its support closes at depth S, y = m.
    zeros = solved.zeros
    o, anchor = spec.orientation, spec.anchor
    zero, crossing = anchor - o * zeros[0], anchor - o * zeros[1]
    # The closing end: the zero clamped to the target, so the far edge
    # exactly once the zero lies beyond it.
    tl, tr = spec.target_interval
    m = min(max(zero, tl), tr)
    support = tuple(sorted((anchor, m)))
    edges, sums, samples = solved.final_pass
    profile = MonotoneProfile(edges, sums[0], samples, singular=zeros)
    grid_s = _depth_grid(_support_of(zeros[0], spec), zeros[1], grid_n)
    raw = profile.density(grid_s)
    # The anchored end is zero exactly; the closing end only up to the
    # residual tolerance, and interior rounding can graze zero, so clip
    # (recording how deep the clip went) and pin both Dirichlet ends.
    clip_depth = float(max(0.0, -np.min(raw)))
    values_support = np.maximum(raw, 0.0)
    values_support[0] = 0.0
    values_support[-1] = 0.0

    dual = DualField(support, (zero, crossing), o, spec.alpha, epsilon)
    lo, hi = support
    grid = anchor - o * grid_s
    grid[-1] = m                # a far edge exactly, not anchor - o * width
    # The zero extension runs on at the support's resolution.
    n_zero = math.ceil(abs(spec.far_edge - m) / ((hi - lo) / (grid_n - 1)))
    zero_nodes = np.linspace(m, spec.far_edge, n_zero + 1)[1:]
    nodes = np.concatenate([grid, zero_nodes])
    values = np.concatenate([values_support, np.zeros(zero_nodes.size)])
    if o > 0:
        # Under assumption I depth runs against y: reverse to ascending y.
        nodes, values = nodes[::-1], values[::-1]

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
        support=support, nodes=nodes, values=values, mass=float(mass),
        expectation=float(expectation), energy_integrals=solved.energy_integrals,
        max_abs_slope=float(np.sqrt(u_max[0])), max_log_lambda=float(l_max[0]),
        clip_depth=clip_depth, profile=profile)

