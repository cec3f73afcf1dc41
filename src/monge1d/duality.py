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
   safeguarded Newton iteration on (z, c) solves both.  It starts from
   tabulated zeros: the problem in depth has an exact scaling law, under
   which (alpha, eps) on a target of width W is (alpha-hat, sigma^4 eps)
   on width W/sigma with depths scaled by sigma, where
   alpha-hat^2 = sigma^4 (alpha^2 + 8 eps ln sigma), so the alpha = 1
   zeros, their third-order series in eps plus a Chebyshev table of what
   it leaves, serve every (alpha, eps), on a full target too: read at the
   scaled eps up to 0.2, and at 0.2 beyond it.
   Each iterate costs one quadrature pass, which yields both residuals
   and their exact Jacobian, and the solve returns the
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
   CDF's inverse (`DensitySolution`); the CDF's rows are built on their
   first read.  The sampled grid is only the table that `density.csv`
   writes, built on its first read.  Its clip depth is certified panel by
   panel from the density's Bernstein coefficients, and the grid is read
   only in panels left uncertified (`_clip_depth`), so a solve reads no
   grid node.

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

import functools
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
    The stop is collective: the nodes that settle first take the steps
    the slowest one needs, so a node's last bits depend on the other
    nodes in its call, and a pass split into other batches moves them
    (the final passes of 48 seeded solves, inverted in batches of 150
    instead of whole, changed 1,652 of their 206,160 outputs).

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

    The loop writes each step into buffers allocated once per call,
    operation by operation in the order of the plain expression
    (((e^w - alpha^2)/eps + w) - ln T)/(e^w/eps + 1), so it rounds as that
    expression does.  `_invert_stress_sq_one` runs the same iteration on
    one float, taking e^w and ln through numpy's ufuncs as this form does:
    libm's exp and log can round differently from numpy's vector kernels,
    and one ulp of w moves the outputs.
    """
    T = np.asarray(stress_sq, dtype=float)
    if not np.isfinite(T).all():
        bad = np.flatnonzero(~np.isfinite(T))
        raise MaxIterations(f"slope inversion got the non-finite squared "
                            f"stress {T.flat[bad[0]]} at node {bad[0]}")
    a2 = alpha * alpha
    pos = T > 0.0
    log_t = np.log(np.where(pos, T, a2))
    z = log_t - math.log(a2)
    w = np.where(z > -a2 / epsilon, np.log(np.maximum(a2 + epsilon * z, 1e-300)),
                 log_t + a2 / epsilon)
    u, step, den = np.empty_like(w), np.empty_like(w), np.empty_like(w)
    settled = np.empty(w.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        np.exp(w, out=u)
        np.divide(u, epsilon, out=den)
        den += 1.0
        # The step begins on its one `step = ` line, the line work counts trace.
        step = np.subtract(u, a2, out=step)
        step /= epsilon
        step += w
        step -= log_t
        step /= den
        w -= step
        # |step| <= 1e-9 max(1, |w|), in the buffers the next step rewrites.
        np.maximum(np.abs(w, out=den), 1.0, out=den)
        den *= 1e-9
        if np.less_equal(np.abs(step, out=u), den, out=settled).all():
            break
    else:
        raise MaxIterations(
            f"slope inversion did not converge in {_NEWTON_MAX_ITER} "
            f"Newton steps (last step {float(np.max(np.abs(step))):.3e})")
    np.exp(w, out=u)
    upper = u >= 0.5 * a2
    l = np.where(upper, 0.5 * (log_t - w), (u - a2) / (2.0 * epsilon))
    u = np.where(upper & (u >= epsilon), a2 + 2.0 * epsilon * l, u)
    l[~pos], u[~pos] = -a2 / (2.0 * epsilon), 0.0
    return l, u


def _invert_stress_sq_one(stress_sq, alpha, epsilon):
    """`_invert_stress_sq` of one squared stress T, on floats: (l, slope_sq)
    equal bit for bit to its outputs on the array [T].

    The same start, Newton step, stop and read-out, operation for
    operation.  e^w and ln take numpy's ufuncs on the float, as the array
    form does (libm's exp and log can round differently); math.log(alpha^2)
    is the array form's own.  T <= 0 reads the floor at once, where the
    array form iterates on its placeholder and then discards the result.
    Raises MaxIterations on a NaN or infinite T and when Newton has not
    converged after 80 steps.
    """
    T = float(stress_sq)
    if not math.isfinite(T):
        raise MaxIterations(f"slope inversion got the non-finite squared "
                            f"stress {T} at node 0")
    a2 = alpha * alpha
    if not T > 0.0:
        return -a2 / (2.0 * epsilon), 0.0
    log_t = float(np.log(T))
    z = log_t - math.log(a2)
    w = (float(np.log(max(a2 + epsilon * z, 1e-300))) if z > -a2 / epsilon
         else log_t + a2 / epsilon)
    for _ in range(_NEWTON_MAX_ITER):
        u = float(np.exp(w))
        step = ((u - a2) / epsilon + w - log_t) / (u / epsilon + 1.0)
        w -= step
        if abs(step) <= 1e-9 * max(1.0, abs(w)):
            break
    else:
        raise MaxIterations(
            f"slope inversion did not converge in {_NEWTON_MAX_ITER} "
            f"Newton steps (last step {abs(step):.3e})")
    u = float(np.exp(w))
    if u < 0.5 * a2:
        return (u - a2) / (2.0 * epsilon), u
    l = 0.5 * (log_t - w)
    return l, (a2 + 2.0 * epsilon * l if u >= epsilon else u)


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
        """The stress at y: an array for an array, a float, on floats, for
        a number."""
        z, c = self.zeros
        y = np.asarray(y, dtype=float) if np.ndim(y) else float(y)
        return -0.5 * self.orientation * (y - z) * (y - c)

    def theta_y(self, y):
        """Stress gradient -|y| - multiplier, free of the cancellation the
        expanded form suffers far from the origin."""
        z, c = self.zeros
        y = np.asarray(y, dtype=float) if np.ndim(y) else float(y)
        return -0.5 * self.orientation * ((y - z) + (y - c))

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
        d, gg = S - s, g * g
        h = epsilon * g / (gg + epsilon)        # theta dg/dtheta
        lam = np.exp(l)
        return (g, d * g, d ** 2 * g, h, d * h, epsilon * lam, -lam * (gg - epsilon))

    done = _depth_pass(fn, zeros, S, spec.alpha, epsilon, quad_tol, density=True)
    I, M, moment, K, L, *energies = np.cumsum(done[1], axis=1)[:, -1].tolist()
    # The slope at depths 0 and S, off the end panels' interpolants.
    g0, gS = float(_KRONROD_ENDS[0] @ done[2][0]), float(_KRONROD_ENDS[1] @ done[2][-1])
    # The rows (A, B) (1, -1) + (g0, S g0) (-c, z), entry by entry.
    A, B = I + 2.0 * K, 2.0 * (M + L)
    J = [[A - g0 * c, -A + g0 * z], [B - S * g0 * c, -B + S * g0 * z]]
    if z > S:                   # the far edge, not z, closes the support
        for row, g in zip(J, (gS, I)):
            row[0] += g * (c - S)
            row[1] += g * (S - z)
    D = z - c
    return (np.array([I - aim, M - 1.0, moment, *energies]),
            np.array([[J[0][0] / D, J[0][1] / D], [J[1][0] / D, J[1][1] / D]]), done)


# The coefficients (v1, v2, v3), each a (z, c) pair, of the alpha = 1
# stress zeros' expansion 2 eps (v1 + eps v2 + eps^2 v3) about the tent
# (2, 1), in closed form in ln 2, pi^2 and zeta(3); `_expansion_step`
# derives them.
_LN2, _PI2, _ZETA3 = math.log(2.0), math.pi ** 2, 1.2020569031595942
_EXPANSION = (
    (0.5 * (1.0 + _LN2), 0.25 * (1.0 - _LN2)),
    (-1.0 / 8.0 + 0.75 * _LN2 + 9.0 / 8.0 * _LN2 * _LN2 - _PI2 / 48.0,
     -1.0 / 16.0 - 0.375 * _LN2 - 7.0 / 16.0 * _LN2 * _LN2 + _PI2 / 96.0),
    ((-18.0 + 162.0 * _LN2 + 54.0 * _LN2 ** 2 + 258.0 * _LN2 ** 3 - 5.0 * _PI2
      - 13.0 * _PI2 * _LN2 - 99.0 * _ZETA3) / 96.0,
     (-18.0 - 162.0 * _LN2 + 6.0 * _LN2 ** 2 - 162.0 * _LN2 ** 3 + 5.0 * _PI2
      + 11.0 * _PI2 * _LN2 + 99.0 * _ZETA3) / 192.0),
)


def _expansion_step(epsilon):
    """Step (dz, dc) from the alpha = 1 sharp-limit tent (2, 1) to the
    stress zeros' expansion to third order in eps,
    2 eps (v1 + eps v2 + eps^2 v3) with (v1, v2, v3) = `_EXPANSION`.

    With l0 = ln|theta| the slope is g = sign(theta) (1 + d), where
    (1 + d)^2 = 1 + 2 eps (l0 - ln(1 + d)) gives
    d = eps l0 - eps^2 (l0 + l0^2/2) + eps^3 (l0 + 2 l0^2 + l0^3/2)
    + O(eps^4).  So the residuals at fixed zeros are F0 + eps F1 + eps^2 F2
    + eps^3 F3: a polynomial, then integrals of the powers of l0 up to the
    third, which reduce to ln 2, pi^2 and zeta(3).  With J0 the Jacobian of
    F0 at the tent, the zeros move by eps p1 + eps^2 p2 + eps^3 p3 with
    p1 = -J0^-1 F1, p2 = -J0^-1 (F0''(p1, p1)/2 + F1' p1 + F2) and
    p3 = -J0^-1 (F0''(p1, p2) + F1' p2 + F1''(p1, p1)/2 + F2' p1 + F3);
    v_n = p_n/2.  The scaling law carries the series to every alpha
    (`_tabulated_start`), and the table holds what it leaves.
    """
    (z1, c1), (z2, c2), (z3, c3) = _EXPANSION
    z0k = 2.0 * epsilon
    return (z0k * (z1 + epsilon * (z2 + epsilon * z3)),
            z0k * (c1 + epsilon * (c2 + epsilon * c3)))


# The alpha = 1 free-regime depth zeros as functions of eps, for eps in
# [0, _ZERO_TABLE_TOP]: four Chebyshev series in x = 2 eps/0.2 - 1, the
# coefficients of T_0, T_1, ...  The rows are, with
# (dz, dc) = _expansion_step(eps), z - 2 - dz and c - 1 - dc at closure
# aim 0, then dz/daim + 1 and dc/daim, the zeros' derivatives in the aim.
# studies/06_zero_table.py rebuilds them from solves started at the series.
_ZERO_TABLE_TOP = 0.2
_ZERO_TABLE = (
    (-0.012548798402576944, -0.020119542455517177, -0.009902180166641822,
     -0.0023427882820928943, 0.00016599282481938963, 0.00016535417456669957,
     -3.3411222705771e-05, -1.4611824067873211e-05, 8.634177317157159e-06,
     -1.9689379694254154e-07, -1.581520941512784e-06, 7.093153683840998e-07,
     2.4060093552596127e-08, -1.8181627545727874e-07, 9.287936355409951e-08,
     -5.683996163227244e-09, -2.2023822384922452e-08, 1.5614772983814492e-08,
     -3.8739077406400825e-09, -2.055188849696887e-09, 2.658334814672732e-09,
     -1.290465199312702e-09, 1.0624117686671482e-10, 3.462269491965502e-10,
     -3.092548906031851e-10, 1.3017706452177723e-10, 1.2943516701155455e-12,
     -4.752712860853908e-11, 4.0152007708808314e-11, -1.741680627845299e-11,
     3.995394781079048e-13, 6.227749015813057e-12, -5.8137796334935266e-12,
     2.9409393757090507e-12, -4.630990144312286e-13, -7.291754548256757e-13,
     8.818763590472817e-13, -5.5604967245243e-13, 1.8169219926332525e-13,
     5.0432572072482695e-14, -1.258506916301111e-13, 1.0502849403983688e-13,
     -5.301230916916755e-14, 9.270579096054554e-15, 1.3225125205032495e-14,
     -1.7881665115640488e-14, 1.274808980166603e-14, -5.574845598176059e-15,
     4.1825809309059547e-16, 2.203464732723759e-15, -2.5680006081676976e-15,
     1.7025633290354558e-15, -7.600663804938068e-16, 4.742029251908475e-17,
     3.356554400743561e-16, -3.572581683611298e-16, 3.283235228829229e-16),
    (0.0018785923225823197, 0.002907343821069509, 0.0012751847251606663,
     0.00023449624208584247, -2.2258646986215415e-05, -8.480399762187585e-06,
     2.045356064443099e-06, 5.43343299015488e-08, -1.2131552463847818e-07,
     3.370444149954245e-08, -2.670954469764767e-09, -4.772465657216997e-09,
     3.52945853731024e-09, -6.576487764873304e-10, -5.992800105916979e-10,
     4.790548614908182e-10, -9.043163488414675e-11, -7.692501400341392e-11,
     6.532473105402468e-11, -1.6664618940836302e-11, -7.358507951056711e-12,
     8.765448648290057e-12, -3.4928620664732325e-12, -8.01910180782666e-14,
     9.797582175766336e-13, -6.46170903310689e-13, 1.9067870553172734e-13,
     3.7889489655040624e-14, -8.189378808334119e-14, 5.3517123865072166e-14,
     -1.9523115017531546e-14, 8.264669872949659e-17, 6.283874855466005e-15,
     -5.807012246820779e-15, 3.2029500579566772e-15, -9.196744928108291e-16,
     -3.5676180705403876e-16, 6.987869348917472e-16, -5.812797481850526e-16,
     2.4984253218802294e-16, -3.0294980391497306e-17),
    (-0.10868837759898856, -0.09715772335398115, 0.011832080752714549,
     -0.00012790632792740138, -0.00038351561228348386, 6.564134896758179e-05,
     1.3464165754030108e-05),
    (-0.017792449820850834, -0.022006757414700588, -0.002842496598660031,
     0.0014862496806666134, -3.7795753809308674e-08, -0.0001092112906182511,
     1.76072246106314e-05),
)


def _clenshaw(coefficients, x):
    """The Chebyshev series sum of a_n T_n(x), by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for a in reversed(coefficients[1:]):
        b1, b2 = a + 2.0 * x * b1 - b2, b1
    return coefficients[0] + x * b1 - b2


def _tabulated_start(alpha, epsilon, width):
    """The depth zeros (z, c) that start the coupled solve on a target of
    width `width`: the alpha = 1 series and table (`_expansion_step`,
    `_ZERO_TABLE`) mapped through the scaling law.

    The law (step 3 of the module docstring) keeps alpha^2/eps - 2 ln eps
    fixed, so every (alpha, eps) has an alpha = 1 twin, at
    eps-hat = 1/(2 W(e^{alpha^2/(2 eps)}/(2 eps))) with W the principal
    Lambert W.  With k = eps/alpha^2, tau = ln(sigma sqrt(alpha)) is the
    root of phi(tau) = expm1(-4 tau)/k - 8 tau + 4 ln alpha, and
    eps-hat = e^{4 tau} k.  phi is decreasing and convex on the whole line,
    so Newton on k phi needs no guard: from a start left of the root it
    rises to it.  It starts at the larger of two such points, the root of
    phi's linearization at 0, k ln alpha/(1 + 2 k), and, for alpha < 1,
    -ln(1 - 4 k ln alpha)/4, past the steep flank where a step gains about
    1/4; it stops on a step of 4e-16 of the largest of 1, |tau| and
    |ln alpha|, the rounding of k phi's terms.  The density scales as
    u = u-hat/sigma, so the twin's closure aim is sigma aim:
    z = sigma z-hat + sigma^2 aim dz-hat/daim with z-hat at aim 0, and c
    alike, summed from the tent z0 = 2/sqrt(alpha) = 2 sigma e^{-tau} with
    the small terms first, so that their rounding stays below the zeros'
    ulps at every eps-hat.

    The table holds free zeros, which start the full-target solve as well.
    Above its top, eps-hat > `_ZERO_TABLE_TOP`, the series and table are
    read at the top and mapped with the twin's own sigma.  Where that puts
    c at or past min(z, width) (large alpha and eps, narrow targets), c
    starts half way there, by `_bounded_step`'s rule.  Raises MaxIterations
    where tau does not settle in 20 steps (k or 1 + 2 k not finite)."""
    k, ln_alpha = epsilon / alpha / alpha, math.log(alpha)
    tau = max(k * ln_alpha / (1.0 + 2.0 * k),
              -0.25 * math.log1p(-4.0 * k * min(ln_alpha, 0.0)))
    for _ in range(20):
        # e^{-4 tau} overflows below tau = -177; inf then makes the step NaN.
        shrink = math.expm1(-4.0 * tau) if tau > -177.0 else math.inf
        step = (shrink - 4.0 * k * (2.0 * tau - ln_alpha)) / (-4.0 * (1.0 + shrink) - 8.0 * k)
        tau -= step
        if abs(step) <= 4e-16 * max(1.0, abs(tau), abs(ln_alpha)):
            break
    else:
        raise MaxIterations(f"the scaling law's tau did not settle in 20 Newton "
                            f"steps at alpha {alpha!r}, eps {epsilon!r}")
    eps_hat = min(math.exp(4.0 * tau) * k, _ZERO_TABLE_TOP)
    x = 2.0 * eps_hat / _ZERO_TABLE_TOP - 1.0
    dz, dc = _expansion_step(eps_hat)
    z_hat, c_hat, dz_hat, dc_hat = (_clenshaw(row, x) for row in _ZERO_TABLE)
    z0, grow = 2.0 / math.sqrt(alpha), math.expm1(tau)
    sigma = math.exp(tau) / math.sqrt(alpha)
    shift = sigma * sigma * _CLOSURE_AIM
    z = z0 + (z0 * grow + sigma * (dz + z_hat) + shift * (dz_hat - 1.0))
    c = 0.5 * z0 + (0.5 * z0 * grow + sigma * (dc + c_hat) + shift * dc_hat)
    return (z, c) if c < min(z, width) else (z, 0.5 * min(z, width))


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
    |y| ~ 500, more than its aim.

    Starts at the alpha = 1 zeros, series and table, mapped through the
    scaling law (`_tabulated_start`) for every alpha and eps.  With a free
    end that start lands within the 4-ulp stop below on most problems, so
    the solve returns from the start's own pass; on a full target it
    starts from the free zeros, and the steps carry z past the far edge.
    The start has c < min(z, width); each step is cut back to half way to
    any bound it would cross (`_bounded_step`), and z may cross the far
    edge, which is the full-target regime.

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
    z, c = _tabulated_start(spec.alpha, epsilon, width)
    F, J, final = _zero_residuals((z, c), spec, epsilon, aim, _ZERO_QUAD_TOL)
    size = math.inf
    for k in range(_ZERO_MAX_STEPS):
        f = F.tolist()
        if not all(map(math.isfinite, f + J.ravel().tolist())):
            break
        held = abs(f[1]) <= _MASS_TOL and abs(f[0]) <= 0.9 * _CLOSURE_TOL
        last, size = size, max(abs(f[0]), abs(f[1]))
        ulps = 4.0 * math.ulp(max(abs(z), abs(c)))
        try:
            delta = np.linalg.solve(J, -F[:2]).tolist()
        except np.linalg.LinAlgError:
            delta = None
        proposed = math.inf if delta is None else max(map(abs, delta))
        if held and (proposed <= ulps or size >= 0.5 * last):
            return _ZeroSolve((z, c), k, *f[:3], tuple(f[3:]), final)
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
    """Transfer density with its dual field and diagnostics.

    nodes/values tabulate the density over the whole target interval (zero
    extension included), the table `density.csv` writes, sampled on
    grid_n uniform depths over the support with the crossing, at depth
    crossing_depth, as a node (`_depth_grid`).  The table is built on its
    first read: no solve reads it.  clip_depth is how far below zero its
    support values run before the clip, certified panel by panel
    (`_clip_depth`).  max_abs_slope and max_log_lambda report how far the
    solution runs above the nominal scale ceiling instead of clamping it
    (see the module docstring); they are the slope inversion of the stress
    maximum, one node run on floats (`_invert_stress_sq_one`) and equal
    bit for bit to the array inversion of that node.  mass, expectation
    and energy_integrals
    (the H-term and dual integrals `energy` reads) are rows of the solve's
    last pass; what the coupled zero solve did (its Newton steps and final
    residuals) stays on its `_ZeroSolve`.

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
    crossing_depth: float
    grid_n: int
    mass: float
    expectation: float
    energy_integrals: tuple[float, ...]
    max_abs_slope: float
    max_log_lambda: float
    clip_depth: float
    profile: MonotoneProfile = field(repr=False)

    @functools.cached_property
    def _table(self):
        """(nodes, values): the profile read on the depth grid, clipped at 0
        with both Dirichlet ends pinned, then a zero extension over the
        rest of the target at the support's resolution, in ascending y."""
        o, anchor, m = self.spec.orientation, self.spec.anchor, self.support_endpoint
        edges = self.profile.edges
        grid_s = _depth_grid((edges[0], edges[-1]), self.crossing_depth, self.grid_n)
        # The anchored end is zero exactly; the closing end only up to the
        # residual tolerance, and interior rounding can graze zero, so clip
        # and pin both Dirichlet ends.
        values_support = np.maximum(self.profile.density(grid_s), 0.0)
        values_support[0] = 0.0
        values_support[-1] = 0.0
        lo, hi = self.support
        grid = anchor - o * grid_s
        grid[-1] = m                # a far edge exactly, not anchor - o * width
        n_zero = math.ceil(abs(self.spec.far_edge - m) / ((hi - lo) / (self.grid_n - 1)))
        zero_nodes = np.linspace(m, self.spec.far_edge, n_zero + 1)[1:]
        nodes = np.concatenate([grid, zero_nodes])
        values = np.concatenate([values_support, np.zeros(zero_nodes.size)])
        # Under assumption I depth runs against y: reverse to ascending y.
        return (nodes[::-1], values[::-1]) if o > 0 else (nodes, values)

    @property
    def nodes(self):
        return self._table[0]

    @property
    def values(self):
        return self._table[1]

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


def _clip_depth(profile, crossing, grid_n):
    """max(0, -min(profile.density(depths))) on the depth grid over the
    pass, `_depth_grid` of its span, the crossing and grid_n, bit for bit.
    The last node reads the closing density, `profile.edge_density[-1]`.
    Every other node of a panel that the profile certifies nonnegative
    (`MonotoneProfile._positive_panels`) reads at least 0 and cannot set
    the clip, so the grid is built, and read, only in the panels left
    uncertified."""
    lowest = profile.edge_density[-1:]
    uncertified = np.flatnonzero(~profile._positive_panels())
    if uncertified.size:
        edges = profile.edges
        depths = _depth_grid((edges[0], edges[-1]), crossing, grid_n)
        bounds = np.searchsorted(depths, edges)
        inside = np.concatenate([depths[bounds[k]:bounds[k + 1]] for k in uncertified])
        lowest = np.append(profile.density(inside), lowest)
    return float(max(0.0, -np.min(lowest)))


def assemble_density(spec: MongeProblemSpec, epsilon,
                     grid_n=2001) -> DensitySolution:
    """Full solve: free zero, crossing, and the density.

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
    rest of the target at matching resolution; the solution builds it on
    its first read.  The clip depth is that grid's, read only where the
    profile does not certify its panels nonnegative (`_clip_depth`).  The
    mass, the expectation and the `energy_integrals` come from rows of the
    solve's last Newton pass.  The slope maximum is read at the stress
    maximum, a support end, by the float form of the inversion
    (`_invert_stress_sq_one`): the array form's iteration on that one node
    without numpy's per-call cost, equal to it bit for bit.  Raises
    ValueError unless epsilon is finite
    and > 0 and grid_n an integer >= 33.
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
    clip_depth = _clip_depth(profile, zeros[1], grid_n)
    dual = DualField(support, (zero, crossing), o, spec.alpha, epsilon)

    # |theta| peaks at a support end: the parabola's vertex, inside the
    # support, beats the anchor's zc/2 with its (z - c)^2/8 only when
    # c < (3 - 2 sqrt 2) z, and the solved zeros keep c above 0.4 z there.
    stress_max = max(abs(dual.theta(support[0])), abs(dual.theta(support[1])))
    l_max, u_max = _invert_stress_sq_one(stress_max ** 2, spec.alpha, epsilon)
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
        support=support, crossing_depth=zeros[1], grid_n=int(grid_n),
        mass=float(mass), expectation=float(expectation),
        energy_integrals=solved.energy_integrals,
        max_abs_slope=math.sqrt(u_max), max_log_lambda=l_max,
        clip_depth=clip_depth, profile=profile)
