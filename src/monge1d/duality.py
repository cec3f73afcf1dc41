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
   first read.  The solution stores what the solve made, its depth zeros
   and last pass, and reads all else off them once: the parabola in y
   (`DualField`), the support, and the slope maximum, the inversion of
   the largest stress, read in depth at a support end.  The sampled grid
   over the support is only the table that `density.csv` writes, built
   on its first read.  Its clip depth is certified panel by panel from
   the density's Bernstein coefficients, and the grid is read only in
   panels left uncertified (`_clip_depth`), so a solve reads no grid
   node.

The quadratures of the slope, the solve's unknowns and the assembly's
grid are all depths s = orientation (anchor - y), 0 at the anchored edge
and the target width at the far edge.  In depth both orientations are one
problem, with stress (s - z)(s - c)/2 on the support [0, min(z, width)],
so orientation enters only where depths map back to y, through one map
(`DensitySolution._y`) and the row pass's per-node map, and a mirrored
problem gives the bitwise mirrored solution.  A shifted problem gives the
shifted solution, and the zeros resolve to ulps of the target's width
rather than of its distance from the origin.  Whether the target can hold
unit mass at all is decided before the solve, in closed form, by
`problem.require_capacity`: the target must be at least as wide as the
sharp-limit tent, 2/sqrt(alpha).

The solve's quadratures of the slope start from panels graded
geometrically toward the stress zeros in the support (`_graded_edges`).
Next to a zero the slope has a log-type layer,
slope^2 ~ alpha^2 + 2 eps ln|theta|, which bisection would reach one level
per round; graded panels each see the layer on their own scale, so one or
two vectorized rounds settle a quadrature.  The assembly runs no pass of
its own: it reads the solve's last one, so the closing density keeps the
sign the solve gave it, and a finer grid adds no panel and no inversion.
Each of the solve's passes is one `_zero_residuals`, which integrates a
stack of rows of one inversion per node: they carry the expectation and
the primal and dual energy integrals (at the solved pair the complementary
energy is the primal, see `energy`), and their panels, graded 64 ulps deep
into each zero, become the density.

`DensitySolution.integrate` sums rows alone, the probes' among them, and
delivers no density, so its pass (`_row_pass`) takes l = ln lambda as the
variable instead of depth.  On the parabola's three branches depth,
slope and Jacobian are closed forms of l: g = sqrt(alpha^2 + 2 eps l) and
|theta| = e^l g, so the pass inverts no node, the zeros' log layers become
a factor e^l that 40 units of l exhaust, and a kink at a fixed l is a
fixed panel edge.  The float inversion gives only the branch ends.  What
the pass reads of the solution alone, its branches, pieces and first
cuts, is built from the solve's own depth zeros and the pass's far edge,
with no trip through y, once per solution, and kept on it
(`DensitySolution._row_pass`); each run adds the cuts of its own levels,
so a repeat pass at any levels evaluates rows alone.  It runs at one
tolerance, `_ROW_TOL`.

Everything lambda-related is handled in log form: the lower endpoint
lambda_min = e^{-alpha^2/(2 eps)} underflows already for moderate
parameters, while l = ln lambda stays representable for eps down to 1e-6.

The smoothed penalty is finite beyond the slope bound, so where the
solved stress exceeds alpha in magnitude (next to the anchored endpoint
when alpha < 1, where the sharp-limit stress is 1/alpha) the algebra
extends continuously to l > 0 and this module follows it, reporting
max_log_lambda / max_abs_slope diagnostics instead of clamping.
Clamping would break both the equilibrium identity and the primal/dual
energy match, which downstream modules verify at tight tolerances.  On a
free end the largest slope is the anchor's, where |theta| = zc/2 tends
to the tent's 1/alpha, so l tends to -2 ln alpha and, to first order,
max_abs_slope = alpha (1 - 2 eps ln(alpha)/alpha^2): above alpha when
alpha < 1, below it when alpha > 1.  At alpha = 1 that term vanishes and
the excess is eps^2.
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
_ZERO_QUAD_TOL = 0.1 * _CLOSURE_TOL     # its passes' tolerance
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
    """The stress parabola in y of a solution (`DensitySolution.dual`).

    It is held through its two zeros `zeros = (z, c)`, in the factored
    form theta = -orientation (y - z)(y - c)/2: c is the crossing (the
    density peak) and z the free zero, which is the free support endpoint
    or, when the support fills the target, a point beyond the far edge.
    The factored form keeps theta(z) = 0 exact; the expanded form
    orientation * (constant - y^2/2) - multiplier * y loses it to
    cancellation, so `constant` and `multiplier` are only read out.
    multiplier is the unit-mass multiplier mu of the stress equation
    theta_y = -|y| - mu.  The stress itself is read in depth only.

    On a full target near the sharp width z lies past the far edge, where
    the solve's residuals follow it only through the slope's log layer:
    z is fixed only to rounding over that O(eps) Jacobian column (seven
    starts at alpha 4, eps 1e-6 landed within 3e-7 of each other), so
    there `constant` and `multiplier` carry about 7 to 8 significant
    digits, while the density, mass and energies keep full precision.
    """

    zeros: tuple[float, float]
    orientation: float

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

    def theta_y(self, y):
        """Stress gradient -|y| - multiplier, free of the cancellation the
        expanded form suffers far from the origin."""
        z, c = self.zeros
        y = np.asarray(y, dtype=float) if np.ndim(y) else float(y)
        return -0.5 * self.orientation * ((y - z) + (y - c))


# The tolerance of the row pass (`DensitySolution.integrate`), relative to
# each row's own total.
_ROW_TOL = 1e-10
# How far below the top of each branch the row pass integrates, in l: the
# rest of the branch is a factor e^-40 = 4e-18 of it.
_L_WINDOW = 40.0
# Distances in l below a branch's top where the row pass's first panels end,
# and the v = sqrt(l_v - l) they give below the vertex.
_L_LADDER = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 11.0, 17.0, 25.0)
_V_LADDER = tuple(math.sqrt(dl) for dl in _L_LADDER)


def _row_pass(zeros, S, anchor, orientation, alpha, epsilon):
    """The row pass over the depths [0, S] of the stress (s - z)(s - c)/2,
    0 <= c <= S <= z, taken in l = ln lambda branch by branch, so that no
    node is inverted; y is anchor - orientation s and the slope du/dy.
    Returns run(fn, tol, levels): the row integrals of one `_adaptive`
    pass of fn(y, l, slope), refined until every row meets the tolerance
    and summed panel after panel, a float for one row.

    With g = sqrt(alpha^2 + 2 eps l), tau = e^l g = |theta|, m = (z + c)/2
    and h = (z - c)/2 the three branches are
    - theta > 0 on [0, c]: s = c - 2 tau/(h + sqrt(h^2 + 2 tau)),
    - theta < 0 on [c, min(m, S)]: s = c + 2 tau/(h + sqrt(h^2 - 2 tau)),
    - theta < 0 on [m, S]: s = z - 2 tau/(h + sqrt(h^2 - 2 tau)),
    with |ds| = e^l (g^2 + eps)/(g sqrt(h^2 +- 2 tau)) dl.  Each runs down
    from its top in l (the anchor, the vertex m, or the far edge S when
    S < m), which the float inversion gives (`_invert_stress_sq_one`), to
    `_L_WINDOW` below it, to the floor l_min = -alpha^2/(2 eps), or on
    [m, S] to the far edge's l when S < z.

    Each piece of a branch has a variable x that keeps its integrand
    smooth, in which the distance d = l_ref - l below a reference l and
    g^2 are quadratics:
    - x = d on [0, c], below the anchor, l_ref = l_0, where
      h^2 + 2 tau cannot cancel;
    - x = v with d = v^2 on the vertex branches, below the vertex, where
      the square-root end at m becomes regular and h^2 - 2 tau is
      2 e^l (expm1(v^2) g_v + 2 eps v^2/(g_v + g)), the difference
      tau_v - tau in a form that does not cancel;
    - x = g on the lower half of a branch whose window reaches the floor,
      l = (g^2 - alpha^2)/(2 eps), where ds/dl has an inverse square root.
    The pieces lie end to end along the pass's variable, and each round
    maps its nodes through the constants of their pieces, gathered once,
    to depth, l, the slope and the Jacobian, and each depth to y on its
    own, so no rounding of y is shared by a branch.  The first panels end
    `_L_LADDER` below each top and, on [0, c], at the anchored edge's
    graded depths S 2^-k, k = 1 .. ceil(log2(alpha^2/eps)), taken to d at
    the anchor's rate: there the probes' t > 0 primal rows vary on the
    penalty's own scale.  None of this reads the rows, the tolerance or
    the levels, so a stack and each of its rows alone are summed on the
    same panels, and it is built once per solution and kept, read-only
    (`DensitySolution._row_pass`).  Each run adds its own level cuts:
    every l in `levels` is a panel edge on every piece it crosses, cut
    where the piece would cut it in x."""
    c, z = sorted(zeros)
    h, m, eps, o = 0.5 * (z - c), 0.5 * (z + c), epsilon, orientation
    a2 = alpha * alpha
    l_min = -a2 / (2.0 * eps)
    tau_0 = 0.5 * z * c
    l_0, gg_0 = _invert_stress_sq_one(tau_0 * tau_0, alpha, eps)
    l_v, gg_v = _invert_stress_sq_one((0.5 * h * h) ** 2, alpha, eps)
    l_S = (_invert_stress_sq_one((0.5 * (z - S) * (S - c)) ** 2, alpha, eps)[0]
           if S < z else -math.inf)
    x_of = {"d": lambda l: l_0 - l,
            "v": lambda l: math.sqrt(max(l_v - l, 0.0)),
            "g": lambda l: math.sqrt(max(a2 + 2.0 * eps * l, 0.0))}
    # d = D0 + D1 x + D2 x^2, l_ref, g^2 = G0 + G1 x + G2 x^2, |dd/dx| = J1 + J2 x
    forms = {"d": (0.0, 1.0, 0.0, l_0, gg_0, -2.0 * eps, 0.0, 1.0, 0.0),
             "v": (0.0, 0.0, 1.0, l_v, gg_v, 0.0, -2.0 * eps, 0.0, 2.0)}
    pieces = []                 # (x, x_a, x_b, constants, inner edges in x)

    def branch(top, bottom, var, ref, ladder, graded=()):
        """The pieces of one branch from l = top down to l = bottom, the
        first with its `ladder` in x.  ref holds g at l_ref;
        R^2 = A + e^l (B g + C (tau_ref - tau) e^-l); s = s0 + sc tau/(h + R);
        and the slope's factor of g."""
        l_ref = forms[var][3]
        low = max(top - _L_WINDOW, bottom)
        split = low if low > l_min else 0.5 * (top + max(l_min, bottom))
        parts = [(var, split, forms[var], [*ladder, *graded])]
        if split > low:         # the floor: the lower half in g
            parts.append(("g", max(l_min, bottom),
                          (l_ref - l_min, 0.0, -0.5 / eps, l_ref, 0.0, 0.0, 1.0,
                           0.0, 1.0 / eps),
                          [x_of["g"](top - dl) for dl in _L_LADDER]))
        l_hi = top
        for kind, l_lo, form, inner in parts:
            x = x_of[kind]
            x_a, x_b = sorted((x(l_hi), x(l_lo)))
            if x_a < x_b:
                pieces.append((x, x_a, x_b, form + ref, [p for p in inner if x_a < p < x_b]))
            l_hi = l_lo

    if c > 0.0:                 # theta > 0 on [0, c], down from the anchor
        rate = S * gg_0 * m / (tau_0 * (gg_0 + eps))      # S dd/ds at the anchor
        grades = range(1, math.ceil(math.log2(a2 / eps)) + 1)
        branch(l_0, -math.inf, "d",
               (math.sqrt(gg_0), h * h, 2.0, 0.0, c, -2.0, -o),
               _L_LADDER, [rate * 0.5 ** k for k in grades])
    vertex = (math.sqrt(gg_v), 0.0, 0.0, 2.0)
    if min(m, S) > c:           # theta < 0 on [c, min(m, S)], up to the vertex
        top = l_v if S >= m else l_S
        branch(top, -math.inf, "v", vertex + (c, 2.0, o),
               _V_LADDER if S >= m else [x_of["v"](top - dl) for dl in _L_LADDER])
    if S > m:                   # theta < 0 on [m, S], down from the vertex
        branch(l_v, l_S, "v", vertex + (z, -2.0, o), _V_LADDER)

    cuts, starts, table, span = [], [], [], 0.0
    for x, x_a, x_b, constants, inner in pieces:
        cuts += [p + (span - x_a) for p in inner]
        starts.append(span)
        table.append((x_a - span,) + constants)
        span += x_b - x_a
        cuts.append(span)
    starts, table, cuts = np.array(starts), np.array(table).T, np.array(cuts)
    for arr in (starts, table, cuts):
        arr.flags.writeable = False

    def run(fn, tol, levels):
        level_cuts = [p + (t - x_a) for (x, x_a, x_b, *_), t in zip(pieces, starts)
                      for p in (x(float(lv)) for lv in levels) if x_a < p < x_b]

        def rows(nodes):
            (X0, D0, D1, D2, l_ref, G0, G1, G2, J1, J2, g_ref, A, B, C, s0, sc,
             ys) = table[:, np.searchsorted(starts, nodes, side="right") - 1]
            x = nodes + X0
            d = D0 + x * (D1 + x * D2)
            l = l_ref - d
            gg = G0 + x * (G1 + x * G2)
            g = np.sqrt(gg)
            lam = np.exp(l)
            R = np.sqrt(A + lam * (B * g + C * (np.expm1(d) * g_ref
                                                + 2.0 * eps * d / (g_ref + g))))
            y = anchor - o * (s0 + sc * (lam * g) / (h + R))
            jac = lam * (gg + eps) * (J1 + J2 * x) / (g * R)
            return np.asarray(fn(y, l, ys * g), dtype=float) * jac

        out = np.cumsum(_adaptive(rows, 0.0, span, np.concatenate([cuts, level_cuts]), tol)[1],
                        axis=1)[:, -1]
        return float(out[0]) if out.size == 1 else out

    return run


def _zero_residuals(zeros, spec: MongeProblemSpec, epsilon, aim):
    """Closure and mass residuals of the stress with zeros (z, c) at the
    depths `zeros`, with its expectation moment and energy integrals, from
    the solve's pass: one `_adaptive` pass over the support [0, S] to
    `_ZERO_QUAD_TOL`, on panels graded 64 ulps deep into each stress zero
    (`_graded_edges`), whose rows invert the stress (s - z)(s - c)/2 once
    per node for l and du/ds.  The rows are the closing density integral of du/ds less its
    aim, integral of (S - s) du/ds - 1, integral of (S - s)^2 du/ds and
    `DensitySolution.energy_integrals`, summed panel after panel as
    `DensitySolution.integrate` sums them.  Also the residuals' exact
    Jacobian in (z, c), from two more rows of the same pass (see
    `_solve_zeros`), and the pass itself: its edges, row sums and du/ds
    samples.  Its panels become the delivered density and its CDF, read
    between the nodes, so every panel must resolve the slope's log
    layer."""
    z, c = zeros
    S = min(z, spec.target_width)       # the support's far end, in depth

    def rows(s):
        theta = 0.5 * (s - z) * (s - c)
        l, u = _invert_stress_sq(theta * theta, spec.alpha, epsilon)
        g = np.copysign(np.sqrt(u), theta)
        d, gg = S - s, g * g
        h = epsilon * g / (gg + epsilon)        # theta dg/dtheta
        lam = np.exp(l)
        return (g, d * g, d ** 2 * g, h, d * h, epsilon * lam, -lam * (gg - epsilon))

    done = _adaptive(rows, 0.0, S, _graded_edges((0.0, S), zeros), _ZERO_QUAD_TOL)
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
    non-finite residual or Jacobian, on a singular one, or before a pass
    whose largest squared stress would overflow.  Below the sharp width,
    which `require_capacity` refuses, the steps walk z out by a roughly
    constant factor each, and on the narrowest targets the stress
    overflows before the step cap.
    """
    width, aim = spec.target_width, _CLOSURE_AIM
    z, c = _tabulated_start(spec.alpha, epsilon, width)
    F, J, final = _zero_residuals((z, c), spec, epsilon, aim)
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
        # The pass squares the stress; on the support its largest |theta| is
        # the anchor's or that at the vertex or the far edge, the nearer.
        s = min(0.5 * (z + c), width)
        stress = 0.5 * max(z * c, (z - s) * (s - c))
        if not math.isfinite(stress * stress):
            raise MaxIterations(
                f"coupled zero solve stepped to the zeros ({z!r}, {c!r}) after "
                f"{k + 1} Newton steps, where the squared stress {stress:.3e}^2 "
                f"overflows")
        F, J, final = _zero_residuals((z, c), spec, epsilon, aim)
    raise MaxIterations(
        f"coupled zero solve did not meet its contracts in {_ZERO_MAX_STEPS} "
        f"Newton steps (closure {F[0]:.3e}, mass residual {F[1]:.3e})")


# -- assembled density --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensitySolution:
    """Transfer density with its stress zeros and diagnostics.

    The solution stores what its solve made and nothing that follows from
    it.  depth_zeros = (z, c), the free zero and the crossing as depths,
    exactly as `_solve_zeros` returns them, are the one record of the
    zeros.  mass, expectation and energy_integrals (the H-term and dual
    integrals `energy` reads) are rows of the solve's last pass, and
    `profile` is that pass itself; grid_n sizes the table.  What the
    coupled zero solve did (its Newton steps and final residuals) stays
    on its `_ZeroSolve`.

    Every other read is derived from these, and all but the `support` and
    its closing end `support_endpoint` once, on its first read: the
    stress parabola in y (`dual`); nodes/values, the table `density.csv`
    writes, the density sampled on grid_n uniform depths with the
    crossing as a node (`_depth_grid`), which no solve reads; clip_depth,
    how far below zero those values run before the clip, certified panel
    by panel (`_clip_depth`); and max_abs_slope and max_log_lambda, which
    report how far the solution runs above the nominal scale ceiling
    instead of clamping it (see the module docstring).  Those two are the
    slope inversion of the largest stress on the support, read in depth
    off the zeros and the pass's last edge, so a shifted or mirrored
    problem reads them bit for bit; the inversion is one node run on
    floats (`_invert_stress_sq_one`), equal bit for bit to the array
    inversion of that node.

    The solution holds one representation of the density, that pass read
    in depth as a `numerics.MonotoneProfile`, one map of depth to y
    (`_y`) and its inverse (`_depth`), through which every read goes: by
    calling the solution, the delivered density, zero off
    the open support and clipped at 0, so both Dirichlet ends read 0
    exactly; `cdf`, the target CDF; and `quantile`, its inverse, which the
    transport maps read.  No read consults the table: a node reads the
    profile at the depth its y maps to, which has lost the node's last
    bits.  The cumulative construction makes the density's slope the
    recovered dual slope on the support, the inversion of the stress
    (s - z)(s - c)/2 at the depth s of y (`_invert_stress_sq`), and zero
    off it.
    """

    spec: MongeProblemSpec
    epsilon: float
    depth_zeros: tuple[float, float]
    grid_n: int
    mass: float
    expectation: float
    energy_integrals: tuple[float, ...]
    profile: MonotoneProfile = field(repr=False)

    @functools.cached_property
    def dual(self) -> DualField:
        """The stress parabola in y, its zeros mapped from depth (`_y`)."""
        return DualField(tuple(map(self._y, self.depth_zeros)), self.spec.orientation)

    @property
    def support_endpoint(self) -> float:
        """The closing end of the support (`_closing_end`)."""
        return _closing_end(self.spec, self.depth_zeros[0])

    @property
    def support(self) -> tuple[float, float]:
        """The support [anchor, closing end] in ascending y."""
        return tuple(sorted((self.spec.anchor, self.support_endpoint)))

    @functools.cached_property
    def _table(self):
        """(nodes, values): the profile read on the depth grid, clipped at 0
        with both Dirichlet ends pinned, in ascending y."""
        edges = self.profile.edges
        grid_s = _depth_grid((edges[0], edges[-1]), self.depth_zeros[1], self.grid_n)
        # The anchored end is zero exactly; the closing end only up to the
        # residual tolerance, and interior rounding can graze zero, so clip
        # and pin both Dirichlet ends.
        values = np.maximum(self.profile.density(grid_s), 0.0)
        values[0] = 0.0
        values[-1] = 0.0
        nodes = self._y(grid_s)
        # Under assumption I depth runs against y: reverse to ascending y.
        return (nodes[::-1], values[::-1]) if self.spec.orientation > 0 else (nodes, values)

    @functools.cached_property
    def clip_depth(self) -> float:
        """How far below zero the table's values run before the clip."""
        return _clip_depth(self.profile, self.depth_zeros[1], self.grid_n)

    @functools.cached_property
    def _slope_max(self):
        """(l, slope^2) at the largest |stress| on the support, in depth."""
        (z, c), S = self.depth_zeros, float(self.profile.edges[-1])
        # |theta| peaks at a support end: the parabola's vertex, inside the
        # support, beats the anchor's zc/2 with its (z - c)^2/8 only when
        # c < (3 - 2 sqrt 2) z, and the solved zeros keep c above 0.4 z there.
        stress_max = max(0.5 * z * c, 0.5 * abs((S - z) * (S - c)))
        return _invert_stress_sq_one(stress_max ** 2, self.spec.alpha, self.epsilon)

    @functools.cached_property
    def max_abs_slope(self) -> float:
        return math.sqrt(self._slope_max[1])

    @functools.cached_property
    def max_log_lambda(self) -> float:
        return self._slope_max[0]

    @property
    def nodes(self):
        return self._table[0]

    @property
    def values(self):
        return self._table[1]

    def _y(self, s):
        """The y = anchor - o s of each depth s: the one map from depth to
        y.  The pass's last edge reads the closing end, support_endpoint,
        exactly."""
        s = np.asarray(s, dtype=float)
        y = np.where(s == self.profile.edges[-1], self.support_endpoint,
                     self.spec.anchor - self.spec.orientation * s)
        return y if y.ndim else float(y)

    def _depth(self, y):
        """Depth o (anchor - y) of each y, clamped to the pass, the inverse
        of `_y`: the closing end reads the last edge exactly."""
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
        back to the closing end exactly (`_y`).  A NaN t raises ValueError."""
        t_arr = np.ravel(np.asarray(t, dtype=float))
        s = self.profile.invert_many(1.0 - t_arr if self.spec.orientation > 0 else t_arr)
        out = self._y(s)
        return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])

    def integrate(self, fn, levels=()):
        """Support integrals of the rows fn(y, log_lambda, slope) (a float
        for one row), the sums of one row pass (`_row_pass`) over the
        stress parabola's three branches in l = ln lambda, each row to
        `_ROW_TOL` of its own total.  On each branch depth, slope and
        Jacobian are closed forms of l, so the pass inverts no node and
        does not depend on the array inversion's collective stop
        (`_invert_stress_sq`).  Every point where l takes one of the
        `levels` is a panel edge, so no round hunts a row's kink there.
        """
        return self._row_pass(fn, _ROW_TOL, levels)

    @functools.cached_property
    def _row_pass(self):
        """`_row_pass` of the solve's depth zeros and the pass's last edge
        S, built on the first pass and kept: it reads neither the rows,
        the tolerance nor the levels, so a repeat pass at any levels, such
        as a second probe, only evaluates rows."""
        spec = self.spec
        return _row_pass(self.depth_zeros, float(self.profile.edges[-1]), spec.anchor,
                         spec.orientation, spec.alpha, self.epsilon)


def _closing_end(spec: MongeProblemSpec, depth):
    """The free zero at `depth`, anchor - orientation depth in y, clamped
    to the target: the far edge once beyond it."""
    tl, tr = spec.target_interval
    return min(max(spec.anchor - spec.orientation * depth, tl), tr)


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
    mass, the expectation and the `energy_integrals` come from rows of the
    solve's last Newton pass, so the assembly runs no quadrature, inverts
    no node and maps nothing to y but the closing end the expectation
    needs.  The table `density.csv` writes, its clip depth and the slope
    maximum are read off the solution on their first read.  Raises
    ValueError unless epsilon is finite and > 0 and grid_n an integer
    >= 33.
    """
    report = validate_spec(spec)
    if not report.ok:
        raise DomainError(f"inadmissible problem: {report.message()}")
    epsilon = float(epsilon)
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if not isinstance(grid_n, (int, np.integer)) or grid_n < 33:
        raise ValueError(f"grid_n must be an integer >= 33, got {grid_n!r}")
    require_capacity(spec)
    solved = _solve_zeros(spec, epsilon)
    zeros, o = solved.zeros, spec.orientation
    edges, sums, samples = solved.final_pass
    mass = 1.0 + solved.mass_residual
    # Depth s sits at y = anchor - orientation s, and the support closes at
    # depth S, y = m.  integral of y u = m * mass + integral of (y - m) u,
    # and the latter integrates by parts to -1/2 integral of (y - m)^2 u_y
    # dy, which is orientation/2 times integral of (s - S)^2 du/ds ds in
    # depth, the moment of the solve's final pass: the quadrature only
    # sees depths, so a shifted problem gives the shifted expectation and
    # a mirrored one the negated expectation.
    m = _closing_end(spec, zeros[0])
    expectation = m * mass + 0.5 * o * solved.moment
    return DensitySolution(
        spec=spec, epsilon=epsilon, depth_zeros=zeros, grid_n=int(grid_n),
        mass=float(mass), expectation=float(expectation),
        energy_integrals=solved.energy_integrals,
        profile=MonotoneProfile(edges, sums[0], samples, singular=zeros))
