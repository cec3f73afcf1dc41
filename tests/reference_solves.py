"""Bracketed reference solves of the stress zeros, one unknown at a time:
the closure by a root solve over a trial stress, nested in the mass.  The
package solves both conditions at once, in one coupled Newton solve; the
tests hold it to these, and criterion 05 checks their monotonicity.  Every
quadrature is one pass of the package's row pass in l = ln lambda
(`duality._row_pass`), over a trial stress given by its zeros in y."""

import math

import numpy as np

from monge1d.duality import _invert_stress_sq, _row_pass
from monge1d.errors import MaxIterations, Monge1dError


def stress_at(field, y):
    """The stress of a `duality.DualField` at y, in its factored form
    -orientation (y - z)(y - c)/2: an array for an array, a float, on
    floats, for a number.  The package reads the stress in depth only."""
    z, c = field.zeros
    y = np.asarray(y, dtype=float) if np.ndim(y) else float(y)
    return -0.5 * field.orientation * (y - z) * (y - c)


def inverted_at(field, y, alpha, epsilon):
    """(l, slope) at each y of a `duality.DualField`: the array inversion
    of its squared stress (`duality._invert_stress_sq`), with the slope
    taking the stress's sign."""
    theta = stress_at(field, y)
    l, slope_sq = _invert_stress_sq(theta * theta, alpha, epsilon)
    return l, np.copysign(np.sqrt(slope_sq), theta)


class NoSignChange(Monge1dError):
    """Root bracket endpoints have the same sign."""


def solve_root(f, lo, hi, tol=1e-12, max_iter=200):
    """Bracketed root of f on [lo, hi] with |f(x)| <= tol, by regula falsi
    with the Illinois modification (Dowell & Jarratt, BIT 11, 1971), or
    NoSignChange / MaxIterations."""
    a, b = float(lo), float(hi)
    fa, fb = float(f(a)), float(f(b))
    if abs(fa) <= tol:
        return a
    if abs(fb) <= tol:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChange(f"f({a}) = {fa:.6g} and f({b}) = {fb:.6g} "
                           "have the same sign")
    side = 0
    for _ in range(max_iter):
        x = a - fa * (b - a) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                break
        fx = float(f(x))
        if abs(fx) <= tol:
            return x
        if (fx > 0) == (fb > 0):
            b, fb = x, fx
            if side < 0:
                fa *= 0.5
            side = -1
        else:
            a, fa = x, fx
            if side > 0:
                fb *= 0.5
            side = 1
    raise MaxIterations(f"|f| stayed above {tol} down to the bracket "
                        f"[{a!r}, {b!r}] of [{lo}, {hi}]")


def boundary_residual(r, support, spec, epsilon, *, zero=None, quad_tol=1e-13):
    """Integral of the slope over the support for the stress with zeros
    (zero, r), or without `zero` the level-r parabola
    orientation * (r - y^2/2): increasing in a crossing r, and in a level r
    under orientation I, decreasing under II."""
    lo, hi, o = float(support[0]), float(support[1]), spec.orientation
    if not lo < hi:
        raise ValueError(f"support [{lo}, {hi}] is degenerate")
    if zero is None:
        root = math.sqrt(max(2.0 * r, 0.0))
        zero, r = -o * root, o * root
    return row_integral(lambda y, l, g: g, (lo, hi), (zero, r), spec, epsilon,
                        quad_tol)


def solve_constant(support, spec, epsilon, tol=1e-12):
    """Level that closes the density on the support, bracketed by the
    levels putting the stress zero at either end."""
    lo, hi = support
    f = lambda r: boundary_residual(r, support, spec, epsilon,
                                    quad_tol=min(1e-13, 0.1 * tol))
    return solve_root(f, *sorted((0.5 * lo * lo, 0.5 * hi * hi)), tol=tol)


def solve_crossing(support, zero, spec, epsilon, tol=1e-12):
    """Crossing that closes the density on the support at the coupled
    solve's aim, +tol/10, within 0.9 tol."""
    aim = 0.1 * tol * spec.orientation     # the density closes at -o * residual
    f = lambda c: boundary_residual(c, support, spec, epsilon, zero=zero,
                                    quad_tol=min(1e-13, 0.1 * tol)) + aim
    return solve_root(f, *support, tol=0.9 * tol)


def total_mass(endpoint, spec, epsilon, *, crossing=None, constant_tol=1e-12,
               quad_tol=1e-11):
    """Mass of the density whose stress vanishes at `endpoint` (past the far
    edge, the whole target with a Dirichlet end): the integral of
    (m - y) u_y over the support closing at m, with the crossing solved to
    `constant_tol` unless passed in."""
    zero, (tl, tr) = float(endpoint), spec.target_interval
    m = min(max(zero, tl), tr)
    support = tuple(sorted((spec.anchor, m)))
    if not support[0] < support[1]:
        return 0.0
    if crossing is None:
        crossing = solve_crossing(support, zero, spec, epsilon, tol=constant_tol)
    return row_integral(lambda y, l, g: (m - y) * g, support, (zero, crossing), spec,
                        epsilon, quad_tol)


def row_integral(fn, support, zeros, spec, epsilon, tol):
    """Support integrals of the rows fn(y, log_lambda, slope) for the
    stress with the zeros (z, c) in y, from the anchored end of `support`:
    the package's row pass over the depths o (anchor - p) of the zeros and
    the support's width."""
    o, (lo, hi) = spec.orientation, support
    anchor = hi if o > 0 else lo
    depths = tuple(o * (anchor - p) for p in zeros)
    return _row_pass(depths, hi - lo, anchor, o, spec.alpha, epsilon)(fn, tol, ())
