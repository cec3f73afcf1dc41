"""Plain adaptive quadrature of any vectorized integrand, for the tests: the
package's `_adaptive` pass over an interval, summed.  Also `depth_pass`,
the reference for `DualField.integrate`: the package sums a field's rows
in l = ln lambda (`duality._log_pass`), and this sums them in depth, with
every node inverted, as the solve's passes (`duality._depth_pass`) do."""

import numpy as np

from monge1d.duality import _invert_stress_sq
from monge1d.numerics import _adaptive, _graded_edges


def integrate(f, l, r, tol=1e-10, *, breakpoints=()):
    """Integral of a vectorized integrand over [l, r], or the array of row
    integrals of one that returns a stack of rows.

    The absolute error of every row is driven below
    tol * max(1, |that row's result|).  Known
    interior kinks can be passed as `breakpoints`; points outside (l, r)
    are ignored.  An empty span gives a zero per row.  Raises MaxDepth,
    naming the row still over its budget, when refinement stalls, and
    DomainError, naming the row, on a NaN integral or error estimate.

    Like any sampling-based adaptive rule, refinement is triggered by
    disagreement between the embedded estimates: a feature narrow enough to
    hide between all 15 nodes of its panel with no footprint on either side
    (an isolated spike on a zero background) is invisible.  Steep but
    jump-like transitions are resolved because their plateaus shift the
    coarse estimates.
    """
    l, r = float(l), float(r)
    if r < l:
        raise ValueError("integrate expects l <= r")
    if r == l:
        rows = np.asarray(f(np.empty(0)), dtype=float)
        out = np.zeros(rows.shape[0] if rows.ndim > 1 else 1)
    else:               # the panels summed one after another, ascending
        out = np.cumsum(_adaptive(f, l, r, breakpoints, tol)[1], axis=1)[:, -1]
    return float(out[0]) if out.size == 1 else out


def depth_pass(field, fn, tol, levels=()):
    """Support integrals of the rows fn(y, log_lambda, slope) of a
    `duality.DualField`, as `DualField.integrate` returns them, taken in
    depth instead of in l: each node's l and slope from the array
    inversion of its squared stress (`duality._invert_stress_sq`), on
    panels graded 64 ulps deep into each stress zero (`_graded_edges`) and
    cut at the depths where l takes one of the `levels`.

    In depths s = orientation (anchor - y) from the anchored support end
    the stress is (s - z)(s - c)/2 and |theta| = e^l sqrt(alpha^2 +
    2 eps l), so a level l = L lies at s = m +- sqrt(h^2 +- 2 |theta_L|)
    with m = (z + c)/2 and h = (z - c)/2.  It shares the inversion, the
    grading and the refinement loop with the solve's pass, and nothing
    with `DualField.integrate`'s pass in l."""
    o, (lo, hi) = field.orientation, field.support
    anchor = hi if o > 0 else lo
    z, c = (o * (anchor - p) for p in field.zeros)
    span = (0.0, hi - lo)
    alpha, eps = field.alpha, field.epsilon
    levels = np.asarray(levels, dtype=float)
    levels = levels[alpha * alpha + 2.0 * eps * levels > 0.0]
    tau = np.exp(levels) * np.sqrt(alpha * alpha + 2.0 * eps * levels)
    disc = (0.5 * (z - c)) ** 2 + np.concatenate([2.0 * tau, -2.0 * tau])
    root = np.sqrt(disc[disc >= 0.0])
    kinks = 0.5 * (z + c) + np.concatenate([-root, root])

    def rows(s):
        theta = 0.5 * (s - z) * (s - c)
        l, u = _invert_stress_sq(theta * theta, alpha, eps)
        return fn(anchor - o * s, l, -o * np.copysign(np.sqrt(u), theta))

    cuts = np.concatenate([_graded_edges(span, (z, c)), kinks])
    return integrate(rows, *span, tol=tol, breakpoints=cuts)
