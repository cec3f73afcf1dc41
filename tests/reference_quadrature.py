"""Plain adaptive quadrature of any vectorized integrand, for the tests: the
package's `_adaptive` pass over an interval, summed.  The package itself
integrates only in depths, on passes `duality._depth_pass` builds."""

import numpy as np

from monge1d.numerics import _adaptive


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
