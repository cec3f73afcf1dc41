"""Low-level numerical kernels: adaptive quadrature (whole-interval and
per grid cell), monotone profile interpolation with a vectorized inverse,
and a bracketed root solve to a residual tolerance (the reference
solves of `duality`).

Design notes
------------
* Quadrature is a batched adaptive Gauss-Kronrod 15(7) scheme.  All panels
  that still need refinement are evaluated in a single vectorized call per
  round, so integrands must accept numpy arrays.  A round costs a fixed
  overhead whatever its size, so the number of rounds sets the time.
  Bisection reaches a singular point one level per round, and a log-type
  layer such as the slope's next to a stress zero needs 20 to 35 levels
  at the solver's tolerances.  Callers that know such a point pass
  breakpoints graded geometrically toward it (the dual solver does, see
  `duality`): the loop then starts from the mesh bisection would have
  built and finishes in one or two rounds.
  The depth cap of 60 levels, rather than the usual 20, still lets an
  integrand without graded breakpoints reach such a layer by bisection.
* Everything here is deterministic: fixed node tables, fixed split rules,
  no randomized pivoting.  Two runs on the same inputs produce bitwise
  identical results, which the CLI relies on for reproducible CSV output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import MaxDepth, MaxIterations, NoSignChange

# Gauss-Kronrod 15(7) nodes and weights on [-1, 1] (QUADPACK values).
_XGK_HALF = np.array([
    0.9914553711208126392068547,
    0.9491079123427585245261897,
    0.8648644233597690727897128,
    0.7415311855993944398638648,
    0.5860872354676911302941448,
    0.4058451513773971669066064,
    0.2077849550078984676006894,
])
_WGK_HALF = np.array([
    0.0229353220105292249637320,
    0.0630920926299785532907007,
    0.1047900103222501838398763,
    0.1406532597155259187451896,
    0.1690047266392679028265834,
    0.1903505780647854099132564,
    0.2044329400752988924141620,
])
_WGK_CENTER = 0.2094821410847278280129992
_WG_HALF = np.array([
    0.1294849661688696932706114,
    0.2797053914892766679014678,
    0.3818300505051189449503698,
])
_WG_CENTER = 0.4179591836734693877551020

# Full symmetric 15-point tables.  Built by negation so that a mirrored
# interval evaluates the integrand at exactly negated abscissae.
_XGK = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
# Gauss-7 nodes sit at the odd Kronrod positions 1,3,...,13.
_GAUSS_IDX = np.arange(1, 14, 2)
_WG = np.concatenate([_WG_HALF, [_WG_CENTER], _WG_HALF[::-1]])

_DEFAULT_TOL = 1e-10
_MAX_PANEL_DEPTH = 60
_ROOT_MAX_ITER = 200


def _gk_panels(f, a, b, weight=None):
    """Kronrod and Gauss estimates for each panel [a[i], b[i]], using one
    vectorized integrand call; with `weight`, also the Kronrod estimate of
    weight * f from the same samples."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    kron = half * (vals @ _WGK)
    gauss = half * (vals[:, _GAUSS_IDX] @ _WG)
    weighted = None if weight is None else half * ((weight(nodes) * vals) @ _WGK)
    return kron, gauss, weighted


def _initial_edges(l, r, breakpoints):
    """Sorted, distinct panel edges: l, r and the breakpoints inside (l, r)."""
    cuts = np.asarray(breakpoints, dtype=float).ravel()
    return np.unique(np.concatenate([[l, r], cuts[(cuts > l) & (cuts < r)]]))


def _cell_edges(grid, breakpoints):
    """Panel edges for a per-cell quadrature over a sorted grid: the grid
    nodes plus the breakpoints inside it, each panel tagged with the grid
    cell that contains it."""
    edges = _initial_edges(grid[0], grid[-1], np.concatenate(
        [grid[1:-1], np.asarray(breakpoints, dtype=float).ravel()]))
    cell_id = np.clip(np.searchsorted(grid, edges[:-1], side="right") - 1,
                      0, grid.size - 2)
    return edges, cell_id


def _adaptive(f, edges, cell_id, tol, max_depth, weight=None):
    """Shared refinement loop.  `edges` defines the initial panels, `cell_id`
    tags each panel with the output cell it accumulates into.  Returns the
    per-cell Kronrod sums and (None without `weight`) the per-cell sums of
    weight * f on the same panels; refinement follows f alone."""
    a = edges[:-1].copy()
    b = edges[1:].copy()
    cells = cell_id.copy()
    depth = np.zeros(a.size, dtype=int)
    kron, gauss, wkron = _gk_panels(f, a, b, weight)
    err = np.abs(kron - gauss)

    while True:
        total = abs(float(np.sum(kron)))
        target = tol * max(1.0, total)
        esum = float(np.sum(err))
        if esum <= target or a.size == 0:
            break
        # Split every panel holding more than its share of the error budget;
        # always split at least the worst one so the loop makes progress.
        split = err > target / (2.0 * a.size)
        if not split.any():
            split = np.zeros(a.size, dtype=bool)
            split[int(np.argmax(err))] = True
        if int(depth[split].max()) >= max_depth:
            raise MaxDepth(
                f"adaptive quadrature exceeded {max_depth} subdivision levels "
                f"(remaining error {esum:.3e}, target {target:.3e})")
        keep = ~split
        mids = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[keep], a[split], mids])
        new_b = np.concatenate([b[keep], mids, b[split]])
        new_cells = np.concatenate([cells[keep], cells[split], cells[split]])
        new_depth = np.concatenate([depth[keep], depth[split] + 1, depth[split] + 1])
        k2, g2, w2 = _gk_panels(f, np.concatenate([a[split], mids]),
                                np.concatenate([mids, b[split]]), weight)
        kron = np.concatenate([kron[keep], k2])
        if weight is not None:
            wkron = np.concatenate([wkron[keep], w2])
        gauss = np.concatenate([gauss[keep], g2])
        err = np.concatenate([err[keep], np.abs(k2 - g2)])
        a, b, cells, depth = new_a, new_b, new_cells, new_depth

    n_cells = int(cell_id.max()) + 1 if cell_id.size else 0
    # Deterministic accumulation order: sort panels by (cell, left edge).
    order = np.lexsort((a, cells))

    def per_cell(panel_sums):
        out = np.zeros(n_cells)
        np.add.at(out, cells[order], panel_sums[order])
        return out

    return per_cell(kron), None if weight is None else per_cell(wkron)


def integrate(f, l, r, tol=_DEFAULT_TOL, *, breakpoints=(), max_depth=_MAX_PANEL_DEPTH):
    """Integral of a vectorized integrand over [l, r].

    The absolute error is driven below tol * max(1, |result|).  Known
    interior kinks can be passed as `breakpoints`; points outside (l, r)
    are ignored.  Raises MaxDepth when refinement stalls.

    Like any sampling-based adaptive rule, refinement is triggered by
    disagreement between the embedded estimates: a feature narrow enough to
    hide between all 15 nodes of its panel with no footprint on either side
    (an isolated spike on a zero background) is invisible.  Steep but
    jump-like transitions, the shape this package produces, are resolved
    because their plateaus shift the coarse estimates.
    """
    l = float(l)
    r = float(r)
    if r < l:
        raise ValueError("integrate expects l <= r")
    if r == l:
        return 0.0
    edges = _initial_edges(l, r, breakpoints)
    cell_id = np.zeros(edges.size - 1, dtype=int)
    sums, _ = _adaptive(f, edges, cell_id, tol, max_depth)
    return float(sums[0])


@dataclass
class MonotoneProfile:
    """A sampled monotone function with shape-preserving evaluation and a
    vectorized inverse (`invert_many`).

    Interpolation is monotone cubic (PCHIP), which cannot overshoot the
    node values, so evaluations stay inside [min(values), max(values)] and
    the inverse is well posed cell by cell.
    """

    nodes: np.ndarray
    values: np.ndarray
    increasing: bool = True
    _interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ValueError("profile needs at least two nodes")
        if self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must have matching shapes")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("profile nodes must be strictly increasing")
        diffs = np.diff(self.values)
        if self.increasing and np.any(diffs < -1e-30):
            raise ValueError("values are not nondecreasing")
        if not self.increasing and np.any(diffs > 1e-30):
            raise ValueError("values are not nonincreasing")
        self._interp = PchipInterpolator(self.nodes, self.values, extrapolate=False)

    @property
    def range(self):
        lo = float(min(self.values[0], self.values[-1]))
        hi = float(max(self.values[0], self.values[-1]))
        return lo, hi

    def __call__(self, y):
        y_arr = np.clip(np.asarray(y, dtype=float), self.nodes[0], self.nodes[-1])
        out = self._interp(y_arr)
        return out if np.ndim(y) else float(out)

    def _oriented(self):
        """Values with ascending orientation, for bracketing searches."""
        return self.values if self.increasing else -self.values

    def invert_many(self, targets):
        """Vectorized inverse by fixed-count bisection (64 halvings).

        Targets are clipped into the profile range.  Deterministic and
        array-safe, used by the transport-map quadratures.
        """
        t = np.asarray(targets, dtype=float)
        lo, hi = self.range
        t_c = np.clip(t, lo, hi)
        vals = self._oriented()
        t_o = t_c if self.increasing else -t_c
        k = np.clip(np.searchsorted(vals, t_o, side="left"), 1, vals.size - 1)
        ya = self.nodes[k - 1].astype(float).copy()
        yb = self.nodes[k].astype(float).copy()
        sgn = 1.0 if self.increasing else -1.0
        for _ in range(64):
            mid = 0.5 * (ya + yb)
            below = sgn * (np.asarray(self(mid)) - t_c) < 0.0
            ya = np.where(below, mid, ya)
            yb = np.where(below, yb, mid)
        out = 0.5 * (ya + yb)
        # Exact range-end targets snap to the boundary nodes: bisection
        # against a flat approach (derivative 0 at the end) otherwise
        # stalls ~sqrt(eps) short of the endpoint.
        out = np.where(t_c == self.values[0], self.nodes[0], out)
        out = np.where(t_c == self.values[-1], self.nodes[-1], out)
        return out if np.ndim(targets) else float(out)


def solve_root(f, lo, hi, tol=1e-12, max_iter=_ROOT_MAX_ITER):
    """Bracketed root of f on [lo, hi], to the residual |f(x)| <= tol.

    Regula falsi with the Illinois modification (Dowell & Jarratt, BIT 11,
    1971): when the same bracket end is replaced twice in a row, the value
    kept at the other end is halved, so neither end stalls.  A
    false-position point outside the open bracket falls back to the
    midpoint.  Returns only an x in [lo, hi] with |f(x)| <= tol.  Raises
    NoSignChange when f(lo) and f(hi) share a sign beyond tol, and
    MaxIterations when the bracket collapses to adjacent floats or
    `max_iter` steps pass before the residual is met.
    """
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
