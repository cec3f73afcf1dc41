"""Low-level numerical kernels: adaptive quadrature (whole-interval and
per grid cell), the Fritsch-Carlson monotone cubic (PCHIP) that
interpolates sampled densities and CDFs, monotone profiles with a
vectorized inverse exact cell by cell, and a bracketed root solve to a
residual tolerance (the reference solves of `duality`).  numpy is the
only dependency.

Design notes
------------
* Quadrature is a batched adaptive Gauss-Kronrod 15(7) scheme.  All panels
  that still need refinement are evaluated in a single vectorized call per
  round, so integrands must accept numpy arrays.  A round costs a fixed
  overhead whatever its size, so the number of rounds sets the time.
  Bisection reaches a singular point one level per round, and a log-type
  layer such as the slope's next to a stress zero needs 20 to 35 levels
  at the solver's tolerances.  Callers that know such a point pass
  breakpoints graded geometrically toward it (`_graded_edges`; the dual
  solver's quadratures and the transport cost do): the loop then starts
  from the mesh bisection would have built and finishes in one or two
  rounds.
  The depth cap of 60 levels, rather than the usual 20, still lets an
  integrand without graded breakpoints reach such a layer by bisection.
* The monotone cubic stores power-form coefficients per cell, built and
  summed in the order scipy's `PchipInterpolator` uses, so the two agree
  to rounding (the tests hold scipy as the reference, to 1e-14).  Its
  inverse solves each target's cell cubic by a bracketed Newton
  iteration: a handful of vectorized steps, each one cubic evaluation
  per target still unconverged.
* Everything here is deterministic: fixed node tables, fixed split rules,
  no randomized pivoting.  Two runs on the same inputs produce bitwise
  identical results, which the CLI relies on for reproducible CSV output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
_GRADE_ULPS = 64           # finest graded panel, in ulps of the span's magnitude
_ROOT_MAX_ITER = 200
_INVERT_MAX_ITER = 100
_EPS = float(np.finfo(float).eps)


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


def _graded_edges(span, points):
    """Panel edges graded geometrically toward each point in the span: the
    point p itself and p -+ width 2^-k for k = 1, 2, ..., down to a step
    of _GRADE_ULPS ulps of the span's magnitude.

    Next to a point where the integrand has a layer (the slope's log-type
    layer at a stress zero, the quantile map's square root at a source
    end) adaptive bisection would reach it only one level per round.
    Each graded panel [p + s, p + 2s] sees the same shape on its own
    scale, so a single Gauss-Kronrod panel resolves it and the adaptive
    loop starts from the mesh bisection would have built.  Edges outside
    the span are left to the caller to drop.
    """
    lo, hi = span
    floor = _GRADE_ULPS * float(np.spacing(max(abs(lo), abs(hi))))
    levels = max(int(math.log2((hi - lo) / floor)), 0)
    steps = (hi - lo) * 0.5 ** np.arange(1, levels + 1)
    inside = [p for p in points if lo <= p <= hi]
    return np.concatenate([np.asarray(inside, dtype=float)]
                          + [p + side * steps for p in inside for side in (-1.0, 1.0)])


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


def _pchip_slopes(h, m):
    """Node derivatives of the Fritsch-Carlson monotone cubic, by scipy's
    `PchipInterpolator` rule: zero where the secant slopes m on either side
    differ in sign or one vanishes, else their weighted harmonic mean; at
    the two ends the three-point one-sided formula, set to zero when its
    sign differs from the end secant's and clamped to three times that
    secant when the two end secants differ in sign (Fritsch & Carlson,
    SIAM J. Numer. Anal. 17, 1980; Moler, Numerical Computing with MATLAB,
    ch. 3).  Two nodes give the line."""
    if h.size == 1:
        return np.concatenate([m, m])
    d = np.zeros(h.size + 1)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][inner] = 1.0 / whmean[inner]
    for end, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])),
                                  (-1, (h[-1], h[-2], m[-1], m[-2]))):
        de = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(de) != np.sign(m0):
            de = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(de) > 3.0 * abs(m0):
            de = 3.0 * m0
        d[end] = de
    return d


class MonotoneCubic:
    """Piecewise cubic Hermite interpolant with Fritsch-Carlson node
    derivatives (`_pchip_slopes`): monotone wherever the data are, so it
    never overshoots them.

    Each cell [x_k, x_k+1] holds its cubic in power form in s = y - x_k,
    c3 + c2 s + c1 s^2 + c0 s^3, built and summed as scipy's
    `PchipInterpolator` does.  Evaluation clamps y into [x_0, x_n].
    """

    def __init__(self, nodes, values):
        x = np.asarray(nodes, dtype=float)
        v = np.asarray(values, dtype=float)
        h = np.diff(x)
        m = np.diff(v) / h
        d = _pchip_slopes(h, m)
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.nodes = x
        self.coeffs = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], v[:-1]])

    def _cells(self, y):
        """Cell index and local coordinate of each (clamped) point."""
        x = self.nodes
        y = np.clip(np.asarray(y, dtype=float), x[0], x[-1])
        k = np.clip(np.searchsorted(x, y, side="right") - 1, 0, x.size - 2)
        return k, y - x[k]

    def _value(self, k, s):
        c0, c1, c2, c3 = self.coeffs[:, k]
        s2 = s * s
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)

    def _slope(self, k, s):
        c0, c1, c2, _ = self.coeffs[:, k]
        return c2 + 2.0 * c1 * s + 3.0 * c0 * (s * s)

    def __call__(self, y):
        out = self._value(*self._cells(y))
        return out if np.ndim(y) else float(out)

    def derivative(self, y):
        out = self._slope(*self._cells(y))
        return out if np.ndim(y) else float(out)


@dataclass
class MonotoneProfile:
    """A sampled monotone function with shape-preserving evaluation and a
    vectorized inverse (`invert_many`).

    Interpolation is the monotone cubic (`MonotoneCubic`), which cannot
    overshoot the node values, so evaluations stay inside
    [min(values), max(values)] and the inverse is well posed cell by cell.
    """

    nodes: np.ndarray
    values: np.ndarray
    increasing: bool = True
    _cubic: MonotoneCubic = field(default=None, repr=False, compare=False)

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
        self._cubic = MonotoneCubic(self.nodes, self.values)

    @property
    def range(self):
        lo = float(min(self.values[0], self.values[-1]))
        hi = float(max(self.values[0], self.values[-1]))
        return lo, hi

    def __call__(self, y):
        return self._cubic(y)

    def invert_many(self, targets):
        """Vectorized inverse, exact to the resolution of the nodes.

        Targets are clipped into the profile range.  A target equal to a
        node value returns that node: the first node of a flat run, and
        the last node for the far end of the range.  Any other target lies
        strictly between the values of one cell, found by `searchsorted`,
        and is the root of that cell's cubic (`_solve_cells`).
        Deterministic and array-safe, used by the transport maps.
        """
        t = np.clip(np.asarray(targets, dtype=float), *self.range)
        x, v = self.nodes, self.values
        sgn = 1.0 if self.increasing else -1.0
        k = np.searchsorted(sgn * v, sgn * t, side="left")
        out = np.where(v[k] == t, x[k], np.nan)
        out = np.where(t == v[-1], x[-1], out)
        open_ = np.flatnonzero(np.isnan(out))
        if open_.size:
            out.flat[open_] = self._solve_cells(k.flat[open_] - 1, t.flat[open_], sgn)
        return out if np.ndim(targets) else float(out)

    def _solve_cells(self, k, t, sgn):
        """Root in cell k of g = sgn (cubic - t), for targets strictly
        between the cell's node values (g < 0 at its left node).

        Newton's iteration, kept inside each target's sign-change bracket:
        a step that would leave the bracket, or that is more than half the
        step before the last one, becomes a bisection.  Only targets not
        yet converged iterate.  A target has converged when |g| <= eps |t|
        (the cubic meets the target to rounding), or when its step falls
        within one ulp of the cell's nodes; the point then returned must
        have |g| <= |g'| ulp + (|c1| + 3 |c0| h) ulp^2 + 8 eps (sum of the
        cubic's terms + |t|), the bound for a root within one ulp plus the
        cubic's rounding.  Raises MaxIterations when a target misses that
        bound or _INVERT_MAX_ITER steps pass.
        """
        cubic, x, v = self._cubic, self.nodes, self.values
        h = x[k + 1] - x[k]
        res = np.spacing(np.maximum(np.abs(x[k]), np.abs(x[k + 1])))
        # Start from the root of the cubic's quadratic Taylor model at the
        # cell end nearer in value; where the cubic leaves a node with zero
        # slope (the flat ends of a CDF) the root goes like a square root,
        # which a chord start would reach only by halvings.
        c0, c1, c2, _ = sgn * cubic.coeffs[:, k]
        near_left = 2.0 * (sgn * t) < sgn * (v[k] + v[k + 1])
        gap = np.where(near_left, sgn * (t - v[k]), sgn * (v[k + 1] - t))
        lin = np.where(near_left, c2, c2 + 2.0 * c1 * h + 3.0 * c0 * h * h)
        quad = np.where(near_left, c1, -(c1 + 3.0 * c0 * h))
        disc = np.sqrt(np.maximum(lin * lin + 4.0 * quad * gap, 0.0))
        with np.errstate(divide="ignore"):   # no slope, no curvature: clipped
            step = 2.0 * gap / (lin + disc)
        s = np.clip(np.where(near_left, step, h - step), 0.0, h)
        a, b, prev, last = np.zeros_like(h), h, h, h
        out = np.empty_like(t)
        live = np.arange(t.size)
        for _ in range(_INVERT_MAX_ITER):
            g = sgn * (cubic._value(k, s) - t)
            hit = np.abs(g) <= _EPS * np.abs(t)
            below = g < 0.0
            a = np.where(below, s, a)
            b = np.where(below, b, s)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = g / (sgn * cubic._slope(k, s))
            nxt = s - step
            newton = (a <= nxt) & (nxt <= b) & (np.abs(step) <= 0.5 * prev)
            nxt = np.where(newton, nxt, 0.5 * (a + b))
            prev, last = last, np.abs(nxt - s)
            s = np.where(hit, s, nxt)
            close = ~hit & (last <= res)
            if close.any():
                self._check_residual(k[close], s[close], t[close], res[close])
            done = hit | close
            if not done.any():
                continue
            out[live[done]] = x[k[done]] + s[done]
            keep = ~done
            live, k, t, s, a, b, prev, last, res = (
                arr[keep] for arr in (live, k, t, s, a, b, prev, last, res))
            if not live.size:
                return out
        raise MaxIterations(f"cubic inversion left {live.size} targets "
                            f"unconverged after {_INVERT_MAX_ITER} steps")

    def _check_residual(self, k, s, t, res):
        cubic = self._cubic
        c0, c1, c2, c3 = np.abs(cubic.coeffs[:, k])
        h = self.nodes[k + 1] - self.nodes[k]
        terms = c3 + c2 * s + c1 * s * s + c0 * s * s * s + np.abs(t)
        bound = (np.abs(cubic._slope(k, s)) * res + (c1 + 3.0 * c0 * h) * res * res
                 + 8.0 * _EPS * terms)
        residual = np.abs(cubic._value(k, s) - t)
        miss = ~(residual <= bound)
        if miss.any():
            i = int(np.argmax(miss))
            raise MaxIterations(f"cubic inversion stalled in cell {int(k[i])}: "
                                f"residual {residual[i]:.3e} above its bound "
                                f"{bound[i]:.3e}")


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
