"""Low-level numerical kernels: adaptive quadrature with running integrals
read off its panels, monotone profiles held as cubic Hermite interpolants
of given node values and slopes, with a vectorized inverse exact cell by
cell, and a bracketed root solve to a residual tolerance (the reference
solves of `duality`).  numpy is the only dependency.

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
* An integrand may return a stack of rows from its one call per round.
  Every row is summed on the same panels, and refinement goes on until
  each row's error is within the tolerance relative to its own total, so
  integrals of one costly field (the dual solver's slope inversion) share
  a single pass: the solve's closure, mass and expectation, the three
  energies of a solved pair, or every row of the variational probes.
  A panel is split when it holds more than its share of any row's
  budget; for one row this is the usual rule.
* Running integrals at any number of points cost no integrand call: a
  pass hands back row 0's Kronrod samples, whose interpolants integrate in
  closed form (`_panel_cumulative`; Greengard, SIAM J. Numer. Anal. 1991).
* A profile's node slopes are data, not a rule such as the Fritsch-Carlson
  PCHIP's: the solved target CDF passes the exact nodal density, so the
  cubic's derivative is a density that meets the nodal values and the
  exact cell masses at once.  The cubic stores power-form coefficients
  per cell, those of scipy's `CubicHermiteSpline` (the tests hold scipy
  as the reference, to 1e-14).  Its inverse solves each target's cell
  cubic by a bracketed Newton iteration: a handful of vectorized steps,
  each one cubic evaluation per target still unconverged.
* Everything here is deterministic: fixed node tables, fixed split rules,
  no randomized pivoting.  Two runs on the same inputs produce bitwise
  identical results, which the CLI relies on for reproducible CSV output.
"""

from __future__ import annotations

import math

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


def _gk_panels(f, a, b):
    """Kronrod estimates of every row of the stacked integrand f on each
    panel [a[i], b[i]], each row's error estimate |Kronrod - Gauss| and
    the 15 samples of row 0, from one vectorized call.  f maps a flat node
    array to one row of values or a stack of rows."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(-1, *nodes.shape)
    kron = np.stack([half * (v @ _WGK) for v in vals])
    gauss = np.stack([half * (v[:, _GAUSS_IDX] @ _WG) for v in vals])
    return kron, np.abs(kron - gauss), vals[0]


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
    the span are left to the caller to drop.  An empty span has none.
    """
    lo, hi = span
    if not lo < hi:
        return np.empty(0)
    floor = _GRADE_ULPS * float(np.spacing(max(abs(lo), abs(hi))))
    levels = max(int(math.log2((hi - lo) / floor)), 0)
    steps = (hi - lo) * 0.5 ** np.arange(1, levels + 1)
    inside = [p for p in points if lo <= p <= hi]
    return np.concatenate([np.asarray(inside, dtype=float)]
                          + [p + side * steps for p in inside for side in (-1.0, 1.0)])


def _adaptive(f, l, r, breakpoints, tol, max_depth):
    """Shared refinement loop over [l, r], from the panels the breakpoints
    inside it cut.  f may return a stack of rows, all summed on the same
    panels: the loop refines until each row's error estimate is within
    tol * max(1, |row total|), splitting every panel that holds more than
    its share of any row's budget.  Returns the sorted panel edges, the
    (rows, panels) Kronrod sums and row 0's (panels, 15) samples."""
    cuts = np.asarray(breakpoints, dtype=float).ravel()
    edges = np.unique(np.concatenate([[l, r], cuts[(cuts > l) & (cuts < r)]]))
    a = edges[:-1].copy()
    b = edges[1:].copy()
    depth = np.zeros(a.size, dtype=int)
    kron, err, samples = _gk_panels(f, a, b)

    while True:
        target = np.array([tol * max(1.0, abs(float(np.sum(k)))) for k in kron])
        esum = np.array([float(np.sum(e)) for e in err])
        if np.all(esum <= target) or a.size == 0:
            break
        # Split every panel holding more than its share of any row's error
        # budget; always split at least the worst panel of the row furthest
        # over budget, so the loop makes progress.
        split = np.any(err > target[:, None] / (2.0 * a.size), axis=0)
        worst = int(np.argmax(esum / target))
        if not split.any():
            split = np.zeros(a.size, dtype=bool)
            split[int(np.argmax(err[worst]))] = True
        if int(depth[split].max()) >= max_depth:
            raise MaxDepth(
                f"adaptive quadrature exceeded {max_depth} subdivision levels "
                f"(row {worst}: remaining error {esum[worst]:.3e}, "
                f"target {target[worst]:.3e})")
        keep = ~split
        mids = 0.5 * (a[split] + b[split])
        lo, hi = np.concatenate([a[split], mids]), np.concatenate([mids, b[split]])
        k2, e2, s2 = _gk_panels(f, lo, hi)
        a, b = np.concatenate([a[keep], lo]), np.concatenate([b[keep], hi])
        depth = np.concatenate([depth[keep], depth[split] + 1, depth[split] + 1])
        kron = np.concatenate([kron[:, keep], k2], axis=1)
        err = np.concatenate([err[:, keep], e2], axis=1)
        samples = np.concatenate([samples[keep], s2])

    order = np.argsort(a)   # split halves share their midpoint: the panels tile
    return np.append(a[order], b[order[-1]]), kron[:, order], samples[order]


def integrate(f, l, r, tol=_DEFAULT_TOL, *, breakpoints=(), max_depth=_MAX_PANEL_DEPTH):
    """Integral of a vectorized integrand over [l, r], or the array of row
    integrals of one that returns a stack of rows.

    The absolute error of every row is driven below
    tol * max(1, |that row's result|).  Known
    interior kinks can be passed as `breakpoints`; points outside (l, r)
    are ignored.  An empty span gives a zero per row.  Raises MaxDepth,
    naming the row still over its budget, when refinement stalls.

    Like any sampling-based adaptive rule, refinement is triggered by
    disagreement between the embedded estimates: a feature narrow enough to
    hide between all 15 nodes of its panel with no footprint on either side
    (an isolated spike on a zero background) is invisible.  Steep but
    jump-like transitions, the shape this package produces, are resolved
    because their plateaus shift the coarse estimates.
    """
    l, r = float(l), float(r)
    if r < l:
        raise ValueError("integrate expects l <= r")
    if r == l:
        rows = np.asarray(f(np.empty(0)), dtype=float)
        out = np.zeros(rows.shape[0] if rows.ndim > 1 else 1)
    else:               # the panels summed one after another, ascending
        out = np.cumsum(_adaptive(f, l, r, breakpoints, tol, max_depth)[1],
                        axis=1)[:, -1]
    return float(out[0]) if out.size == 1 else out


def _legendre_integrals(x):
    """Lists of P_n(x) and its integrals from -1, I_n = (P_n+1 - P_n-1)/(2n + 1)
    and J_n = (I_n+1 - I_n-1)/(2n + 1), with I_0 = x + 1, J_0 = (x + 1)^2/2.
    The recurrence gives P_n(-1) = (-1)^n exactly: I_n, J_n read 0 there."""
    p = [np.ones_like(x), x]
    for n in range(1, 16):
        p.append(((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1))
    i = [x + 1.0] + [(p[n + 1] - p[n - 1]) / (2 * n + 1) for n in range(1, 16)]
    j = [(x + 1.0) ** 2 / 2] + [(i[n + 1] - i[n - 1]) / (2 * n + 1) for n in range(1, 15)]
    return p, i, j


# Legendre coefficients (rows) of the interpolant of Kronrod samples (columns).
_KRONROD_TO_LEGENDRE = np.linalg.inv(np.transpose(_legendre_integrals(_XGK)[0][:15]))


def _panel_cumulative(edges, sums, samples, t):
    """Running integrals of an `_adaptive` pass's row 0 f at sorted points
    t_i in [edges[0], edges[-1]]: from edges[0] to each t_i, and the moment
    integral of (t_i+1 - s) f(s) ds over each [t_i, t_i+1].

    Each panel's f is its degree-14 interpolant through the 15 Kronrod
    samples, in Legendre form, integrated in closed form.  The Kronrod rule
    is exact for it, so a point reads the running Kronrod sum of the panels
    before its own plus the interpolant's integral up to it: exactly that
    running sum on a panel's left edge.

    The pass's error control covers the interpolant: the |Kronrod - Gauss|
    estimate that accepted a panel measures f's distance from polynomials
    there, and the interpolant is within (1 + L) times that distance of f,
    L = 3.8 being the Lebesgue constant of the 15 Kronrod nodes: the
    estimate bounds every partial integral on the panel, up to L.
    """
    a, half = edges[:-1], 0.5 * np.diff(edges)
    coeffs = _KRONROD_TO_LEGENDRE @ samples.T
    cuts = np.union1d(t, edges[(edges > t[0]) & (edges < t[-1])])
    # Each cut in the panel it starts (the last edge in the last panel).
    k = np.minimum(np.searchsorted(edges, cuts, side="right") - 1, sums.size - 1)
    x = (cuts - a[k]) / half[k] - 1.0
    c, (_, once, twice) = coeffs[:, k], _legendre_integrals(x)
    once, twice = (sum(c[n] * v[n] for n in range(15)) for v in (once, twice))
    running = np.concatenate([[0.0], np.cumsum(sums)])
    value = np.where(cuts == edges[-1], running[-1], running[k] + half[k] * once)
    # A piece [p, q] between consecutive cuts lies in the panel of p, where
    # q reads as the next cut does or, if that starts the next panel, at
    # x = 1 (J_0 = 2, J_1 = -2/3, all others 0).
    kp, same = k[:-1], k[1:] == k[:-1]
    xq = np.where(same, x[1:], 1.0)
    twice_q = np.where(same, twice[1:], 2.0 * coeffs[0, kp] - coeffs[1, kp] / 1.5)
    moment = half[kp] ** 2 * (twice_q - twice[:-1] - (xq - x[:-1]) * once[:-1])
    start = np.searchsorted(cuts, t)
    closing = t[np.searchsorted(t, cuts[1:])]
    return value[start], np.add.reduceat(
        moment + (closing - cuts[1:]) * np.diff(value), start[:-1])


class MonotoneProfile:
    """A nondecreasing function held as the piecewise cubic Hermite
    interpolant of its node values and node slopes, with a vectorized
    inverse (`invert_many`).

    The slopes are data, not a rule: a caller that knows the derivative at
    the nodes (the target CDF's density) passes it, and the cubic's
    derivative then meets it exactly at every node.  A cell's cubic is
    nondecreasing when its two slopes are at most three times its secant
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980), as they are for a
    density's CDF on a grid that resolves it; the inverse needs only the
    node values to bracket each target.  Each cell [x_k, x_k+1] holds its
    cubic in power form in s = y - x_k, c3 + c2 s + c1 s^2 + c0 s^3, with
    the coefficients of scipy's `CubicHermiteSpline`.  Evaluation clamps
    y into [x_0, x_n].
    """

    def __init__(self, nodes, values, slopes):
        x, v, d = (np.asarray(a, dtype=float) for a in (nodes, values, slopes))
        if x.ndim != 1 or x.size < 2:
            raise ValueError("profile needs at least two nodes")
        if x.shape != v.shape or x.shape != d.shape:
            raise ValueError("nodes, values and slopes must have matching shapes")
        if not np.all(np.diff(x) > 0):
            raise ValueError("profile nodes must be strictly increasing")
        if np.any(np.diff(v) < -1e-30):
            raise ValueError("values are not nondecreasing")
        if not np.all(d >= 0.0):
            raise ValueError("slopes are not nonnegative")
        h = np.diff(x)
        m = np.diff(v) / h
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.nodes, self.values = x, v
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

    @property
    def range(self):
        return float(self.values[0]), float(self.values[-1])

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
        k = np.searchsorted(v, t, side="left")
        out = np.where(v[k] == t, x[k], np.nan)
        out = np.where(t == v[-1], x[-1], out)
        open_ = np.flatnonzero(np.isnan(out))
        if open_.size:
            out.flat[open_] = self._solve_cells(k.flat[open_] - 1,
                                                t.flat[open_])
        return out if np.ndim(targets) else float(out)

    def _solve_cells(self, k, t):
        """Root in cell k of g = cubic - t, for targets strictly
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
        x, v = self.nodes, self.values
        h = x[k + 1] - x[k]
        res = np.spacing(np.maximum(np.abs(x[k]), np.abs(x[k + 1])))
        # Start from the root of the cubic's quadratic Taylor model at the
        # cell end nearer in value; where the cubic leaves a node with zero
        # slope (the flat ends of a CDF) the root goes like a square root,
        # which a chord start would reach only by halvings.
        c0, c1, c2, _ = self.coeffs[:, k]
        near_left = 2.0 * t < v[k] + v[k + 1]
        gap = np.where(near_left, t - v[k], v[k + 1] - t)
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
            g = self._value(k, s) - t
            hit = np.abs(g) <= _EPS * np.abs(t)
            below = g < 0.0
            a = np.where(below, s, a)
            b = np.where(below, b, s)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = g / self._slope(k, s)
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
        c0, c1, c2, c3 = np.abs(self.coeffs[:, k])
        h = self.nodes[k + 1] - self.nodes[k]
        terms = c3 + c2 * s + c1 * s * s + c0 * s * s * s + np.abs(t)
        bound = (np.abs(self._slope(k, s)) * res + (c1 + 3.0 * c0 * h) * res * res
                 + 8.0 * _EPS * terms)
        residual = np.abs(self._value(k, s) - t)
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
