"""Low-level numerical kernels: one adaptive quadrature pass (`_adaptive`),
on which the dual solver builds every integral it takes, and a solved
density and its mass fraction read off one pass's panels in depth
(`MonotoneProfile`), with a vectorized inverse exact panel by panel.
Nothing here knows a physical coordinate: the dual solver maps y to
depth and back.  numpy is the only dependency.

Design notes
------------
* Quadrature is a batched adaptive Gauss-Kronrod 15(7) scheme.  All panels
  that still need refinement are evaluated in a single vectorized call per
  round, so integrands must accept numpy arrays.  A round costs a fixed
  overhead whatever its size, so the number of rounds sets the time.
  Bisection reaches a singular point one level per round, and a log-type
  layer such as the slope's next to a stress zero would cost a round per
  level.  Callers that know such a point pass breakpoints graded
  geometrically toward it (`_graded_edges`), 64 ulps deep: the loop then
  starts from the mesh bisection would have built and finishes in one or
  two rounds.  The dual solver's pass (`duality._zero_residuals`), whose
  panels become the delivered density, grades so into each stress zero:
  46 levels on a support two wide.  Its row pass (`duality._row_pass`)
  has no such layer to grade: it integrates in l = ln lambda, where the
  slope's layer is a factor e^l.
  The depth cap of 60 levels, rather than the usual 20, still lets an
  integrand without graded breakpoints reach such a layer by bisection.
  A pass may hold at most 2^16 panels: a row asked for a tolerance below
  its rounding floor splits every noisy panel each round, and would grow
  geometrically long before any panel is 60 levels deep (QUADPACK bounds
  its subintervals the same way, by `limit`).
* An integrand may return a stack of rows from its one call per round.
  Every row is summed on the same panels, and refinement goes on until
  each row's error is within the tolerance relative to its own total, so
  integrals of one costly field (the dual solver's slope inversion) share
  a single pass: the solve's closure, mass and expectation rows, its two
  energy rows and its two Jacobian rows, or every row of the variational
  probes.
  A panel is split when it holds more than its share of any row's
  budget; for one row this is the usual rule.
* Running integrals at any number of points cost no integrand call: a
  pass hands back row 0's Kronrod samples, whose interpolants integrate
  once and twice in closed form (Greengard, SIAM J. Numer. Anal. 1991).
  The dual solver's last pass is its density's slope, so the density and
  the mass are those integrals at every point read, the sampled grid's
  nodes included: no second interpolant stands between the solve and the
  transport maps.
  Both are held per panel as Taylor rows in the panel's offset from its
  left edge, so a read at any number of points is one Horner sum.
  The mass fraction's inverse solves each target's panel polynomial by a
  bracketed Newton iteration: a handful of vectorized sweeps, each one
  Horner evaluation of every target, until the slowest one converges.  A
  target that settles keeps its w in the whole arrays, and the depths are
  written once, after the last sweep.
* Everything here is deterministic: fixed node tables, fixed split rules,
  no randomized pivoting.  Two runs on the same inputs produce bitwise
  identical results, which the CLI relies on for reproducible CSV output.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, MaxDepth, MaxIterations

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

_MAX_PANEL_DEPTH = 60
_MAX_PANELS = 2 ** 16      # panels one adaptive pass may hold
_GRADE_ULPS = 64           # finest graded panel, in ulps of the span's magnitude
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
    kron = half * (vals @ _WGK)
    return kron, np.abs(kron - half * (vals[..., _GAUSS_IDX] @ _WG)), vals[0]


def _graded_edges(span, points):
    """Panel edges graded geometrically toward each point in the span: the
    point p itself and p -+ width 2^-k for k = 1, 2, ..., down to a step of
    _GRADE_ULPS ulps of the span's magnitude.

    Next to a point where the integrand has a layer (the slope's log-type
    layer at a stress zero) adaptive bisection would reach it only one
    level per round.
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


def _sorted_unique(values):
    """The sorted distinct values of a 1-d float array without NaN, as
    np.unique returns them: a sort, then the first of each run of equal
    neighbours.  np.unique would import numpy.ma on its first call."""
    ordered = np.sort(values)
    keep = np.ones(ordered.size, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _adaptive(f, l, r, breakpoints, tol):
    """Shared refinement loop over [l, r], from the panels the breakpoints
    inside it cut.  f may return a stack of rows, all summed on the same
    panels: the loop refines until each row's error estimate is within
    tol * max(1, |row total|), splitting every panel that holds more than
    its share of any row's budget.  Raises DomainError, naming the row, as
    soon as a row's total or error estimate is NaN: no split compares with
    NaN, so refinement would never stop, and MaxDepth, naming the row
    still over its budget, when a panel to split is _MAX_PANEL_DEPTH
    levels deep or the split would leave more than _MAX_PANELS panels.
    Returns the sorted panel edges, the (rows, panels) Kronrod sums and
    row 0's (panels, 15) samples."""
    cuts = np.asarray(breakpoints, dtype=float).ravel()
    edges = _sorted_unique(np.concatenate([[l, r], cuts[(cuts > l) & (cuts < r)]]))
    a = edges[:-1].copy()
    b = edges[1:].copy()
    depth = np.zeros(a.size, dtype=int)
    kron, err, samples = _gk_panels(f, a, b)

    while True:
        totals, esum = kron.sum(axis=1), err.sum(axis=1)
        nan = np.isnan(totals) | np.isnan(esum)
        if nan.any():
            row = int(np.argmax(nan))
            k = int(np.argmax(np.isnan(kron[row]) | np.isnan(err[row])))
            raise DomainError(f"integrand row {row} is NaN on the panel "
                              f"[{a[k]!r}, {b[k]!r}]")
        target = tol * np.maximum(1.0, np.abs(totals))
        if np.all(esum <= target) or a.size == 0:
            break
        # Split every panel holding more than its share of any row's error
        # budget.
        split = np.any(err > target[:, None] / (2.0 * a.size), axis=0)
        worst = int(np.argmax(esum / target))
        if int(depth[split].max()) >= _MAX_PANEL_DEPTH:
            raise MaxDepth(
                f"adaptive quadrature exceeded {_MAX_PANEL_DEPTH} subdivision levels "
                f"(row {worst}: remaining error {esum[worst]:.3e}, "
                f"target {target[worst]:.3e})")
        if a.size + np.count_nonzero(split) > _MAX_PANELS:
            raise MaxDepth(
                f"adaptive quadrature would exceed {_MAX_PANELS} panels, from "
                f"{a.size} (row {worst}: remaining error {esum[worst]:.3e}, "
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


def _legendre(x):
    """P_0(x), ..., P_14(x) by the three-term recurrence."""
    p = [np.ones_like(x), x]
    for n in range(1, 14):
        p.append(((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1))
    return p


# Legendre coefficients (rows) of the interpolant of Kronrod samples (columns).
_KRONROD_TO_LEGENDRE = np.linalg.inv(np.transpose(_legendre(_XGK)))
# Weights (rows) of that interpolant's values at x = -1 and x = 1.
_KRONROD_ENDS = np.array([(-1.0) ** np.arange(15), np.ones(15)]) @ _KRONROD_TO_LEGENDRE


def _legendre_taylor(order):
    """Taylor coefficients at x = -1 of the order-fold integral of P_n from
    -1: row d, column n holds P_n^(d)(-1) / (d + order)!, the coefficient of
    (x + 1)^(d + order), where
    P_n^(d)(-1) = (-1)^(n - d) (n + d)! / (2^d d! (n - d)!)."""
    return np.array([[(-1) ** (n - d) * math.factorial(n + d)
                      / (2 ** d * math.factorial(d) * math.factorial(n - d)
                         * math.factorial(d + order)) if d <= n else 0.0
                      for n in range(15)] for d in range(15)])


# I_n and J_n, the single and double integrals of P_n from -1, in powers
# of w = x + 1.
_I_TAYLOR = _legendre_taylor(1)
_J_TAYLOR = _legendre_taylor(2)
# 2^j, the size of w^j at w = 2, for the rows of a panel's mass fraction
# (17) and of its density (16).
_POWERS_OF_TWO = 2.0 ** np.arange(17)


@functools.cache
def _bernstein(n):
    """Bernstein coefficients on w in [0, 2] (rows) of a degree-n polynomial
    from its coefficients in ascending powers of w (columns):
    b_i = sum over j <= i of C(i, j)/C(n, j) 2^j a_j.  Built on first use
    and shared, so read-only."""
    out = np.array([[math.comb(i, j) / math.comb(n, j) * 2.0 ** j if j <= i else 0.0
                     for j in range(n + 1)] for i in range(n + 1)])
    out.flags.writeable = False
    return out


def _running_sums(values):
    """0, then the running sums of the 1-d `values`, as np.cumsum adds them."""
    out = np.zeros(values.size + 1)
    np.cumsum(values, out=out[1:])
    return out


def _horner_at(rows, k, w):
    """Value at w of the polynomials whose coefficient rows, in ascending
    powers of w, are `rows`, each row read at the panels k."""
    value = rows[-1][k]
    for row in rows[-2::-1]:
        value *= w
        value += row[k]
    return value


def _horner(rows, w):
    """Value and derivative at w of the polynomials whose coefficient rows,
    in ascending powers of w, are `rows`."""
    value, slope = rows[-1].copy(), np.zeros_like(w)
    for row in rows[-2::-1]:
        slope *= w
        slope += value
        value *= w
        value += row
    return value, slope


class MonotoneProfile:
    """A solved density and its mass fraction in depth, read off one
    `_adaptive` pass, with a vectorized inverse (`invert_many`).

    Row 0 of the pass is the density's slope g in depth s.  Its running
    integral from the first edge is the density u, and the running integral
    of u is the mass M.  On each panel [a, a + 2 half], g is the degree-14
    interpolant of the 15 Kronrod samples, held by its Legendre coefficients
    c_n in x = (s - a)/half - 1, so both integrals are closed forms
    (Greengard, SIAM J. Numer. Anal. 1991):
        u = U_a + half sum c_n I_n(x),
        M = M_a + half (U_a (x + 1) + half sum c_n J_n(x)),
    with U_a and M_a their running values at the panel's left edge and I_n,
    J_n the single and double integrals of P_n from -1.  The Kronrod rule
    is exact for the interpolant, so U_a are the pass's running Kronrod
    sums and a left edge reads them with no rounding of its own.  Both are
    held per panel in ascending powers of w = x + 1, the density from
    `_I_TAYLOR` and the mass, over its total, from `_J_TAYLOR`, and read by
    Horner's rule, the mass for its fraction and that fraction's inverse
    alike.  A left edge, w = 0, reads U_a exactly.  Depths outside the pass
    raise ValueError.  The total mass, and its check, are taken at
    construction; the mass fraction's rows (`fractions`, `_taylor`,
    `_size`) on their first read, by `fraction` or `invert_many`, so a
    profile read only for its density never builds them.  Whether a
    panel's density reads nonnegative everywhere is certified from its
    Bernstein coefficients (`_positive_panels`).

    The pass's error control covers the interpolant: the |Kronrod - Gauss|
    estimate that accepted a panel measures g's distance from polynomials
    there, and the interpolant is within (1 + L) times that distance of g,
    L = 3.8 being the Lebesgue constant of the 15 Kronrod nodes: the
    estimate bounds every partial integral on the panel, up to L.  Next to
    a point where g is singular (a stress zero) the interpolant overshoots
    its samples, by up to 10% on the graded panels that end there, 64 ulps
    wide: a panel with one of the `singular` depths as an edge holds g's
    Kronrod mean c_0 alone.  That constant is a positive-weight average of
    the samples, so |g| stays within their range, and it keeps the panel's
    Kronrod sum; u moves by less than the panel's width times g's spread.
    """

    def __init__(self, edges, sums, samples, singular=()):
        edges, sums, samples = (np.asarray(a, dtype=float)
                                for a in (edges, sums, samples))
        if (edges.ndim != 1 or edges.size < 2
                or not ((gaps := edges[1:] - edges[:-1]) > 0.0).all()):
            raise ValueError("panel edges must be strictly increasing")
        if sums.shape != (edges.size - 1,) or samples.shape != (edges.size - 1, 15):
            raise ValueError("a pass has one sum and 15 samples per panel")
        self.edges, self.half = edges, 0.5 * gaps
        self.coeffs = _KRONROD_TO_LEGENDRE @ samples.T
        ends_at = np.zeros(edges.size, dtype=bool)
        for p in singular:
            ends_at |= edges == p
        self.coeffs[1:, ends_at[:-1] | ends_at[1:]] = 0.0
        self.edge_density = _running_sums(sums)
        # Each panel's density in ascending powers of w = x + 1.
        self._density = np.empty((1 + len(_I_TAYLOR), sums.size))
        self._density[0] = self.edge_density[:-1]
        np.multiply(self.half, _I_TAYLOR @ self.coeffs, out=self._density[1:])
        # A panel's mass is M at x = 1: J_0(1) = 2, J_1(1) = -2/3, others 0.
        self._mass = _running_sums(self.half * (
            2.0 * self.edge_density[:-1]
            + self.half * (2.0 * self.coeffs[0] - self.coeffs[1] / 1.5)))
        self.total = float(self._mass[-1])
        if not 0.0 < self.total < math.inf:
            raise ValueError(f"the profile's mass {self.total} is not positive")

    @functools.cached_property
    def fractions(self):
        """The running mass fraction at each edge, over the total."""
        return self._mass / self.total

    @functools.cached_property
    def _taylor(self):
        """Each panel's mass fraction in ascending powers of w = x + 1."""
        return np.vstack([self._mass[:-1], self.half * self.edge_density[:-1],
                          self.half ** 2 * (_J_TAYLOR @ self.coeffs)]) / self.total

    @functools.cached_property
    def _size(self):
        """The sum of each panel's `_taylor` term sizes over the panel, w <= 2."""
        return _POWERS_OF_TWO @ np.abs(self._taylor)

    def _positive_panels(self):
        """Whether each panel's density is certified nonnegative: True only
        where every Horner read of `density` inside the panel returns a
        value >= 0.

        On w in [0, 2] a polynomial is a convex combination of its
        Bernstein coefficients (`_bernstein`), so it is at least their
        least.  A panel is certified when that least, for its density p,
        exceeds 64 eps times the sum of the terms' sizes at w = 2; or when
        p's value at the left edge, p(0), is >= 0 and the same holds for
        q = (p - p(0))/w.  Horner's rule reads p as q(w) w + p(0), so a read
        of q above 0 gives a read of p at least p(0): this certifies the
        panel at the anchored edge, where the density rises from zero.
        The margin covers the rounding of the Bernstein coefficients (at
        most 17 roundings, under 8.5 eps of the sizes' sum), Horner's rule
        (30 roundings at degree 15, under 15 eps) and a w one ulp past 2
        (under 15 eps more)."""
        def certified(rows):
            size = _POWERS_OF_TWO[:len(rows)] @ np.abs(rows)
            return (_bernstein(len(rows) - 1) @ rows).min(axis=0) > 64.0 * _EPS * size

        rows = self._density
        return certified(rows) | ((rows[0] >= 0.0) & certified(rows[1:]))

    def _panels(self, s):
        """Panel index and w = x + 1 of each depth (the last edge in the
        last panel).  Raises ValueError, naming it, on a depth outside the
        pass or NaN."""
        lo, hi = float(self.edges[0]), float(self.edges[-1])
        outside = ~((s >= lo) & (s <= hi))
        if outside.any():
            raise ValueError(f"depth {float(s[outside][0])!r} lies outside the "
                             f"pass [{lo!r}, {hi!r}]")
        k = np.minimum(np.searchsorted(self.edges, s, side="right") - 1,
                       self.half.size - 1)
        return k, (s - self.edges[k]) / self.half[k]

    def density(self, s):
        """Density at depths s within the pass, the running integral of
        row 0 from the first edge."""
        s = np.asarray(s, dtype=float)
        k, w = self._panels(s)
        return np.where(s == self.edges[-1], self.edge_density[-1],
                        _horner_at(self._density, k, w))

    def fraction(self, s):
        """Mass between the first edge and depths s within the pass, over
        the total: 1 exactly at the last edge."""
        s = np.asarray(s, dtype=float)
        k, w = self._panels(s)
        return np.where(s == self.edges[-1], 1.0, _horner_at(self._taylor, k, w))

    def invert_many(self, fractions):
        """Depths where the mass fraction from the first edge reaches each
        of the 1-d `fractions`, exact to the pass's resolution.

        Fractions are clipped into [0, 1].  A fraction of 1 returns the
        last edge exactly, although the fractions may round to 1 a few
        panels before it; any other f equal to an edge's running fraction
        returns that edge, the first of a flat run.  Any other f lies
        strictly between the fractions of one panel's edges, found by
        `searchsorted`, and is the root of that panel's mass
        (`_solve_panels`), which keeps a settled target's w and writes the
        depths once: a target's depth does not depend on the other
        fractions of the call.  Deterministic and vectorized.  A NaN
        fraction raises ValueError.
        """
        f = np.clip(np.asarray(fractions, dtype=float), 0.0, 1.0)
        if np.isnan(f).any():
            raise ValueError(f"CDF target {int(np.argmax(np.isnan(f)))} is NaN")
        k = np.where(f == 1.0, self.edges.size - 1,
                     np.searchsorted(self.fractions, f, side="left"))
        s = self.edges[k]
        open_ = self.fractions[k] != f
        if open_.any():
            s[open_] = self._solve_panels(k[open_] - 1, f[open_])
        return s

    def _solve_panels(self, k, f):
        """Depth in panel k where the mass fraction reaches f, for f strictly
        between the fractions of the panel's edges.

        Newton's iteration in w = x + 1 on [0, 2], on the panel's mass
        fraction held in powers of w (Horner's rule gives value and slope),
        kept inside each target's sign-change bracket: a step that would
        leave the bracket, or that is more than half the step before the
        last one, becomes a bisection.  It starts from the root of the
        quadratic Taylor model at the left edge, which a CDF leaving a zero
        density follows like a square root.  Every sweep evaluates every
        target, the arrays kept whole: a target that settles keeps its w
        (`settled` masks it out of the tests, and each step copies its w
        back), and the loop ends once every target has settled.  The depths
        are written once, after it, as left + half w, or the right edge for
        a target stopped there.  A target has converged when its residual r
        meets |r| <= 2 eps f, or when the step that reached it fell within one
        ulp of the panel's depths; the point then returned must have
        |r| <= 2 |r'| ulp + 32 eps (sum of the polynomial's |terms| on the
        panel + f), the bound for a root within one ulp plus the rounding of
        Horner's rule.  A target whose Newton point is rejected at w >= 2
        stops at the right edge if the edge's running fraction is within
        2 eps f of it, where bisection would halve toward it once a sweep.
        Raises MaxIterations when a target misses that bound or
        _INVERT_MAX_ITER steps pass.
        """
        left, right, half, size = self.edges[k], self.edges[k + 1], self.half[k], self._size[k]
        tol = 2.0 * _EPS * f
        at_right = np.abs(self.fractions[k + 1] - f) <= tol
        near_right = bool(at_right.any())   # rare: other calls skip the edge test
        res = np.spacing(np.maximum(np.abs(left), np.abs(right))) / half
        rows = [row[k] for row in self._taylor]
        gap, lin, quad = f - rows[0], rows[1], rows[2]
        disc = np.sqrt(np.maximum(lin * lin + 4.0 * quad * gap, 0.0))
        a, b = np.zeros_like(f), np.full_like(f, 2.0)
        prev = last = 2.0
        settled = np.zeros(f.size, dtype=bool)
        stopped = np.zeros(f.size, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):   # no slope: bisected
            w = np.clip(2.0 * gap / (lin + disc), 0.0, 2.0)
            for _ in range(_INVERT_MAX_ITER):
                value, slope = _horner(rows, w)
                r = value - f
                settled |= np.abs(r) <= tol
                close = (last <= res) & ~settled
                if close.any():
                    bound = 2.0 * np.abs(slope) * res + 32.0 * _EPS * (size + f)
                    miss = close & ~(np.abs(r) <= bound)
                    if miss.any():
                        i = int(np.argmax(miss))
                        raise MaxIterations(
                            f"panel inversion stalled in panel {int(k[i])}: "
                            f"residual {abs(r[i]):.3e} above its bound {bound[i]:.3e}")
                    settled |= close
                if settled.all():
                    break
                below = r < 0.0
                np.copyto(a, w, where=below)
                np.copyto(b, w, where=~below)
                step = r / slope
                nxt = w - step
                newton = (a <= nxt) & (nxt <= b) & (np.abs(step) <= 0.5 * prev)
                if near_right:
                    edge = ~settled & ~newton & (nxt >= 2.0) & at_right
                    stopped |= edge
                    settled |= edge
                    if settled.all():
                        break
                nxt = np.where(newton, nxt, 0.5 * (a + b))
                prev, last = last, np.abs(nxt - w)
                np.copyto(nxt, w, where=settled)
                w = nxt
            else:
                raise MaxIterations(f"panel inversion left {int((~settled).sum())} targets "
                                    f"unconverged after {_INVERT_MAX_ITER} steps")
        return np.where(stopped, right, left + half * w)
