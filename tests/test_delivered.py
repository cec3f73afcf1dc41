"""The delivered objects (the density a solution evaluates to, the target
CDF and the transport maps) against an exact reference built from the
solve's own slope, and the shape the solve's panels give them."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import legder, legroots, legval

from monge1d.duality import (_depth_grid, _depth_pass, _invert_stress_sq, _solve_zeros,
                              _support_of)
from monge1d.numerics import _graded_edges
from monge1d.oracles import mirror_transform
from monge1d.problem import uniform_spec
from monge1d.transport import build_map
from reference_quadrature import integrate
from reference_solves import solve_root

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
_REFERENCE_TOL = 1e-15


def _depth_integral(fn, zeros, span, alpha, epsilon):
    """Integrals over any depth span of the rows fn(s, l, du/ds) of the
    depth stress (s - z)(s - c)/2, on panels graded toward its zeros, to
    the reference tolerance.  A zero-width span, as a query at a grid node
    gives, integrates to zeros."""
    z, c = zeros

    def rows(s):
        theta = 0.5 * (s - z) * (s - c)
        l, u = _invert_stress_sq(theta * theta, alpha, epsilon)
        return fn(s, l, np.copysign(np.sqrt(u), theta))

    return integrate(rows, *span, _REFERENCE_TOL, breakpoints=_graded_edges(span, zeros))


def exact_nodes(sol, grid_n):
    """The solution's nodal values and an exact reference's nodal values
    and cell masses, in depth order, on the solution's own depth grid
    (rebuilt from the solve, since depths mapped back from y lose their
    last bits).

    The reference is one pass of the depth integrand at tolerance 1e-15
    with every grid node a panel edge, rows du/ds and (s_i+1 - s) du/ds:
    the running sums of its panel sums are the integrals of the slope from
    0 to each node's depth, and each cell's are the moment of its mass,
    h u_i + integral of (s_i+1 - s) du/ds.  No interpolant enters it.
    """
    spec = sol.spec
    solved = _solve_zeros(spec, sol.epsilon)
    span = _support_of(solved.zeros[0], spec)
    depths = _depth_grid(span, solved.zeros[1], grid_n)
    step = -1 if spec.orientation > 0 else 1        # ascending depth
    assert np.array_equal(spec.anchor - spec.orientation * depths[:-1],
                          sol.support_nodes[::step][:-1])
    deeper = lambda s: depths[np.minimum(np.searchsorted(depths, s),
                                         depths.size - 1)]
    edges, sums, _ = _depth_pass(lambda s, l, g: (g, (deeper(s) - s) * g), solved.zeros,
                                 span[1], spec.alpha, sol.epsilon, _REFERENCE_TOL,
                                 density=True, cuts=depths)
    cell = np.searchsorted(depths, edges[:-1], side="right") - 1
    rise, moment = (np.bincount(cell, row, depths.size - 1) for row in sums)
    values = np.concatenate([[0.0], np.cumsum(rise)])
    support_values = sol.values[sol.support_slice]
    return support_values[::step], values, np.diff(depths) * values[:-1] + moment


def exact_running(sol, grid_n):
    """The exact reference's nodal values and running masses from the lower
    support end, in ascending y (`exact_nodes`).  The running masses are
    summed exactly and rounded once: a plain cumulative sum over the 2,000
    cells rounds at each one, and is itself up to 1.1e-15 off at eps 1e-2."""
    _, values, masses = exact_nodes(sol, grid_n)
    step = -1 if sol.spec.orientation > 0 else 1
    running = itertools.accumulate(map(Fraction, masses[::step]), initial=Fraction(0))
    return values[::step], np.array([float(m) for m in running])


def exact_reference(sol, ys, running):
    """Density u(y) and CDF F(y) at support points ys, exact to the
    quadrature tolerance 1e-15.

    From the exact nodal value u_i at the left node x_i of y's cell
    (`exact_running`), in depths s = orientation (anchor - y) with n the
    node's depth and q the point's: u(y) = u_i + integral of du/ds from n
    to q, and the partial cell's mass is (q - n) u_i + integral of
    (q - s) du/ds from n to q (dy = -orientation ds), added to the exact
    running mass at x_i and divided by the exact total.
    """
    spec = sol.spec
    o, anchor = spec.orientation, spec.anchor
    x, (u, cum) = sol.support_nodes, running
    zeros = tuple(o * (anchor - p) for p in sol.dual.zeros)
    cells = np.clip(np.searchsorted(x, ys, side="right") - 1, 0, x.size - 2)
    density, cdf = [], []
    for y, i in zip(np.asarray(ys, dtype=float), cells):
        n, q = o * (anchor - x[i]), o * (anchor - y)
        rise, moment = _depth_integral(
            lambda s, l, g: (g, (q - s) * g), zeros, sorted((n, q)),
            spec.alpha, sol.epsilon)
        if q < n:
            rise, moment = -rise, -moment
        density.append(u[i] + rise)
        cdf.append((cum[i] - o * ((q - n) * u[i] + moment)) / cum[-1])
    return np.array(density), np.array(cdf)


def exact_quantile(sol, t, running, tol=1e-16):
    """The point where the exact reference CDF reaches t, to |F - t| <= tol."""
    x, cum = sol.support_nodes, running[1]
    k = min(max(int(np.searchsorted(cum / cum[-1], t)), 1), x.size - 1)
    return solve_root(lambda y: exact_reference(sol, [y], running)[1][0] - t,
                      x[k - 1], x[k], tol=tol)


def _probe(sol, per_cell=16):
    """A uniform probe of the support plus dense points in the cells on
    either side of the crossing (the density's kink) and in both end cells."""
    x = sol.support_nodes
    k = int(np.searchsorted(x, sol.crossing))
    dense = [np.linspace(x[i], x[i + 1], per_cell + 2)[1:-1]
             for i in (0, k - 2, k - 1, k, k + 1, x.size - 2)]
    return np.concatenate([np.linspace(x[0], x[-1], 201)] + dense)


def _canonical(alpha, assumption):
    spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
    return spec if assumption == "I" else mirror_transform(spec)


_CANONICAL = [(alpha, eps, assumption) for alpha in (1.0, 4.0)
              for eps in (1e-2, 1e-3) for assumption in ("I", "II")]


class TestAgainstTheExactReference:
    """The delivered density and CDF are the solved ones to rounding: they
    are read off the solve's panels in closed form, with no interpolant
    across the crossing's kink or the free endpoint's log layer."""

    @pytest.mark.parametrize("grid_n", [2001, 201])
    @pytest.mark.parametrize("alpha,eps,assumption", _CANONICAL)
    def test_density_and_cdf(self, solved, alpha, eps, assumption, grid_n):
        sol = solved(_canonical(alpha, assumption), eps, grid_n)
        ys = _probe(sol)
        density, cdf = exact_reference(sol, ys, exact_running(sol, grid_n))
        # The assembly pins the density to 0 at both support ends, where
        # the closing one holds the boundary gap.
        inside = (ys > sol.support[0]) & (ys < sol.support[1])
        assert np.max(np.abs(sol(ys) - density)[inside]) <= 1e-14
        assert np.max(np.abs(sol.cdf(ys) - cdf)) <= 1e-14

    def test_reference_meets_the_nodes(self, solved):
        # At a node the reference integrates nothing: it reads the exact
        # nodal values and running masses, which the solution's nodal
        # values and CDF meet; the last node closes the last cell.
        sol = solved(SPEC_I, 1e-2)
        x = sol.support_nodes
        running = exact_running(sol, 2001)
        density, cdf = exact_reference(sol, x, running)
        assert np.array_equal(density[:-1], running[0][:-1])
        assert np.array_equal(cdf[:-1], running[1][:-1] / running[1][-1])
        assert np.max(np.abs(density[1:] - sol.values[sol.support_slice][1:])) <= 1e-14
        assert np.max(np.abs(cdf - sol.cdf(x))) <= 1e-15
        assert abs(density[-1]) <= 1e-15 and abs(density[0] - sol.boundary_gap) <= 1e-14
        assert abs(cdf[-1] - 1.0) <= 1e-15

    @pytest.mark.parametrize("alpha,eps,assumption", _CANONICAL)
    def test_map_next_to_the_free_endpoint(self, solved, alpha, eps, assumption):
        # 3e-7 inside the source end that the increasing map sends to the
        # free endpoint, where the quantile leaves it like a square root
        # through the slope's log layer.
        sol = solved(_canonical(alpha, assumption), eps)
        x = 6.0 + 3e-7 if assumption == "I" else -6.0 - 3e-7
        t = float(sol.spec.source_density.cdf(x))
        mapped = build_map(sol.spec, sol, "increasing").map(x)
        exact = exact_quantile(sol, t, exact_running(sol, 2001))
        assert abs(mapped - exact) <= 1e-11

    @pytest.mark.parametrize("ulps", [1, 4, 16])
    @pytest.mark.parametrize("alpha,eps,assumption", _CANONICAL)
    def test_map_a_few_ulps_inside_the_source_end(self, solved, alpha, eps,
                                                  assumption, ulps):
        # A few ulps inside that source end t is a few 1e-16 from 0 (from 1
        # under assumption II).  The CDF under assumption I is 1 minus the
        # mass fraction from the anchor, so that a mirrored pair mirrors
        # bit for bit: in either orientation the inverse meets t to the
        # absolute precision of numbers next to 1, its residual bound
        # 2 eps.  The map then lies within about 1e-8 of the exact
        # quantile, where the CDF grows like the square of the distance
        # from the free endpoint.
        sol = solved(_canonical(alpha, assumption), eps)
        x = 6.0 + ulps * np.spacing(6.0)
        x = x if assumption == "I" else -x
        t = float(sol.spec.source_density.cdf(x))
        mapped = build_map(sol.spec, sol, "increasing").map(x)
        running = exact_running(sol, 2001)
        residual = exact_reference(sol, [mapped], running)[1][0] - t
        assert abs(residual) <= 2 * np.finfo(float).eps
        if assumption == "I":       # the reference keeps t's relative precision
            exact = exact_quantile(sol, t, running, tol=1e-4 * t)
            assert abs(mapped - exact) <= 1e-8


def _width_spec(alpha, width):
    """Target [0, width], source 0.5 beyond it."""
    return uniform_spec((width + 0.5, width + 2.5), (0.0, width), "I", alpha)


_REGIMES = [(alpha, eps, factor) for alpha in (0.5, 1.0, 4.0)
            for eps in (1e-1, 1e-3, 1e-6) for factor in (2.0, 5.0)]


class TestDeliveredShape:
    """The density read off the solve's panels: its mass is the CDF's
    total, it stays nonnegative and its slope stays at the solved one,
    from the capacity width 2/sqrt(alpha) to 5/sqrt(alpha)."""

    @pytest.mark.parametrize("alpha,eps,factor", _REGIMES)
    def test_mass_slope_and_sign(self, solved, alpha, eps, factor):
        sol = solved(_width_spec(alpha, factor / math.sqrt(alpha)), eps)
        profile = sol.cdf
        # The density is a polynomial of degree 15 on each panel: one
        # Gauss-Kronrod panel per panel integrates it to rounding.
        panels = profile.anchor - profile.orientation * profile.edges
        mass = integrate(sol, *sol.support, tol=1e-15, breakpoints=panels)
        assert mass == pytest.approx(profile.total, abs=1e-14)
        assert profile.total == pytest.approx(sol.mass, abs=1e-14)
        # On each panel the slope is the Legendre series of its coefficients.
        # Its extremes, and the density's minimum, lie at the panel's ends
        # or at real roots of their derivatives: both are read at the real
        # part of every computed root, clipped into the panel, and at 33
        # even points.
        even = np.linspace(-1.0, 1.0, 33)
        steepest, lowest = 0.0, math.inf
        for a, half, c in zip(profile.edges, profile.half, profile.coeffs.T):
            at = np.clip(np.concatenate([even, legroots(legder(c)).real]), -1.0, 1.0)
            steepest = max(steepest, float(np.max(np.abs(legval(at, c)))))
            at = np.clip(np.concatenate([even, legroots(c).real]), -1.0, 1.0)
            lowest = min(lowest, float(np.min(profile.density(a + half * (at + 1.0)))))
        assert steepest <= sol.max_abs_slope * (1.0 + 1e-6)
        assert lowest >= -1e-15 * np.max(sol.values)


@pytest.mark.parametrize("grid_n", [201, 2001])
@pytest.mark.parametrize("assumption", ["I", "II"])
@pytest.mark.parametrize("alpha,eps,factor", _REGIMES)
def test_nodes_and_cells_are_exact(solved, alpha, eps, factor, assumption,
                                   grid_n):
    # The nodal values read off the solve's panels, and the masses its CDF
    # gives the cells, meet an exact depth reference; the last value,
    # pinned to 0, as the boundary gap.
    spec = _width_spec(alpha, factor / math.sqrt(alpha))
    if assumption == "II":
        spec = mirror_transform(spec)
    sol = solved(spec, eps, grid_n)
    u, values, exact = exact_nodes(sol, grid_n)
    assert np.max(np.abs(u[:-1] - values[:-1])) <= 1e-14
    assert abs(sol.boundary_gap - values[-1]) <= 1e-14
    profile = sol.cdf
    nodes = sol.support_nodes[::-1 if spec.orientation > 0 else 1]
    masses = profile.total * np.diff(profile.fraction(profile.depth(nodes)))
    assert np.max(np.abs(masses - exact)) <= 1e-15
    assert sol.clip_depth == 0.0


@pytest.mark.parametrize("assumption", ["I", "II"])
@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_nodes_are_the_nodal_values(solved, assumption, eps):
    # The density meets the assembled values at the nodes, within 2 ulps
    # of the peak, and peaks at the crossing.
    sol = solved(_canonical(1.0, assumption), eps)
    u = sol.values[sol.support_slice]
    ulps = 2 * np.spacing(u.max())
    assert np.max(np.abs(sol(sol.support_nodes) - u)) <= ulps
    assert abs(sol(sol.crossing) - u.max()) <= ulps
