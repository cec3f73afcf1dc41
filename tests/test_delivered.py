"""The delivered objects (the density a solution evaluates to, the target
CDF and the transport maps) against an exact reference built from the
solve's own slope, and the shape the one Hermite cubic gives them."""

import math

import numpy as np
import pytest

from monge1d.duality import (_MASS_TOL, _depth_grid, _depth_integral, _depth_rows,
                              _solve_zeros, _support_of)
from monge1d.numerics import _adaptive, _graded_edges, integrate, solve_root
from monge1d.oracles import mirror_transform
from monge1d.problem import uniform_spec
from monge1d.transport import build_map, target_cdf

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
_REFERENCE_TOL = 1e-15


def exact_reference(sol, ys):
    """Density u(y) and CDF F(y) at support points ys, exact to the
    quadrature tolerance 1e-15.

    From the nodal value u_i at the left node x_i of y's cell, in depths
    s = orientation (anchor - y) with n the node's depth and q the
    point's: u(y) = u_i + integral of du/ds from n to q, and the partial
    cell's mass is (q - n) u_i + integral of (q - s) du/ds from n to q
    (dy = -orientation ds), added to the running sum of the exact cell
    masses and divided by their total, as the solution's CDF is.
    """
    spec = sol.spec
    o, anchor = spec.orientation, spec.anchor
    x, u = sol.support_nodes, sol.support_values
    cum = np.concatenate([[0.0], np.cumsum(sol.cell_masses)])
    zeros = tuple(o * (anchor - p) for p in sol.dual.zeros)
    cells = np.clip(np.searchsorted(x, ys, side="right") - 1, 0, x.size - 2)
    density, cdf = [], []
    for y, i in zip(np.asarray(ys, dtype=float), cells):
        n, q = o * (anchor - x[i]), o * (anchor - y)
        rise, moment = _depth_integral(
            lambda s, l, g: (g, (q - s) * g), zeros, sorted((n, q)),
            spec.alpha, sol.epsilon, _REFERENCE_TOL)
        if q < n:
            rise, moment = -rise, -moment
        density.append(u[i] + rise)
        cdf.append((cum[i] - o * ((q - n) * u[i] + moment)) / cum[-1])
    return np.array(density), np.array(cdf)


def exact_nodes(sol, grid_n):
    """Nodal values and cell masses in depth order, the solution's and an
    exact reference's, on the solution's own depth grid (rebuilt from the
    solve, since depths mapped back from y lose their last bits).

    The reference is one pass of the depth integrand at tolerance 1e-15
    with every grid node a panel edge, rows du/ds and (s_i+1 - s) du/ds:
    the running sums of its panel sums are the integrals of the slope from
    0 to each node's depth, and each cell's are the moment of its mass,
    h u_i + integral of (s_i+1 - s) du/ds, taken from the solution's u_i.
    No interpolant enters it.
    """
    spec = sol.spec
    solved = _solve_zeros(spec, sol.epsilon, _MASS_TOL, 0.01 * _MASS_TOL, 1e-12)
    span = _support_of(solved.zeros[0], spec)
    depths = _depth_grid(span, solved.zeros[1], grid_n)
    step = -1 if spec.orientation > 0 else 1        # ascending depth
    u, masses = sol.support_values[::step], sol.cell_masses[::step]
    assert np.array_equal(spec.anchor - spec.orientation * depths[:-1],
                          sol.support_nodes[::step][:-1])
    deeper = lambda s: depths[np.minimum(np.searchsorted(depths, s),
                                         depths.size - 1)]
    edges, sums, _ = _adaptive(
        _depth_rows(lambda s, l, g: (g, (deeper(s) - s) * g), solved.zeros,
                    spec.alpha, sol.epsilon),
        *span, np.concatenate([depths, _graded_edges(span, solved.zeros)]),
        _REFERENCE_TOL, 60)
    cell = np.searchsorted(depths, edges[:-1], side="right") - 1
    rise, moment = (np.bincount(cell, row, depths.size - 1) for row in sums)
    values = np.concatenate([[0.0], np.cumsum(rise)])
    return (u, values), (masses, np.diff(depths) * u[:-1] + moment)


def exact_quantile(sol, t):
    """The point where the exact reference CDF reaches t, to |F - t| <= 1e-14."""
    x = sol.support_nodes
    values = target_cdf(sol).values
    k = min(int(np.searchsorted(values, t)), x.size - 1)
    return solve_root(lambda y: exact_reference(sol, [y])[1][0] - t,
                      x[k - 1], x[k], tol=1e-14)


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
    """The delivered density and CDF are the solved ones to within the
    cubic's fourth-order error, not the bulge of an interpolant across the
    crossing's kink."""

    @pytest.mark.parametrize("grid_n,density_bound,cdf_bound",
                             [(2001, 5e-6, 1e-9), (201, 5e-5, 1e-7)])
    @pytest.mark.parametrize("alpha,eps,assumption", _CANONICAL)
    def test_density_and_cdf(self, solved, alpha, eps, assumption, grid_n,
                             density_bound, cdf_bound):
        sol = solved(_canonical(alpha, assumption), eps, grid_n)
        ys = _probe(sol)
        density, cdf = exact_reference(sol, ys)
        assert np.max(np.abs(sol(ys) - density)) <= density_bound
        assert np.max(np.abs(target_cdf(sol)(ys) - cdf)) <= cdf_bound

    def test_reference_meets_the_nodes(self, solved):
        # At a node the reference integrates nothing; the last node closes
        # the last cell, whose density the assembly pins to 0.
        sol = solved(SPEC_I, 1e-2)
        x = sol.support_nodes
        density, cdf = exact_reference(sol, x)
        assert np.array_equal(density[:-1], sol.support_values[:-1])
        assert np.array_equal(cdf[:-1], target_cdf(sol).values[:-1])
        assert abs(density[-1]) <= 1e-15 and abs(cdf[-1] - 1.0) <= 1e-15

    @pytest.mark.parametrize("alpha,eps,assumption", _CANONICAL)
    def test_map_next_to_the_free_endpoint(self, solved, alpha, eps, assumption):
        # 3e-7 inside the source end that the increasing map sends to the
        # free endpoint, where the quantile leaves it like a square root.
        # The end cell's cubic cannot follow the slope's log layer there,
        # so the error grows with eps: 4.6e-7 at alpha 1, eps 1e-2, and
        # 4.2e-8 at eps 1e-3 (the PCHIP quantile was off by 6e-5).
        sol = solved(_canonical(alpha, assumption), eps)
        x = 6.0 + 3e-7 if assumption == "I" else -6.0 - 3e-7
        t = float(sol.spec.source_density.cdf(x))
        mapped = build_map(sol.spec, sol, "increasing").map(x)
        bound = 1e-6 if eps > 1e-3 else 2e-7
        assert abs(mapped - exact_quantile(sol, t)) <= bound


def _width_spec(alpha, width):
    """Target [0, width], source 0.5 beyond it."""
    return uniform_spec((width + 0.5, width + 2.5), (0.0, width), "I", alpha)


_REGIMES = [(alpha, eps, factor) for alpha in (0.5, 1.0, 4.0)
            for eps in (1e-1, 1e-3, 1e-6) for factor in (2.0, 5.0)]


class TestDeliveredShape:
    """The density is the derivative of the one cubic: its mass is the
    CDF's, it stays nonnegative and its slope stays at the solved one,
    from the capacity width 2/sqrt(alpha) to 5/sqrt(alpha)."""

    @pytest.mark.parametrize("alpha,eps,factor", _REGIMES)
    def test_mass_slope_and_sign(self, solved, alpha, eps, factor):
        sol = solved(_width_spec(alpha, factor / math.sqrt(alpha)), eps)
        cdf = target_cdf(sol)
        scale = np.cumsum(sol.cell_masses)[-1]
        x = cdf.nodes
        # The density is quadratic on each cell: one Gauss-Kronrod panel
        # per cell integrates it to rounding.
        mass = integrate(sol, x[0], x[-1], tol=1e-15, breakpoints=x)
        assert mass == pytest.approx(scale * cdf.values[-1], abs=1e-14)
        assert cdf.values[-1] == 1.0
        # The cubic's second and first derivatives from its power form
        # c3 + c2 s + c1 s^2 + c0 s^3 on each cell of width h.
        c0, c1, c2, _ = cdf.coeffs
        h = np.diff(x)
        ends = np.concatenate([2.0 * c1, 2.0 * c1 + 6.0 * c0 * h])
        assert scale * np.max(np.abs(ends)) <= sol.max_abs_slope * (1.0 + 1e-6)
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.where(c0 > 0.0, -c1 / (3.0 * c0), 0.0)
        inner = np.clip(np.nan_to_num(vertex), 0.0, h)
        lowest = np.minimum(np.minimum(c2, c2 + 2.0 * c1 * h + 3.0 * c0 * h * h),
                            c2 + 2.0 * c1 * inner + 3.0 * c0 * inner * inner)
        assert scale * np.min(lowest) >= -1e-15 * np.max(sol.support_values)


@pytest.mark.parametrize("grid_n", [201, 2001])
@pytest.mark.parametrize("assumption", ["I", "II"])
@pytest.mark.parametrize("alpha,eps,factor", _REGIMES)
def test_nodes_and_cells_are_exact(solved, alpha, eps, factor, assumption,
                                   grid_n):
    # The values and cell masses read off the solve's panels meet an exact
    # depth reference; the last value, pinned to 0, as the boundary gap.
    spec = _width_spec(alpha, factor / math.sqrt(alpha))
    if assumption == "II":
        spec = mirror_transform(spec)
    sol = solved(spec, eps, grid_n)
    (u, values), (masses, exact) = exact_nodes(sol, grid_n)
    assert np.max(np.abs(u[:-1] - values[:-1])) <= 1e-14
    assert abs(sol.boundary_gap - values[-1]) <= 1e-14
    assert np.max(np.abs(masses - exact)) <= 1e-15
    assert sol.clip_depth == 0.0


@pytest.mark.parametrize("assumption", ["I", "II"])
@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_nodes_are_the_nodal_values(solved, assumption, eps):
    # The density meets the assembled values at the nodes, within 2 ulps
    # of the peak, and peaks at the crossing.
    sol = solved(_canonical(1.0, assumption), eps)
    u = sol.support_values
    ulps = 2 * np.spacing(u.max())
    assert np.max(np.abs(sol(sol.support_nodes) - u)) <= ulps
    location, height = sol.peak()
    assert location == sol.crossing and abs(height - u.max()) <= ulps
