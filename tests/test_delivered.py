"""The delivered objects (the density a solution evaluates to, the target
CDF and the transport maps) against an exact reference built from the
solve's own slope, and the shape the solve's panels give them."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import legder, legroots, legval

from conftest import regime_spec
from monge1d.energy import SinePerturbation, duality_gap, second_variation_probe
from monge1d.oracles import mirror_transform
from monge1d.problem import uniform_spec
from monge1d.transport import build_map, pushforward_residual
from reference_quadrature import integrate, inverted_pass
from reference_solves import solve_root

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
_REFERENCE_TOL = 1e-15


def _depth_integral(fn, zeros, span, alpha, epsilon):
    """Integrals over any depth span of the two rows fn(s, l, du/ds) of the
    depth stress (s - z)(s - c)/2 (`inverted_pass`), to the reference
    tolerance.  A zero-width span, as a query at a grid node gives,
    integrates to zeros."""
    if span[0] == span[1]:
        return 0.0, 0.0
    done = inverted_pass(fn, zeros, span, alpha, epsilon, _REFERENCE_TOL)
    return np.cumsum(done[1], axis=1)[:, -1]


def grid_depths(sol):
    """The depths of the solution's table nodes: grid_n uniform depths over
    the pass, from the anchor to the support's far end, with the crossing,
    where the density kinks, inserted as a node unless one equals it.
    Rebuilt from the solution's depth zeros, since depths mapped back from
    y lose their last bits."""
    z, c = sol.depth_zeros
    return np.union1d(np.linspace(0.0, min(z, sol.spec.target_width), sol.grid_n), [c])


def exact_nodes(sol):
    """The solution's nodal values and an exact reference's nodal values
    and cell masses, in depth order, on the solution's own depth grid
    (`grid_depths`).

    The reference is one pass of the depth integrand at tolerance 1e-15
    with every grid node a panel edge, rows du/ds and (s_i+1 - s) du/ds:
    the running sums of its panel sums are the integrals of the slope from
    0 to each node's depth, and each cell's are the moment of its mass,
    h u_i + integral of (s_i+1 - s) du/ds.  No interpolant enters it.
    """
    spec, depths = sol.spec, grid_depths(sol)
    span = (depths[0], depths[-1])
    step = -1 if spec.orientation > 0 else 1        # ascending depth
    nodes, support_values = sol.nodes, sol.values
    assert np.array_equal(spec.anchor - spec.orientation * depths[:-1], nodes[::step][:-1])
    deeper = lambda s: depths[np.minimum(np.searchsorted(depths, s),
                                         depths.size - 1)]
    edges, sums, _ = inverted_pass(lambda s, l, g: (g, (deeper(s) - s) * g), sol.depth_zeros,
                                   span, spec.alpha, sol.epsilon, _REFERENCE_TOL, depths)
    cell = np.searchsorted(depths, edges[:-1], side="right") - 1
    rise, moment = (np.bincount(cell, row, depths.size - 1) for row in sums)
    values = np.concatenate([[0.0], np.cumsum(rise)])
    return support_values[::step], values, np.diff(depths) * values[:-1] + moment


def exact_running(sol):
    """The exact reference's nodal values and running masses from the lower
    support end, in ascending y (`exact_nodes`).  The running masses are
    summed exactly and rounded once: a plain cumulative sum over the 2,000
    cells rounds at each one, and is itself up to 1.1e-15 off at eps 1e-2."""
    _, values, masses = exact_nodes(sol)
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
    x, (u, cum) = sol.nodes, running
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
    x, cum = sol.nodes, running[1]
    k = min(max(int(np.searchsorted(cum / cum[-1], t)), 1), x.size - 1)
    return solve_root(lambda y: exact_reference(sol, [y], running)[1][0] - t,
                      x[k - 1], x[k], tol=tol)


def _probe(sol, per_cell=16):
    """A uniform probe of the support plus dense points in the cells on
    either side of the crossing (the density's kink) and in both end cells."""
    x = sol.nodes
    k = int(np.searchsorted(x, sol.dual.zeros[1]))
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
        density, cdf = exact_reference(sol, ys, exact_running(sol))
        # The density reads 0 at both support ends, though the profile's
        # closing end holds the boundary gap.
        inside = (ys > sol.support[0]) & (ys < sol.support[1])
        assert np.max(np.abs(sol(ys) - density)[inside]) <= 1e-14
        assert np.max(np.abs(sol.cdf(ys) - cdf)) <= 1e-14

    def test_reference_meets_the_nodes(self, solved):
        # At a node the reference integrates nothing: it reads the exact
        # nodal values and running masses, which the solution's nodal
        # values and CDF meet; the last node closes the last cell.
        sol = solved(SPEC_I, 1e-2)
        x, values = sol.nodes, sol.values
        running = exact_running(sol)
        density, cdf = exact_reference(sol, x, running)
        assert np.array_equal(density[:-1], running[0][:-1])
        assert np.array_equal(cdf[:-1], running[1][:-1] / running[1][-1])
        assert np.max(np.abs(density[1:] - values[1:])) <= 1e-14
        assert np.max(np.abs(cdf - sol.cdf(x))) <= 1e-15
        assert abs(density[-1]) <= 1e-15
        assert abs(density[0] - sol.profile.edge_density[-1]) <= 1e-14
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
        exact = exact_quantile(sol, t, exact_running(sol))
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
        running = exact_running(sol)
        residual = exact_reference(sol, [mapped], running)[1][0] - t
        assert abs(residual) <= 2 * np.finfo(float).eps
        if assumption == "I":       # the reference keeps t's relative precision
            exact = exact_quantile(sol, t, running, tol=1e-4 * t)
            assert abs(mapped - exact) <= 1e-8


class TestReadsInY:
    """The density, its CDF and its quantile share the solution's one map
    of y to the solve's depths: clamped to the pass, with the closing end
    at its last edge exactly."""

    @pytest.mark.parametrize("assumption", ["I", "II"])
    def test_clamps_outside_the_support(self, solved, assumption):
        sol = solved(_canonical(1.0, assumption), 1e-2)
        lo, hi = sol.support
        assert sol.cdf(lo - 5.0) == sol.cdf(lo) == 0.0
        assert sol.cdf(hi + 99.0) == sol.cdf(hi) == 1.0
        assert sol(lo - 5.0) == sol(hi + 99.0) == 0.0
        assert sol.quantile(0.0) == sol.quantile(-1e-15) == lo
        assert sol.quantile(1.0) == sol.quantile(1.0 + 1e-15) == hi

    def test_scalar_and_array_input(self, solved):
        # Arrays read point by point; a scalar or 0-d input reads a float.
        sol = solved(SPEC_I, 1e-2)
        ys, ts = np.array([3.5, 4.0, 4.5]), np.array([0.25, 0.5, 0.75])
        for read, x in ((sol, ys), (sol.cdf, ys), (sol.quantile, ts)):
            many = read(x)
            assert many.shape == (3,)
            assert [read(v) for v in x.tolist()] == many.tolist()
            assert isinstance(read(x[0]), float) and isinstance(read(np.array(x[0])), float)

    def test_zero_dimensional_input(self, solved):
        sol = solved(SPEC_I, 1e-2)
        t = sol.cdf(3.7)
        y = sol.quantile(np.array(t))
        assert isinstance(y, float) and abs(sol.cdf(y) - t) <= 1e-15
        assert sol.quantile(np.float64(t)) == y
        many = sol.quantile(np.array([t]))
        assert many.shape == (1,) and many[0] == y

    @pytest.mark.parametrize("assumption", ["I", "II"])
    @pytest.mark.parametrize("offset", [0.0, 7.0, 1000.0])
    def test_closing_end_reads_the_last_edge(self, solved, offset, assumption):
        # At offset 7 the closing end's depth o (anchor - m) rounds short
        # of the last edge, and at 1000 past it: the end still reads the
        # edge (`test_duality.py`), so the CDF is 0 or 1 there exactly and
        # the quantile returns the end itself.
        spec = uniform_spec((6.0 + offset, 8.0 + offset), (offset, 5.0 + offset), "I", 1.0)
        sol = solved(spec if assumption == "I" else mirror_transform(spec), 1e-3)
        m, closing = sol.support_endpoint, 0.0 if assumption == "I" else 1.0
        assert sol.cdf(m) == closing and sol.quantile(closing) == m
        assert sol.quantile(1.0 - closing) == sol.spec.anchor

    def test_flat_end_cells_of_the_cdf(self, solved):
        # The density vanishes at both support ends, so the target CDF
        # leaves 0 and reaches 1 with zero slope; a few ulps inside the
        # range the quantile follows a square root into the end panels.
        ulps = np.arange(1.0, 6.0)
        low = ulps * np.nextafter(0.0, 1.0)
        high = 1.0 - ulps * np.spacing(0.5)
        for spec in (SPEC_I, mirror_transform(SPEC_I)):
            sol = solved(spec, 1e-3)
            for targets, end in ((low, sol.support[0]), (high, sol.support[1])):
                ys = sol.quantile(targets)
                assert np.max(np.abs(ys - end)) <= 1e-7
                assert np.max(np.abs(sol.cdf(ys) - targets)) <= 1e-15
            assert np.all(np.diff(sol.quantile(high)) <= 0.0)

    @pytest.mark.parametrize("assumption", ["I", "II"])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    def test_a_depth_does_not_depend_on_its_batch(self, solved, eps, assumption):
        # Each call sweeps its targets until the slowest settles, and a
        # target that settles sooner keeps its point.  So a permuted batch
        # reads the permuted quantiles, and any part of a batch, down to a
        # lone target, reads the quantiles the whole batch read, bit for
        # bit.  The batch holds the flat ends' targets, which take the
        # most sweeps.
        sol = solved(_canonical(1.0, assumption), eps)
        rng = np.random.default_rng(57)
        ulps = np.arange(1.0, 6.0)
        ends = [ulps * np.nextafter(0.0, 1.0), 1.0 - ulps * np.spacing(0.5)]
        t = np.concatenate([rng.uniform(size=400), *ends, sol.cdf(sol.nodes[::50])])
        perm = rng.permutation(t.size)
        bits = lambda y: np.asarray(y, dtype=float).view(np.uint64)
        whole = sol.quantile(t)
        assert np.array_equal(bits(sol.quantile(t[perm])), bits(whole[perm]))
        for part in (perm[:200], perm[200:], perm[::37]):
            assert np.array_equal(bits(sol.quantile(t[part])), bits(whole[part]))
        alone = [sol.quantile(t[i]) for i in perm[:40]]
        assert np.array_equal(bits(alone), bits(whole[perm[:40]]))

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.floats(min_value=3.05, max_value=4.95))
    def test_round_trip_property(self, solved, y):
        sol = solved(SPEC_I, 1e-2)
        t = sol.cdf(y)
        back = sol.quantile(t)
        assert abs(sol.cdf(back) - t) <= 1e-15
        assert abs(back - y) < 1e-8


_REGIMES = [(alpha, eps, factor) for alpha in (0.5, 1.0, 4.0)
            for eps in (1e-1, 1e-3, 1e-6) for factor in (2.0, 5.0)]


class TestDeliveredShape:
    """The density read off the solve's panels: its mass is the CDF's
    total, it stays nonnegative and its slope stays at the solved one,
    from the capacity width 2/sqrt(alpha) to 5/sqrt(alpha)."""

    @pytest.mark.parametrize("alpha,eps,factor", _REGIMES)
    def test_mass_slope_and_sign(self, solved, alpha, eps, factor):
        sol = solved(regime_spec(alpha, factor / 2.0), eps)
        profile = sol.profile
        # The density is a polynomial of degree 15 on each panel: one
        # Gauss-Kronrod panel per panel integrates it to rounding.
        panels = sol.spec.anchor - sol.spec.orientation * profile.edges
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
    spec = regime_spec(alpha, factor / 2.0)
    if assumption == "II":
        spec = mirror_transform(spec)
    sol = solved(spec, eps, grid_n)
    u, values, exact = exact_nodes(sol)
    assert np.max(np.abs(u[:-1] - values[:-1])) <= 1e-14
    profile = sol.profile
    assert abs(profile.edge_density[-1] - values[-1]) <= 1e-14
    masses = profile.total * np.diff(sol.cdf(sol.nodes))[::-1 if spec.orientation > 0 else 1]
    assert np.max(np.abs(masses - exact)) <= 1e-15
    assert sol.clip_depth == 0.0


def _offset_spec(offset, assumption, width=5.0):
    """The canonical problem moved by `offset`, on a target of `width`."""
    spec = uniform_spec((6.0 + offset, 8.0 + offset), (offset, width + offset), "I", 1.0)
    return spec if assumption == "I" else mirror_transform(spec)


# Offsets 0, 7 and 1000 with a free end, and the full-target branch: at
# the sharp width 2 the support fills the target and the far edge closes it.
_PLACES = [(offset, 5.0) for offset in (0.0, 7.0, 1000.0)] + [(0.0, 2.0)]


class TestTheProfileIsTheDensity:
    """Every read of a solution goes through its profile; the table is the
    profile sampled on the solve's depth grid, and no read consults it."""

    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    @pytest.mark.parametrize("assumption", ["I", "II"])
    @pytest.mark.parametrize("offset,width", _PLACES)
    def test_table_and_reads_are_the_profile(self, solved, offset, width, assumption, eps):
        # The table's support values are the profile at the grid's depths,
        # clipped at 0 with both Dirichlet ends pinned; a read at an
        # interior y is the profile at its depth o (anchor - y), clipped.
        sol = solved(_offset_spec(offset, assumption, width), eps)
        spec, profile = sol.spec, sol.profile
        expected = np.maximum(profile.density(grid_depths(sol)), 0.0)
        expected[[0, -1]] = 0.0
        nodes, values = sol.nodes, sol.values
        assert np.array_equal(values, expected[::-1 if spec.orientation > 0 else 1])
        lo, hi = sol.support
        ys = np.concatenate([np.linspace(lo, hi, 1001)[1:-1], nodes[1:-1],
                             [sol.dual.zeros[1]]])
        depths = spec.orientation * (spec.anchor - ys)
        assert np.array_equal(sol(ys), np.maximum(profile.density(depths), 0.0))

    @pytest.mark.parametrize("assumption", ["I", "II"])
    @pytest.mark.parametrize("offset,width", _PLACES)
    def test_support_ends_read_zero(self, solved, offset, width, assumption):
        # The closing end's profile value is the boundary gap, not 0; the
        # open support leaves both ends to the zero extension.
        sol = solved(_offset_spec(offset, assumption, width), 1e-3)
        lo, hi = sol.support
        assert sol(lo) == sol(hi) == 0.0
        assert sol(np.array([lo, hi])).tolist() == [0.0, 0.0]
        if width == 2.0:
            assert sol.support == sol.spec.target_interval

    @pytest.mark.parametrize("assumption", ["I", "II"])
    def test_reads_do_not_depend_on_the_grid(self, solved, assumption):
        # Each grid size samples the same solve: everything the solution
        # delivers, read at the coarsest grid's own nodes too, is bitwise
        # the same for every grid.
        spec = _canonical(1.0, assumption)
        coarse = solved(spec, 1e-3, 33)
        lo, hi = coarse.support
        ys = np.concatenate([np.linspace(lo - 0.5, hi + 0.5, 301), coarse.nodes])
        ts = np.linspace(0.0, 1.0, 301)
        perturbation = SinePerturbation(coarse.support)
        one = lambda y: np.full(np.shape(y), 1.0)

        def delivered(sol):
            maps = [build_map(spec, sol, variant) for variant in ("increasing", "decreasing")]
            probe = second_variation_probe(sol, perturbation, (-1e-2, 1e-3),
                                           dual_perturbation=one)
            return (sol(ys).tolist(), sol.cdf(ys).tolist(), sol.quantile(ts).tolist(),
                    duality_gap(sol), probe, [m.cost for m in maps],
                    [pushforward_residual(m, sol, spec) for m in maps])

        reads = delivered(coarse)
        for grid_n in (2001, 8001):
            assert delivered(solved(spec, 1e-3, grid_n)) == reads
