"""Unit tests for the quadrature, root-finding, and profile kernels."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicHermiteSpline

from monge1d.errors import MaxDepth, MaxIterations, NoSignChange
from monge1d.numerics import (
    MonotoneProfile,
    _adaptive,
    _graded_edges,
    _panel_cumulative,
    integrate,
    solve_root,
)
from monge1d.problem import uniform_spec
from monge1d.transport import target_cdf

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)


class TestSolveRoot:
    """The one contract: a returned x lies in [lo, hi] with |f(x)| <= tol;
    anything else raises."""

    def test_sqrt2(self):
        x = solve_root(lambda t: t * t - 2.0, 0.0, 2.0, tol=1e-14)
        assert abs(x * x - 2.0) <= 1e-14
        assert abs(x - np.sqrt(2.0)) < 1e-12

    def test_cubic(self):
        # x^3 - x - 2 has its real root near 1.52.
        x = solve_root(lambda t: t**3 - t - 2.0, 1.0, 2.0, tol=1e-14)
        assert abs(x - 1.5213797068045676) < 1e-12

    def test_root_at_endpoint(self):
        assert solve_root(lambda t: t, 0.0, 1.0) == 0.0
        assert solve_root(lambda t: t - 1.0, 0.0, 1.0) == 1.0

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            solve_root(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_result_inside_bracket(self):
        x = solve_root(lambda t: np.tanh(50.0 * (t - 0.3)), -1.0, 1.0)
        assert -1.0 <= x <= 1.0
        assert abs(x - 0.3) < 1e-10

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=1e-3, max_value=4.0))
    def test_linear_family(self, c, a):
        x = solve_root(lambda t: a * (t - c), c - 1.0, c + 1.0, tol=1e-13)
        assert abs(a * (x - c)) <= 1e-13
        assert abs(x - c) < 1e-11

    def test_jump_across_zero_raises(self):
        # No point has |f| <= tol: the bracket collapses onto the jump.
        with pytest.raises(MaxIterations):
            solve_root(lambda t: math.copysign(1.0, t - 0.3), 0.0, 1.0)

    def test_step_budget_raises(self):
        with pytest.raises(MaxIterations):
            solve_root(lambda t: np.tanh(50.0 * (t - 0.3)), -1.0, 1.0,
                       max_iter=3)

    def test_tight_residual_in_few_evaluations(self):
        # A residual slope of 4 at the root: a point bracketed to 1e-12 in
        # x can still miss a 1e-12 residual, so the residual is the stop.
        g = lambda t: math.tanh(4.0 * (t - 0.3)) + 0.1 * (t - 0.3) ** 2
        seen = []

        def counted(t):
            seen.append(t)
            return g(t)

        x = solve_root(counted, 0.0, 1.0, tol=1e-12)
        assert 0.0 <= x <= 1.0
        assert abs(g(x)) <= 1e-12
        assert len(seen) <= 15

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e-3, max_value=5.0),
           st.floats(min_value=1e-3, max_value=5.0),
           st.sampled_from((-1.0, 1.0)),
           st.sampled_from((1e-8, 1e-12)))
    def test_monotone_cubic_family(self, r, a, b, left, right, sign, tol):
        f = lambda t: sign * (a * (t - r) ** 3 + b * (t - r))
        lo, hi = r - left, r + right
        x = solve_root(f, lo, hi, tol=tol)
        assert lo <= x <= hi
        assert abs(f(x)) <= tol


class TestIntegrate:
    def test_sin(self):
        val = integrate(np.sin, 0.0, np.pi)
        assert abs(val - 2.0) < 1e-10

    def test_gaussian(self):
        val = integrate(lambda x: np.exp(-x * x), 0.0, 1.0)
        assert abs(val - 0.7468241328124271) < 1e-12

    def test_polynomial_exact(self):
        # Degree-7 polynomials are exact for Gauss-7, so a single panel does it.
        val = integrate(lambda x: 7.0 * x**6, 0.0, 1.0)
        assert abs(val - 1.0) < 1e-13

    def test_zero_width(self):
        assert integrate(np.sin, 1.0, 1.0) == 0.0

    def test_additivity(self):
        f = lambda x: np.exp(x) * np.cos(3.0 * x)
        whole = integrate(f, 0.0, 2.0, tol=1e-12)
        parts = integrate(f, 0.0, 0.7, tol=1e-12) + integrate(f, 0.7, 2.0, tol=1e-12)
        assert abs(whole - parts) < 2e-12

    def test_breakpoint_kink(self):
        f = lambda x: np.abs(x - 0.5)
        val = integrate(f, 0.0, 1.0, breakpoints=(0.5,), tol=1e-12)
        assert abs(val - 0.25) < 1e-12

    def test_breakpoints_outside_ignored(self):
        val = integrate(np.cos, 0.0, 1.0, breakpoints=(-3.0, 7.0))
        assert abs(val - np.sin(1.0)) < 1e-10

    def test_steep_transition(self):
        # Jump-like transition of width 1e-8: the plateaus on both sides
        # perturb the coarse estimates, so refinement zooms in on the edge.
        # This is the shape of the boundary layers the solver produces.
        f = lambda x: 0.5 * (1.0 + np.tanh((x - 0.3) / 1e-8))
        val = integrate(f, 0.0, 1.0, tol=1e-12)
        assert abs(val - 0.7) < 1e-11

    def test_empty_span_has_no_graded_edges(self):
        # A zero-width span grades nothing, so its integral is 0.
        assert _graded_edges((1.5, 1.5), (1.5,)).size == 0
        assert integrate(np.sin, 1.5, 1.5,
                         breakpoints=_graded_edges((1.5, 1.5), (1.5,))) == 0.0
        assert _graded_edges((1.0, 2.0), (1.5,)).size > 1

    def test_empty_span_gives_one_zero_per_row(self):
        # As a nonempty span does, with the rows counted from the integrand.
        both = integrate(lambda x: (x, x * x), 1.0, 1.0)
        assert both.shape == (2,) and not both.any()
        assert integrate(lambda x: (x,), 1.0, 1.0) == 0.0
        assert integrate(lambda x: (x, x * x), 1.0, 2.0).shape == (2,)

    def test_depth_cap(self):
        # A genuine discontinuity off the dyadic grid cannot be resolved to
        # 1e-15, producing a clean depth failure rather than a silent loop.
        # The message names the row over budget, its error and its target.
        f = lambda x: (x > 1.0 / 3.0).astype(float)
        with pytest.raises(MaxDepth, match=r"12 subdivision levels \(row 0: "
                           r"remaining error \d\.\d{3}e-\d+, target 1\.000e-15\)"):
            integrate(f, 0.0, 1.0, tol=1e-15, max_depth=12)


class TestCumulative:
    """The panel cumulative behind `assemble_density`: running integrals
    and interval moments read off one whole-span pass."""

    @staticmethod
    def _pass(f, l, r, tol=1e-12, breakpoints=()):
        edges, sums, samples = _adaptive(f, l, r, breakpoints, tol, 60)
        return edges, sums[0], samples

    def test_matches_integrate(self):
        f = lambda x: 1.0 + np.sin(x) ** 2
        grid = np.linspace(0.0, 3.0, 41)
        values, _ = _panel_cumulative(*self._pass(f, 0.0, 3.0), grid)
        assert values[0] == 0.0
        assert values[-1] == integrate(f, 0.0, 3.0, tol=1e-12)

    def test_node_values_are_partial_integrals(self):
        # Values and moments of e^-x on a grid that cuts the panels.
        grid = np.linspace(0.0, 2.0, 21)
        edges = self._pass(lambda x: np.exp(-x), 0.0, 2.0, 1e-15, (0.7, 1.3))
        values, moments = _panel_cumulative(*edges, grid)
        assert np.max(np.abs(values - (1.0 - np.exp(-grid)))) <= 1e-15
        a, b = grid[:-1], grid[1:]
        exact = (b - a) * np.exp(-a) - (np.exp(-a) - np.exp(-b))
        assert np.max(np.abs(moments - exact)) <= 1e-15

    @pytest.mark.parametrize("degree", range(15))
    def test_reproduces_polynomials(self, degree):
        # The interpolant of degree 14 is the polynomial itself: running
        # integrals and moments at arbitrary points, to rounding.
        rng = np.random.default_rng(degree)
        coeffs = rng.normal(size=degree + 1)
        f = lambda x: np.polyval(coeffs, x)
        edges = self._pass(f, -1.0, 2.0, 1e-12, (-0.3, 0.5, 1.1))
        t = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 2.0, 40)), [2.0]])
        values, moments = _panel_cumulative(*edges, t)
        anti = np.polyint(coeffs)
        exact = np.polyval(anti, t) - np.polyval(anti, -1.0)
        # The moment on [a, b] is the integral of the running integral
        # less (b - a) times its value at a.
        twice = np.polyint(anti)
        a, b = t[:-1], t[1:]
        moment = (np.polyval(twice, b) - np.polyval(twice, a)
                  - (b - a) * np.polyval(anti, a))
        scale = 2.0 ** degree * np.sum(np.abs(coeffs))
        assert np.max(np.abs(values - exact)) <= 1e-14 * scale
        assert np.max(np.abs(moments - moment)) <= 1e-14 * scale

    def test_panel_edge_reads_the_running_sum(self):
        # A point on a panel's left edge reads the Kronrod sums of the
        # panels before it, with no rounding from its own panel.
        f = lambda x: np.cos(3.0 * x) + 2.0
        edges, sums, samples = self._pass(f, 0.0, 4.0, 1e-12, (0.5, 1.7, 2.9))
        points = np.sort(np.append(edges, [0.3, 3.3]))
        values, _ = _panel_cumulative(edges, sums, samples, points)
        running = np.concatenate([[0.0], np.cumsum(sums)])
        assert np.array_equal(values[np.isin(points, edges)], running)
        assert np.array_equal(_panel_cumulative(edges, sums, samples, edges)[0],
                              running)


class TestStackedRows:
    """An integrand may return a stack of rows: every row is summed on the
    same panels, and refinement goes on until each row meets its own
    tolerance."""

    def test_rows_share_the_panels_of_row_zero(self):
        f = lambda x: 1.0 + np.sin(x) ** 2
        edges, sums, samples = _adaptive(lambda x: (f(x), np.cos(x)), 0.0, 3.0,
                                         (), 1e-12, 60)
        alone, (row,), _ = _adaptive(f, 0.0, 3.0, (), 1e-12, 60)
        assert sums.shape == (2, edges.size - 1) == (2, samples.shape[0])
        assert np.array_equal(edges, alone) and np.array_equal(sums[0], row)
        assert np.cumsum(sums[0])[-1] == integrate(f, 0.0, 3.0, tol=1e-12)
        assert abs(np.sum(sums[1]) - np.sin(3.0)) < 1e-12

    def test_integrate_returns_one_integral_per_row(self):
        f = lambda x: 1.0 + np.sin(x) ** 2
        one = integrate(f, 0.0, 3.0, tol=1e-12)
        both = integrate(lambda x: (f(x), np.cos(x)), 0.0, 3.0, tol=1e-12)
        assert isinstance(one, float)
        assert both.shape == (2,)
        assert both[0] == one
        assert abs(both[1] - np.sin(3.0)) < 1e-12

    def test_jump_in_a_later_row_refines_to_the_depth_cap(self):
        # Row 0 is integrated exactly on the first panel; the jump in row 1
        # drives refinement on its own, until the depth cap names it.
        rounds = []

        def f(x):
            rounds.append(x.size)
            return np.ones_like(x), (x > 1.0 / 3.0).astype(float)

        with pytest.raises(MaxDepth, match=r"\(row 1: remaining error "):
            _adaptive(f, 0.0, 1.0, (), 1e-15, 12)
        assert len(rounds) == 13

    def test_smooth_later_row_meets_its_own_tolerance(self):
        # Row 0 is exact on one panel; row 1 needs several, and ends within
        # tol * max(1, |total|) of its integral, on more panels than row 0
        # alone would build.
        tol = 1e-12
        g = lambda x: np.exp(-x) * np.cos(8.0 * x)
        edges, sums, _ = _adaptive(lambda x: (np.ones_like(x), g(x)), 0.0, 5.0,
                                   (), tol, 60)
        exact = (1.0 - np.exp(-5.0) * (np.cos(40.0) - 8.0 * np.sin(40.0))) / 65.0
        assert edges.size > 2
        assert sums[0].sum() == pytest.approx(5.0, abs=1e-14)
        assert abs(sums[1].sum() - exact) <= tol * max(1.0, abs(exact))
        assert _adaptive(np.ones_like, 0.0, 5.0, (), tol, 60)[0].size == 2


def _assert_matches_scipy(x, v, d):
    """Values and derivatives of MonotoneProfile against scipy's
    `CubicHermiteSpline` on the same data, the reference, at the nodes and
    on a fine probe, to 1e-14 relative."""
    ours = MonotoneProfile(x, v, d)
    ref = CubicHermiteSpline(x, v, d)
    y = np.concatenate([x, np.linspace(x[0], x[-1], 997)])
    scale = max(float(np.max(np.abs(v))), np.finfo(float).tiny)
    assert np.max(np.abs(ours(y) - ref(y))) <= 1e-14 * scale
    dref = ref.derivative()(y)
    dscale = max(float(np.max(np.abs(dref))), np.finfo(float).tiny)
    assert np.max(np.abs(ours.derivative(y) - dref)) <= 1e-14 * dscale


# Secant steps: flat runs (0) and rises; node slopes: zero or positive.
_STEPS = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
_SLOPES = st.one_of(st.just(0.0), st.floats(1e-3, 20.0))


class TestMonotoneCubic:
    """The profile's cubic: the Hermite interpolant of its node values and
    node slopes."""

    def test_solved_density_and_cdf(self, solved):
        # The solved CDF is scipy's Hermite spline of the running cell
        # masses with the nodal density as its slopes, both over their
        # total, and the density is the total times its derivative.
        sol = solved(SPEC_I, 1e-3)
        cum = np.concatenate([[0.0], np.cumsum(sol.cell_masses)])
        ref = CubicHermiteSpline(sol.support_nodes, cum / cum[-1],
                                 sol.support_values / cum[-1])
        y = np.concatenate([sol.support_nodes, np.linspace(*sol.support, 997)])
        assert np.max(np.abs(target_cdf(sol)(y) - ref(y))) <= 1e-14
        assert (np.max(np.abs(sol(y) - cum[-1] * ref.derivative()(y)))
                <= 1e-14 * sol.support_values.max())

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.floats(1e-2, 10.0), _STEPS, _SLOPES),
                    min_size=1, max_size=12),
           st.floats(-100.0, 100.0), _SLOPES)
    @example([(1.0, 2.0, 2.0)], 0.0, 2.0)
    @example([(1.0, 2.0, 0.0), (0.5, 0.0, 0.0)], 1.0, 0.0)
    @example([(0.3, 1.0, 9.0), (2.0, 4.0, 0.0)], -3.0, 0.5)
    def test_drawn_data(self, cells, start, first_slope):
        dx, dv, d = np.array(cells).T
        x = np.concatenate([[start], start + np.cumsum(dx)])
        v = np.concatenate([[0.0], np.cumsum(dv)])
        _assert_matches_scipy(x, v, np.concatenate([[first_slope], d]))

    def test_evaluation_clamps_to_nodes(self):
        cubic = MonotoneProfile([0.0, 1.0, 3.0], [1.0, 2.0, 2.5], [0.0, 1.0, 3.0])
        assert cubic(-4.0) == 1.0 and cubic(7.0) == 2.5
        assert cubic.derivative(-4.0) == 0.0 and cubic.derivative(7.0) == 3.0
        assert isinstance(cubic(0.5), float)
        assert isinstance(cubic.derivative(0.5), float)


class TestMonotoneProfile:
    def _exp_profile(self, n=41):
        # 1 - e^-x with its exact derivative e^-x as the node slopes.
        x = np.linspace(0.0, 2.0, n)
        return MonotoneProfile(x, 1.0 - np.exp(-x), np.exp(-x))

    def test_call_scalar_and_array(self):
        prof = self._exp_profile()
        v = prof(1.0)
        assert isinstance(v, float)
        arr = prof(np.array([0.0, 1.0, 2.0]))
        assert arr.shape == (3,)
        assert abs(arr[0]) < 1e-14

    def test_exact_slopes_give_fourth_order(self):
        # With the exact node slopes the cubic's error is at most
        # h^4 max|f^(4)| / 384 and its derivative's h^3 max|f^(4)| / 72;
        # here max|f^(4)| = 1, and the derivative meets e^-x at the nodes.
        prof = self._exp_profile()
        h = 2.0 / 40
        y = np.linspace(0.0, 2.0, 1001)
        assert np.max(np.abs(prof(y) - (1.0 - np.exp(-y)))) <= h**4 / 384
        assert np.max(np.abs(prof.derivative(y) - np.exp(-y))) <= h**3 / 72
        x = prof.nodes
        assert np.max(np.abs(prof.derivative(x) - np.exp(-x))) <= 4 * np.spacing(1.0)

    def test_call_clamps_outside_domain(self):
        prof = self._exp_profile()
        assert prof(-5.0) == prof(0.0)
        assert prof(99.0) == prof(2.0)

    def test_invert_round_trip(self):
        prof = self._exp_profile(101)
        rng = np.random.default_rng(7)
        ys = rng.uniform(0.0, 2.0, 100)
        ts = prof(ys)
        back = prof.invert_many(ts)
        assert np.abs(prof(back) - ts).max() <= 1e-15
        assert np.abs(back - ys).max() < 1e-8

    def test_invert_many_inverts_forward_values(self):
        prof = self._exp_profile(101)
        targets = np.linspace(prof.range[0], prof.range[1], 37)
        ys = prof.invert_many(targets)
        assert np.all(np.diff(ys) > 0)
        assert np.abs(prof(ys) - targets).max() <= 1e-15

    def test_invert_endpoints(self):
        prof = self._exp_profile()
        lo, hi = prof.range
        assert prof.invert_many(lo) == prof.nodes[0]
        assert prof.invert_many(hi) == prof.nodes[-1]

    def test_marginally_out_of_range_clips(self):
        prof = self._exp_profile()
        lo, hi = prof.range
        assert prof.invert_many(hi + 1e-15) == prof.nodes[-1]
        assert prof.invert_many(lo - 1e-15) == prof.nodes[0]

    def test_node_value_targets_return_their_nodes(self):
        prof = self._exp_profile()
        assert np.array_equal(prof.invert_many(prof.values), prof.nodes)
        flat = MonotoneProfile(np.arange(5.0), [0.0, 0.5, 0.5, 0.5, 1.0], np.zeros(5))
        assert flat.invert_many(0.5) == 1.0

    def test_flat_end_cells_of_a_cdf(self, solved):
        # The density vanishes at both support ends, so the target CDF
        # leaves 0 and reaches 1 with zero slope; a few ulps inside the
        # range the inverse follows a square root into the end cell.
        prof = target_cdf(solved(SPEC_I, 1e-3))
        ulps = np.arange(1.0, 6.0)
        low = ulps * np.nextafter(0.0, 1.0)
        high = 1.0 - ulps * np.spacing(0.5)
        for targets, cell in ((low, 0), (high, prof.nodes.size - 2)):
            ys = prof.invert_many(targets)
            assert np.all((ys >= prof.nodes[cell]) & (ys <= prof.nodes[cell + 1]))
            assert np.max(np.abs(prof(ys) - targets)) <= 1e-15
        assert np.all(np.diff(prof.invert_many(high)) <= 0.0)

    def test_zero_dimensional_input(self):
        prof = self._exp_profile()
        t = prof(0.7)
        y = prof.invert_many(np.array(t))
        assert isinstance(y, float) and abs(prof(y) - t) <= 1e-15
        assert prof.invert_many(np.float64(t)) == y
        many = prof.invert_many(np.array([t]))
        assert many.shape == (1,) and many[0] == y

    @pytest.mark.parametrize("broken", [np.nan, 0.0])
    def test_broken_cell_raises(self, broken):
        # A cell whose cubic is NaN, or stays at its left value, holds no
        # root of a target between its node values: the loop must raise.
        prof = self._exp_profile()
        k = 10
        prof.coeffs[:3, k] = broken
        if np.isnan(broken):
            prof.coeffs[3, k] = broken
        t = 0.5 * (prof.values[k] + prof.values[k + 1])
        with pytest.raises(MaxIterations):
            prof.invert_many(np.array([prof(0.01), t]))

    def test_validation(self):
        with pytest.raises(ValueError):
            MonotoneProfile([0.0, 0.0, 1.0], [0.0, 0.5, 1.0], np.ones(3))
        with pytest.raises(ValueError):
            MonotoneProfile([0.0, 1.0], [1.0, 0.0], np.ones(2))
        with pytest.raises(ValueError):
            MonotoneProfile([0.0, 1.0], [0.0, 1.0], np.ones(3))
        for bad in (-1e-300, np.nan):
            with pytest.raises(ValueError):
                MonotoneProfile([0.0, 1.0], [0.0, 1.0], [1.0, bad])

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.floats(min_value=0.05, max_value=1.95))
    def test_round_trip_property(self, y):
        prof = self._exp_profile(101)
        t = prof(y)
        back = prof.invert_many(t)
        assert abs(prof(back) - t) <= 1e-15
        assert abs(back - y) < 1e-8
