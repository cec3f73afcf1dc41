"""Unit tests for the quadrature, root-finding, and profile kernels."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from monge1d.errors import MaxDepth, MaxIterations, NoSignChange
from monge1d.numerics import (
    MonotoneCubic,
    MonotoneProfile,
    _adaptive,
    _cell_edges,
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

    def test_depth_cap(self):
        # A genuine discontinuity off the dyadic grid cannot be resolved to
        # 1e-15, producing a clean depth failure rather than a silent loop.
        f = lambda x: (x > 1.0 / 3.0).astype(float)
        with pytest.raises(MaxDepth):
            integrate(f, 0.0, 1.0, tol=1e-15, max_depth=12)


class TestCumulative:
    """The per-cell pass behind `assemble_density`'s cumulative quadrature."""

    @staticmethod
    def _running_sums(f, grid, tol):
        edges, cell_id = _cell_edges(grid, ())
        sums, _ = _adaptive(f, edges, cell_id, tol, 60)
        return np.concatenate([[0.0], np.cumsum(sums)])

    def test_matches_integrate(self):
        f = lambda x: 1.0 + np.sin(x) ** 2
        sums = self._running_sums(f, np.linspace(0.0, 3.0, 41), 1e-12)
        direct = integrate(f, 0.0, 3.0, tol=1e-12)
        assert abs(sums[-1] - direct) < 1e-12

    def test_node_values_are_partial_integrals(self):
        grid = np.linspace(0.0, 2.0, 21)
        sums = self._running_sums(lambda x: np.exp(-x), grid, 1e-12)
        for k in (5, 10, 17):
            assert abs(sums[k] - (1.0 - np.exp(-grid[k]))) < 1e-10


def _assert_matches_scipy(x, v):
    """Values and derivatives of MonotoneCubic against scipy's PCHIP, the
    reference, at the nodes and on a fine probe, to 1e-14 relative."""
    ours = MonotoneCubic(x, v)
    ref = PchipInterpolator(x, v)
    y = np.concatenate([x, np.linspace(x[0], x[-1], 997)])
    scale = max(float(np.max(np.abs(v))), np.finfo(float).tiny)
    assert np.max(np.abs(ours(y) - ref(y))) <= 1e-14 * scale
    dref = ref.derivative()(y)
    dscale = max(float(np.max(np.abs(dref))), np.finfo(float).tiny)
    assert np.max(np.abs(ours.derivative(y) - dref)) <= 1e-14 * dscale


# Secant steps: flat runs (0), rises and falls, so the slopes change sign.
_STEPS = st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3))


class TestMonotoneCubic:
    def test_solved_density_and_cdf(self, solved):
        sol = solved(SPEC_I, 1e-3)
        _assert_matches_scipy(sol.support_nodes, sol.support_values)
        cdf = target_cdf(sol)
        _assert_matches_scipy(cdf.nodes, cdf.values)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.floats(1e-2, 10.0), _STEPS), min_size=1, max_size=12),
           st.floats(-100.0, 100.0), st.booleans())
    @example([(1.0, 2.0)], 0.0, False)
    @example([(1.0, 2.0), (0.5, 0.0)], 1.0, False)
    @example([(0.3, -1.0), (2.0, 4.0)], -3.0, False)
    def test_drawn_data(self, cells, start, monotone):
        dx, dv = np.array(cells).T
        if monotone:
            dv = np.abs(dv)
        x = np.concatenate([[start], start + np.cumsum(dx)])
        v = np.concatenate([[0.0], np.cumsum(dv)])
        _assert_matches_scipy(x, v)

    def test_evaluation_clamps_to_nodes(self):
        cubic = MonotoneCubic([0.0, 1.0, 3.0], [1.0, 2.0, 0.0])
        assert cubic(-4.0) == 1.0 and cubic(7.0) == 0.0
        assert isinstance(cubic(0.5), float)


class TestMonotoneProfile:
    def _exp_profile(self, n=41):
        x = np.linspace(0.0, 2.0, n)
        return MonotoneProfile(nodes=x, values=1.0 - np.exp(-x))

    def test_call_scalar_and_array(self):
        prof = self._exp_profile()
        v = prof(1.0)
        assert isinstance(v, float)
        arr = prof(np.array([0.0, 1.0, 2.0]))
        assert arr.shape == (3,)
        assert abs(arr[0]) < 1e-14

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

    def test_decreasing_profile(self):
        x = np.linspace(0.0, 1.0, 21)
        prof = MonotoneProfile(nodes=x, values=np.exp(-3.0 * x), increasing=False)
        t = prof(0.4)
        y = prof.invert_many(t)
        assert isinstance(y, float)
        assert abs(prof(y) - t) <= 1e-15
        assert abs(y - 0.4) < 1e-9
        many = prof.invert_many(np.array([t]))
        assert many.shape == (1,) and many[0] == y

    def test_node_value_targets_return_their_nodes(self):
        prof = self._exp_profile()
        assert np.array_equal(prof.invert_many(prof.values), prof.nodes)
        flat = MonotoneProfile(nodes=np.arange(5.0),
                               values=np.array([0.0, 0.5, 0.5, 0.5, 1.0]))
        assert flat.invert_many(0.5) == 1.0
        dec = MonotoneProfile(nodes=prof.nodes, values=prof.values[::-1],
                              increasing=False)
        assert np.array_equal(dec.invert_many(dec.values), dec.nodes)

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

    def test_decreasing_many(self):
        x = np.linspace(0.0, 1.0, 21)
        prof = MonotoneProfile(nodes=x, values=np.exp(-3.0 * x), increasing=False)
        targets = np.linspace(prof.range[0], prof.range[1], 101)
        ys = prof.invert_many(targets)
        assert np.all(np.diff(ys) < 0.0)
        assert np.max(np.abs(prof(ys) - targets)) <= 1e-15

    @pytest.mark.parametrize("broken", [np.nan, 0.0])
    def test_broken_cell_raises(self, broken):
        # A cell whose cubic is NaN, or stays at its left value, holds no
        # root of a target between its node values: the loop must raise.
        prof = self._exp_profile()
        k = 10
        prof._cubic.coeffs[:3, k] = broken
        if np.isnan(broken):
            prof._cubic.coeffs[3, k] = broken
        t = 0.5 * (prof.values[k] + prof.values[k + 1])
        with pytest.raises(MaxIterations):
            prof.invert_many(np.array([prof(0.01), t]))

    def test_validation(self):
        with pytest.raises(ValueError):
            MonotoneProfile(nodes=np.array([0.0, 0.0, 1.0]),
                            values=np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError):
            MonotoneProfile(nodes=np.array([0.0, 1.0]),
                            values=np.array([1.0, 0.0]), increasing=True)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.floats(min_value=0.05, max_value=1.95))
    def test_round_trip_property(self, y):
        prof = self._exp_profile(101)
        t = prof(y)
        back = prof.invert_many(t)
        assert abs(prof(back) - t) <= 1e-15
        assert abs(back - y) < 1e-8
