"""Unit tests for the quadrature, root-finding, and profile kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monge1d.errors import MaxDepth, MaxIterations, NoSignChange
from monge1d.numerics import (
    MonotoneProfile,
    _adaptive,
    _cell_edges,
    integrate,
    solve_root,
)


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
