"""Unit tests for the quadrature and profile kernels and the reference root solve."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monge1d import numerics
from monge1d.duality import _solve_zeros
from monge1d.errors import DomainError, MaxDepth, MaxIterations
from monge1d.numerics import _XGK, MonotoneProfile, _adaptive, _graded_edges
from monge1d.oracles import mirror_transform
from monge1d.problem import uniform_spec
from reference_quadrature import integrate
from reference_solves import NoSignChange, solve_root

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

    def test_depth_cap(self, monkeypatch):
        # A genuine discontinuity off the dyadic grid cannot be resolved to
        # 1e-15, producing a clean depth failure rather than a silent loop.
        # The message names the row over budget, its error and its target.
        f = lambda x: (x > 1.0 / 3.0).astype(float)
        monkeypatch.setattr(numerics, "_MAX_PANEL_DEPTH", 12)
        with pytest.raises(MaxDepth, match=r"12 subdivision levels \(row 0: "
                           r"remaining error \d\.\d{3}e-\d+, target 1\.000e-15\)"):
            integrate(f, 0.0, 1.0, tol=1e-15)


class TestCumulative:
    """The running integrals behind `MonotoneProfile`: the density and the
    mass fraction read off one whole-span pass."""

    @staticmethod
    def _profile(f, l, r, tol=1e-12, breakpoints=()):
        # Only depths are read here: the map to y is left at y = s.
        edges, sums, samples = _adaptive(f, l, r, breakpoints, tol)
        return MonotoneProfile(edges, sums[0], samples, 0.0, 1.0)

    def test_matches_integrate(self):
        f = lambda x: 1.0 + np.sin(x) ** 2
        grid = np.linspace(0.0, 3.0, 41)
        values = self._profile(f, 0.0, 3.0).density(grid)
        assert values[0] == 0.0
        assert values[-1] == integrate(f, 0.0, 3.0, tol=1e-12)

    def test_node_values_are_partial_integrals(self):
        # Density and mass of e^-x on a grid that cuts the panels.
        grid = np.linspace(0.0, 2.0, 21)
        prof = self._profile(lambda x: np.exp(-x), 0.0, 2.0, 1e-15, (0.7, 1.3))
        values, masses = prof.density(grid), prof.total * prof.fraction(grid)
        assert np.max(np.abs(values - (1.0 - np.exp(-grid)))) <= 1e-15
        exact = grid - 1.0 + np.exp(-grid)
        assert np.max(np.abs(masses - exact)) <= 1e-15

    @pytest.mark.parametrize("degree", range(15))
    def test_reproduces_polynomials(self, degree):
        # The interpolant of degree 14 is the polynomial itself: density
        # and mass at arbitrary points, to rounding.  The polynomial is
        # raised by the bound on its size over the span, so that it holds
        # mass.
        rng = np.random.default_rng(degree)
        coeffs = rng.normal(size=degree + 1)
        scale = 2.0 ** degree * np.sum(np.abs(coeffs))
        coeffs[-1] += scale
        f = lambda x: np.polyval(coeffs, x)
        prof = self._profile(f, -1.0, 2.0, 1e-12, (-0.3, 0.5, 1.1))
        t = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 2.0, 40)), [2.0]])
        values, masses = prof.density(t), prof.total * prof.fraction(t)
        anti = np.polyint(coeffs)
        twice = np.polyint(anti)
        exact = np.polyval(anti, t) - np.polyval(anti, -1.0)
        mass = (np.polyval(twice, t) - np.polyval(twice, -1.0)
                - (t + 1.0) * np.polyval(anti, -1.0))
        assert np.max(np.abs(values - exact)) <= 1e-14 * scale
        assert np.max(np.abs(masses - mass)) <= 1e-14 * scale

    def test_panel_edge_reads_the_running_sum(self):
        # A point on a panel's left edge reads the running sums of the
        # panels before it, with no rounding from its own panel.
        f = lambda x: np.cos(3.0 * x) + 2.0
        prof = self._profile(f, 0.0, 4.0, 1e-12, (0.5, 1.7, 2.9))
        edges = prof.edges
        points = np.sort(np.append(edges, [0.3, 3.3]))
        running = np.concatenate([[0.0], np.cumsum(_adaptive(
            f, 0.0, 4.0, (0.5, 1.7, 2.9), 1e-12)[1][0])])
        on_edge = np.isin(points, edges)
        assert np.array_equal(prof.density(points)[on_edge], running)
        assert np.array_equal(prof.fraction(points)[on_edge],
                              prof.fractions)
        assert np.array_equal(prof.density(edges), running)


class TestStackedRows:
    """An integrand may return a stack of rows: every row is summed on the
    same panels, and refinement goes on until each row meets its own
    tolerance."""

    def test_rows_share_the_panels_of_row_zero(self):
        f = lambda x: 1.0 + np.sin(x) ** 2
        edges, sums, samples = _adaptive(lambda x: (f(x), np.cos(x)), 0.0, 3.0,
                                         (), 1e-12)
        alone, (row,), _ = _adaptive(f, 0.0, 3.0, (), 1e-12)
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

    def test_jump_in_a_later_row_refines_to_the_depth_cap(self, monkeypatch):
        # Row 0 is integrated exactly on the first panel; the jump in row 1
        # drives refinement on its own, until the depth cap names it.
        rounds = []

        def f(x):
            rounds.append(x.size)
            return np.ones_like(x), (x > 1.0 / 3.0).astype(float)

        monkeypatch.setattr(numerics, "_MAX_PANEL_DEPTH", 12)
        with pytest.raises(MaxDepth, match=r"\(row 1: remaining error "):
            _adaptive(f, 0.0, 1.0, (), 1e-15)
        assert len(rounds) == 13

    @pytest.mark.parametrize("row", [0, 1])
    def test_nan_row_raises_at_once(self, row):
        # No split compares with NaN, so a NaN row would refine breadth-first
        # forever; it is named after the first round instead.
        rounds = []

        def f(x):
            rounds.append(x.size)
            out = [np.ones_like(x), np.cos(x)]
            out[row] = np.where(x > 0.7, np.nan, out[row])
            return out

        with pytest.raises(DomainError, match=rf"row {row} is NaN on the panel"):
            integrate(f, 0.0, 1.0)
        assert len(rounds) == 1
        with pytest.raises(DomainError, match="row 0 is NaN"):
            integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_smooth_later_row_meets_its_own_tolerance(self):
        # Row 0 is exact on one panel; row 1 needs several, and ends within
        # tol * max(1, |total|) of its integral, on more panels than row 0
        # alone would build.
        tol = 1e-12
        g = lambda x: np.exp(-x) * np.cos(8.0 * x)
        edges, sums, _ = _adaptive(lambda x: (np.ones_like(x), g(x)), 0.0, 5.0,
                                   (), tol)
        exact = (1.0 - np.exp(-5.0) * (np.cos(40.0) - 8.0 * np.sin(40.0))) / 65.0
        assert edges.size > 2
        assert sums[0].sum() == pytest.approx(5.0, abs=1e-14)
        assert abs(sums[1].sum() - exact) <= tol * max(1.0, abs(exact))
        assert _adaptive(np.ones_like, 0.0, 5.0, (), tol)[0].size == 2


def _sin_profile(orientation=-1.0):
    """The density sin s and its CDF 1 - cos s on depths [0, pi/2], read
    off one pass of cos s, with y = -orientation s."""
    edges, sums, samples = _adaptive(np.cos, 0.0, 0.5 * np.pi,
                                     np.linspace(0.0, 0.5 * np.pi, 9), 1e-15)
    return MonotoneProfile(edges, sums[0], samples, 0.0, -orientation * 0.5 * np.pi)


def _exact_cdf(prof, y):
    """1 - cos s from the anchor, as a CDF in y."""
    mass = 1.0 - np.cos(np.abs(y))
    return 1.0 - mass if prof.orientation > 0 else mass


class TestMonotoneProfile:
    """The solved density's one representation: density and CDF read off
    a pass, and the CDF's inverse, in both orientations."""

    def test_call_scalar_and_array(self):
        prof = _sin_profile()
        v = prof(1.0)
        assert isinstance(v, float)
        arr = prof(np.array([0.0, 1.0, 1.5]))
        assert arr.shape == (3,)
        assert arr[0] == 0.0

    def test_reads_the_running_integrals(self):
        # Density sin s and mass 1 - cos s at the depths of a fine probe,
        # and the CDF at the matching y; the total mass is 1.
        s = np.linspace(0.0, 0.5 * np.pi, 1001)
        for orientation in (1.0, -1.0):
            prof = _sin_profile(orientation)
            density, mass = prof.density(s), prof.total * prof.fraction(s)
            assert np.max(np.abs(density - np.sin(s))) <= 1e-15
            assert np.max(np.abs(mass - (1.0 - np.cos(s)))) <= 1e-15
            assert abs(prof.total - 1.0) <= 1e-15
            y = -orientation * s
            assert np.max(np.abs(prof(y) - _exact_cdf(prof, y))) <= 1e-15

    def test_call_clamps_outside_domain(self):
        for orientation in (1.0, -1.0):
            prof = _sin_profile(orientation)
            lo, hi = prof.support
            assert prof(lo - 5.0) == prof(lo) == 0.0
            assert prof(hi + 99.0) == prof(hi) == 1.0

    def test_invert_round_trip(self):
        rng = np.random.default_rng(7)
        for orientation in (1.0, -1.0):
            prof = _sin_profile(orientation)
            ys = rng.uniform(*prof.support, 100)
            ts = prof(ys)
            back = prof.invert_many(ts)
            assert np.abs(prof(back) - ts).max() <= 1e-15
            assert np.abs(back - ys).max() < 1e-8

    def test_invert_many_inverts_forward_values(self):
        prof = _sin_profile()
        targets = np.linspace(0.0, 1.0, 37)
        ys = prof.invert_many(targets)
        assert np.all(np.diff(ys) > 0)
        assert np.abs(prof(ys) - targets).max() <= 1e-15

    def test_invert_endpoints(self):
        for orientation in (1.0, -1.0):
            prof = _sin_profile(orientation)
            lo, hi = prof.support
            assert prof.invert_many(0.0) == lo
            assert prof.invert_many(1.0) == hi

    def test_marginally_out_of_range_clips(self):
        prof = _sin_profile()
        lo, hi = prof.support
        assert prof.invert_many(1.0 + 1e-15) == hi
        assert prof.invert_many(-1e-15) == lo

    def test_singular_panels_hold_their_mean(self):
        # A slope that jumps at 0.5 after a log-type approach: the two
        # graded panels ending there hold their Kronrod mean c_0 alone,
        # within their samples' range, and the other panels, the running
        # density at every edge and the mass are those of the plain pass.
        g = lambda s: np.sign(s - 0.5) * (-1.0 - 1.0 / np.log(np.abs(s - 0.5) / 4.0))
        edges, sums, samples = _adaptive(g, 0.0, 1.0, _graded_edges((0.0, 1.0), (0.5,)),
                                         1e-12)
        plain = MonotoneProfile(edges, sums[0], samples, 0.0, 1.0)
        flat = MonotoneProfile(edges, sums[0], samples, 0.0, 1.0, singular=(0.5,))
        ends = np.flatnonzero((edges[:-1] == 0.5) | (edges[1:] == 0.5))
        assert ends.size == 2 and np.all(flat.coeffs[1:, ends] == 0.0)
        assert np.all(np.abs(flat.coeffs[0, ends]) <= np.max(np.abs(samples[ends]), axis=1))
        others = np.setdiff1d(np.arange(edges.size - 1), ends)
        assert np.array_equal(flat.coeffs[:, others], plain.coeffs[:, others])
        assert np.array_equal(flat.density(edges), plain.density(edges))
        assert flat.total == pytest.approx(plain.total, abs=1e-15)

    def test_node_value_targets_return_their_nodes(self):
        # A target equal to a panel edge's running fraction returns that
        # edge; in a flat run (a panel holding no mass), the first.
        prof = _sin_profile()
        assert np.array_equal(prof.invert_many(prof.fractions[:-1]), prof.edges[:-1])
        slope = lambda s: np.select([s < 1.0, s < 2.0, s < 3.0], [1.0, -1.0, 0.0], 1.0)
        edges, sums, samples = _adaptive(slope, 0.0, 4.0, (1.0, 2.0, 3.0), 1e-15)
        flat = MonotoneProfile(edges, sums[0], samples, 0.0, 4.0)
        assert flat(2.0) == flat(3.0) == 2.0 / 3.0
        assert flat.invert_many(flat(2.5)) == 2.0

    def test_flat_end_cells_of_a_cdf(self, solved):
        # The density vanishes at both support ends, so the target CDF
        # leaves 0 and reaches 1 with zero slope; a few ulps inside the
        # range the inverse follows a square root into the end panels.
        ulps = np.arange(1.0, 6.0)
        low = ulps * np.nextafter(0.0, 1.0)
        high = 1.0 - ulps * np.spacing(0.5)
        for spec in (SPEC_I, mirror_transform(SPEC_I)):
            prof = solved(spec, 1e-3).cdf
            for targets, end in ((low, prof.support[0]), (high, prof.support[1])):
                ys = prof.invert_many(targets)
                assert np.max(np.abs(ys - end)) <= 1e-7
                assert np.max(np.abs(prof(ys) - targets)) <= 1e-15
            assert np.all(np.diff(prof.invert_many(high)) <= 0.0)

    def test_zero_dimensional_input(self):
        prof = _sin_profile()
        t = prof(0.7)
        y = prof.invert_many(np.array(t))
        assert isinstance(y, float) and abs(prof(y) - t) <= 1e-15
        assert prof.invert_many(np.float64(t)) == y
        many = prof.invert_many(np.array([t]))
        assert many.shape == (1,) and many[0] == y

    @pytest.mark.parametrize("broken", [np.nan, 0.0])
    def test_broken_cell_raises(self, broken):
        # A panel whose mass is NaN, or stays at its left edge's value,
        # holds no root of a target between its edges' fractions: the loop
        # must raise rather than return a point.
        prof = _sin_profile()
        k = 4
        prof._taylor[1:, k] = broken
        if np.isnan(broken):
            prof._taylor[0, k] = broken
        t = 0.5 * (prof.fractions[k] + prof.fractions[k + 1])
        with pytest.raises(MaxIterations):
            prof.invert_many(np.array([prof(0.01), t]))

    def test_validation(self):
        edges, sums, samples = _adaptive(np.cos, 0.0, 1.0, (0.5,), 1e-12)
        with pytest.raises(ValueError, match="increasing"):
            MonotoneProfile(edges[::-1], sums[0], samples, 0.0, 1.0)
        with pytest.raises(ValueError, match="15 samples"):
            MonotoneProfile(edges, sums[0], samples[:, :7], 0.0, 1.0)
        with pytest.raises(ValueError, match="differ"):
            MonotoneProfile(edges, sums[0], samples, 1.0, 1.0)
        with pytest.raises(ValueError, match="not positive"):
            MonotoneProfile(edges, -sums[0], -samples, 0.0, 1.0)

    def test_depths_outside_the_pass_raise(self, solved):
        # Below the first edge the panel index would wrap to the last
        # panel, and past the last edge the last panel would extrapolate:
        # both name the depth instead, and so does a NaN.  The ends read.
        prof = solved(SPEC_I, 1e-2).cdf
        width = prof.edges[-1]
        for read in (prof.density, prof.fraction):
            for s in (-1e-12, width + 0.1, math.nan):
                with pytest.raises(ValueError, match=re.escape(f"depth {float(s)!r} lies "
                                                               "outside the pass")):
                    read(np.array([0.5 * width, s]))
        assert prof.density(0.0) == prof.fraction(0.0) == 0.0
        assert prof.density(width) == prof.edge_density[-1] and prof.fraction(width) == 1.0

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.floats(min_value=0.05, max_value=1.5))
    def test_round_trip_property(self, y):
        prof = _sin_profile()
        t = prof(y)
        back = prof.invert_many(t)
        assert abs(prof(back) - t) <= 1e-15
        assert abs(back - y) < 1e-8


def legendre_density(prof, s):
    """The density at depths s summed in the Legendre form,
    U_a + half sum c_n I_n(x) with I_n = (P_n+1 - P_n-1)/(2n + 1) and
    I_0 = x + 1: the reference for the profile's Taylor rows."""
    k = np.minimum(np.searchsorted(prof.edges, s, side="right") - 1, prof.half.size - 1)
    x = (s - prof.edges[k]) / prof.half[k] - 1.0
    p = [np.ones_like(x), x]
    for n in range(1, 15):
        p.append(((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1))
    once = [x + 1.0] + [(p[n + 1] - p[n - 1]) / (2 * n + 1) for n in range(1, 15)]
    c = prof.coeffs[:, k]
    return prof.edge_density[k] + prof.half[k] * sum(c[n] * once[n] for n in range(15))


class TestDensityTable:
    """The density's Taylor rows on the canonical solves."""

    @pytest.mark.parametrize("alpha", [1.0, 4.0])
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_rows_meet_the_legendre_form(self, solved, alpha, eps):
        # At the Kronrod nodes and at random points of every panel.
        prof = solved(uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha), eps).cdf
        rng = np.random.default_rng(5)
        left, half = prof.edges[:-1, None], prof.half[:, None]
        w = np.concatenate([np.broadcast_to(_XGK + 1.0, (half.size, 15)),
                            rng.uniform(0.0, 2.0, (half.size, 8))], axis=1)
        s = np.minimum((left + half * w).ravel(), prof.edges[-1])
        peak = np.max(prof.edge_density)
        assert np.max(np.abs(prof.density(s) - legendre_density(prof, s))) <= 1e-15 * peak

    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    def test_edges_and_singular_panels(self, solved, eps):
        # A left edge, w = 0, reads the running Kronrod sum bitwise.  A
        # panel ending at a stress zero holds its Kronrod mean c_0 alone,
        # so it reads the line U_a + half c_0 w.
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
        prof = solved(spec, eps).cdf
        assert np.array_equal(prof.density(prof.edges), prof.edge_density)
        zeros = _solve_zeros(spec, eps).zeros
        ends_at = np.isin(prof.edges, zeros)
        singular = np.flatnonzero(ends_at[:-1] | ends_at[1:])
        assert singular.size >= 2
        for k in singular:
            s = prof.edges[k] + prof.half[k] * np.linspace(0.0, 2.0, 9)[:-1]
            w = (s - prof.edges[k]) / prof.half[k]
            line = prof.edge_density[k] + prof.half[k] * prof.coeffs[0, k] * w
            assert np.array_equal(prof.density(s), line)
