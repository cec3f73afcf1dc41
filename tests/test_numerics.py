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
from monge1d.problem import SourceDensity, normalize_density, uniform_spec
from monge1d.transport import chebyshev_nodes
import reference_inversion
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
        edges, sums, samples = _adaptive(f, l, r, breakpoints, tol)
        return MonotoneProfile(edges, sums[0], samples)

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

    @pytest.mark.parametrize("f, breakpoints, tol", [
        # One steep panel among 64 smooth ones.
        (lambda x: np.tanh((x - 0.3) / 1e-6), np.linspace(0.0, 1.0, 65), 1e-12),
        # Row 0 is exact; only the kink in row 1 is over budget.
        (lambda x: (np.ones_like(x), np.abs(x - 1.0 / 3.0)), np.linspace(0.0, 1.0, 17),
         1e-13),
        # One period on each of 8 panels: the error is spread evenly, and
        # its sum 8.3e-9 lies between one and two budgets.
        (lambda x: np.cos(16.0 * np.pi * x), np.linspace(0.0, 1.0, 9), 6e-9),
    ], ids=["steep", "later_row", "even_spread"])
    def test_every_round_splits_the_worst_panel(self, monkeypatch, f, breakpoints, tol):
        # While a row r is over budget, its worst panel holds at least
        # esum[r] / n > target[r] / n of the error, above the split share
        # target[r] / (2 n): every round splits it, so refinement always
        # makes progress without a fallback split.
        panels = {}   # (a, b) -> (Kronrod column, error column), as the loop holds them
        rounds = []
        gk_panels = numerics._gk_panels

        def columns():
            kron, err = (np.array([col[i] for col in panels.values()]).T for i in (0, 1))
            return err, tol * np.maximum(1.0, np.abs(kron.sum(axis=1)))

        def recorded(g, a, b):
            kron, err, samples = gk_panels(g, a, b)
            if panels:
                # A round passes the halves (a[split], mids) and (mids, b[split]).
                m = a.size // 2
                parents = set(zip(a[:m].tolist(), b[m:].tolist()))
                errs, target = columns()
                worst = int(np.argmax(errs.sum(axis=1) / target))
                rounds.append(list(panels)[int(np.argmax(errs[worst]))] in parents)
                for key in parents:
                    del panels[key]
            for k, key in enumerate(zip(a.tolist(), b.tolist())):
                panels[key] = kron[:, k], err[:, k]
            return kron, err, samples

        monkeypatch.setattr(numerics, "_gk_panels", recorded)
        _adaptive(f, 0.0, 1.0, breakpoints, tol)
        errs, target = columns()
        assert rounds and all(rounds)
        assert np.all(errs.sum(axis=1) <= target)

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


def _sin_profile():
    """The density sin s and its mass 1 - cos s on depths [0, pi/2], read
    off one pass of cos s."""
    edges, sums, samples = _adaptive(np.cos, 0.0, 0.5 * np.pi,
                                     np.linspace(0.0, 0.5 * np.pi, 9), 1e-15)
    return MonotoneProfile(edges, sums[0], samples)


class TestMonotoneProfile:
    """The solved density's one representation, in depth: density and
    mass fraction read off a pass, and the fraction's inverse."""

    def test_reads_the_running_integrals(self):
        # Density sin s and mass 1 - cos s at the depths of a fine probe;
        # the total mass is 1.
        s = np.linspace(0.0, 0.5 * np.pi, 1001)
        prof = _sin_profile()
        density, mass = prof.density(s), prof.total * prof.fraction(s)
        assert np.max(np.abs(density - np.sin(s))) <= 1e-15
        assert np.max(np.abs(mass - (1.0 - np.cos(s)))) <= 1e-15
        assert abs(prof.total - 1.0) <= 1e-15

    def test_invert_round_trip(self):
        prof = _sin_profile()
        s = np.random.default_rng(7).uniform(0.0, 0.5 * np.pi, 100)
        fractions = prof.fraction(s)
        back = prof.invert_many(fractions)
        assert np.abs(prof.fraction(back) - fractions).max() <= 1e-15
        assert np.abs(back - s).max() < 1e-8

    def test_invert_many_inverts_forward_values(self):
        prof = _sin_profile()
        targets = np.linspace(0.0, 1.0, 37)
        s = prof.invert_many(targets)
        assert np.all(np.diff(s) > 0)
        assert np.abs(prof.fraction(s) - targets).max() <= 1e-15

    def test_invert_endpoints_and_clips(self):
        # 0 and 1 return the first and last edges exactly, and so do
        # fractions marginally outside [0, 1].
        prof = _sin_profile()
        ends = np.array([prof.edges[0], prof.edges[-1]] * 2)
        assert np.array_equal(prof.invert_many([0.0, 1.0, -1e-15, 1.0 + 1e-15]), ends)

    def test_singular_panels_hold_their_mean(self):
        # A slope that jumps at 0.5 after a log-type approach: the two
        # graded panels ending there hold their Kronrod mean c_0 alone,
        # within their samples' range, and the other panels, the running
        # density at every edge and the mass are those of the plain pass.
        g = lambda s: np.sign(s - 0.5) * (-1.0 - 1.0 / np.log(np.abs(s - 0.5) / 4.0))
        edges, sums, samples = _adaptive(g, 0.0, 1.0, _graded_edges((0.0, 1.0), (0.5,)),
                                         1e-12)
        plain = MonotoneProfile(edges, sums[0], samples)
        flat = MonotoneProfile(edges, sums[0], samples, singular=(0.5,))
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
        flat = MonotoneProfile(edges, sums[0], samples)
        assert flat.fraction(2.0) == flat.fraction(3.0) == 2.0 / 3.0
        assert flat.invert_many(flat.fraction([2.5])) == 2.0

    @pytest.mark.parametrize("broken", [np.nan, 0.0])
    def test_broken_cell_raises(self, monkeypatch, broken):
        # A panel whose mass is NaN, or stays at its left edge's value,
        # holds no root of a target between its edges' fractions: the loop
        # must raise rather than return a point.  The other target, just
        # past an edge, converges on the first sweep, and a flat panel
        # stalls on the second.  A converged target is never judged again:
        # here its value is made to read 1 too high on every later sweep,
        # yet the message names the broken panel's target alone.
        prof = _sin_profile()
        k = 4
        prof._taylor[1:, k] = broken
        if np.isnan(broken):
            prof._taylor[0, k] = broken
        t = 0.5 * (prof.fractions[k] + prof.fractions[k + 1])
        near = prof.fraction(prof.edges[1] + 1e-9)
        plain, sweeps = numerics._horner, []

        def counted(rows, w):
            sweeps.append(w.size)
            return plain(rows, w)

        monkeypatch.setattr(numerics, "_horner", counted)
        prof.invert_many(np.array([near]))
        assert sweeps == [1]

        def corrupted(rows, w):
            value, slope = counted(rows, w)
            if len(sweeps) > 2:
                value[0] += 1.0
            return value, slope

        monkeypatch.setattr(numerics, "_horner", corrupted)
        message = ("left 1 targets unconverged after 100 steps" if np.isnan(broken)
                   else "stalled in panel 4: ")
        with pytest.raises(MaxIterations, match=re.escape(message)):
            prof.invert_many(np.array([near, t]))
        assert len(sweeps) == (101 if np.isnan(broken) else 3)

    def test_validation(self):
        edges, sums, samples = _adaptive(np.cos, 0.0, 1.0, (0.5,), 1e-12)
        with pytest.raises(ValueError, match="increasing"):
            MonotoneProfile(edges[::-1], sums[0], samples)
        with pytest.raises(ValueError, match="15 samples"):
            MonotoneProfile(edges, sums[0], samples[:, :7])
        with pytest.raises(ValueError, match="not positive"):
            MonotoneProfile(edges, -sums[0], -samples)

    def test_depths_outside_the_pass_raise(self, solved):
        # Below the first edge the panel index would wrap to the last
        # panel, and past the last edge the last panel would extrapolate:
        # both name the depth instead, and so does a NaN.  The ends read.
        prof = solved(SPEC_I, 1e-2).profile
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
    def test_round_trip_property(self, s):
        prof = _sin_profile()
        f = prof.fraction([s])
        back = prof.invert_many(f)
        assert abs(prof.fraction(back) - f)[0] <= 1e-15
        assert abs(back[0] - s) < 1e-8


def _bits(depths):
    return np.ascontiguousarray(depths, dtype=float).view(np.uint64)


TABULATED = normalize_density(SourceDensity(
    interval=(6.0, 8.0), kind="tabulated", nodes=tuple(np.linspace(6.0, 8.0, 7)),
    values=(0.3, 1.7, 0.9, 0.2, 1.1, 1.9, 0.6)))


class TestInversionMatchesReference:
    """`invert_many` sweeps every target of a call until the last one
    converges; the reference loop (`reference_inversion`) drops each target
    as it converges.  A target's arithmetic is the same in both, so the
    depths must agree bit for bit."""

    @pytest.mark.parametrize("source", [SPEC_I.source_density, TABULATED],
                             ids=["uniform", "tabulated"])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    def test_source_cdf_targets(self, solved, source, eps):
        # Both maps' targets, F and 1 - F, on the residual's Chebyshev
        # points.
        prof = solved(SPEC_I, eps).profile
        f = source.cdf(chebyshev_nodes(6.0, 8.0, 1000))
        for targets in (f, 1.0 - f):
            assert np.array_equal(_bits(prof.invert_many(targets)),
                                  _bits(reference_inversion.invert_many(prof, targets)))

    @pytest.mark.parametrize("alpha,eps,offset,assumption", [
        (alpha, eps, offset, assumption)
        for alpha in (0.5, 1.0, 4.0) for eps in (1e-1, 1e-3, 1e-5)
        for offset in (0.0, 1000.0) for assumption in ("I", "II")])
    def test_regime_grid(self, solved, alpha, eps, offset, assumption):
        w = 5.0 / math.sqrt(alpha)
        spec = uniform_spec((offset + w + 0.5, offset + w + 2.5),
                            (offset, offset + w), "I", alpha)
        if assumption == "II":
            spec = mirror_transform(spec)
        prof = solved(spec, eps, 201).profile
        t = chebyshev_nodes(0.0, 1.0, 1000)
        targets = np.concatenate([t, 1.0 - t, np.random.default_rng(3).uniform(size=1000)])
        assert np.array_equal(_bits(prof.invert_many(targets)),
                              _bits(reference_inversion.invert_many(prof, targets)))

    @pytest.mark.parametrize("eps", [1e-1, 1e-5])
    def test_edges_and_ends(self, solved, eps):
        # Fractions equal to the edges' running fractions, 0 and 1, and the
        # doubles on either side of each edge's fraction, the targets
        # closest to a panel's ends.
        for prof in (_sin_profile(), solved(SPEC_I, eps).profile):
            edge = prof.fractions
            targets = np.concatenate([edge, [0.0, 1.0], np.nextafter(edge, 2.0),
                                      np.nextafter(edge, -1.0)])
            assert np.array_equal(_bits(prof.invert_many(targets)),
                                  _bits(reference_inversion.invert_many(prof, targets)))


class TestInverseSweeps:
    """How many sweeps of `_solve_panels` a lone target takes."""

    @staticmethod
    def _sweeps(monkeypatch, prof, target):
        plain, sweeps = numerics._horner, []

        def counted(rows, w):
            sweeps.append(w.size)
            return plain(rows, w)

        monkeypatch.setattr(numerics, "_horner", counted)
        depth = prof.invert_many(np.array([target]))[0]
        monkeypatch.setattr(numerics, "_horner", plain)
        return len(sweeps), depth

    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5])
    def test_edge_stragglers_stop_at_the_edge(self, solved, monkeypatch, eps):
        # A target one double below an inner edge's running fraction has
        # its root within ulps of that edge: its Newton points land past
        # w = 2, and the edge, whose fraction meets the residual stop, is
        # returned.  Bisecting toward w = 2 took up to 21 sweeps at eps 0.1.
        prof = solved(SPEC_I, eps).profile
        worst, edges = 0, 0
        for k, edge in enumerate(prof.fractions[1:-1], start=1):
            target = np.nextafter(edge, -1.0)
            if target in prof.fractions:      # a flat run: no panel to solve
                continue
            sweeps, depth = self._sweeps(monkeypatch, prof, target)
            worst = max(worst, sweeps)
            edges += depth == prof.edges[k]
            assert abs(prof.fraction(depth) - target) <= 2.0 * numerics._EPS * target
        assert worst == 3 and edges > 0

    def test_subnormal_target_stops_on_the_ulp_test(self, solved, monkeypatch):
        # The residual stop 2 eps f underflows to 0 at f = 5e-324, so only
        # the one-ulp test ends this target, after 54 sweeps.
        for eps in (1e-1, 1e-3, 1e-5):
            prof = solved(SPEC_I, eps).profile
            assert self._sweeps(monkeypatch, prof, 5e-324)[0] == 54


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
        prof = solved(uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha), eps).profile
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
        prof = solved(spec, eps).profile
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
