"""Unit tests for the dual algebra and the density solver."""

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import math
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import off_support
from monge1d import duality, numerics
from monge1d.duality import DensitySolution, DualField, assemble_density
from monge1d.energy import duality_gap
from monge1d.errors import CapacityError, DomainError, MaxIterations
from monge1d.oracles import (TentDensity, discrete_expectation_optimizer,
                             mirror_transform, tent_limit_density)
from monge1d.problem import require_capacity, uniform_spec
from monge1d.sweep import epsilon_sweep
from reference_quadrature import integrate
from reference_solves import (boundary_residual, inverted_at, solve_constant,
                              solve_crossing, stress_at, total_mass)
from test_edge_reference import ALPHAS as EDGE_ALPHAS, EPSILONS as EDGE_EPSILONS, spec_of
from test_reference_artifacts import HERE as REFERENCE_DIR, dispatch

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
SPEC_II = uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", 1.0)


class TestBoundaryResidual:
    def test_sign_at_bracket_ends(self):
        # Crossing at the left end: stress <= 0 throughout, so the sweep
        # closes below zero; at the right end the mirror argument.
        assert boundary_residual(4.5, (3.0, 5.0), SPEC_I, 1e-3) < 0.0
        assert boundary_residual(12.5, (3.0, 5.0), SPEC_I, 1e-3) > 0.0
        assert boundary_residual(4.5, (-5.0, -3.0), SPEC_II, 1e-3) > 0.0
        assert boundary_residual(12.5, (-5.0, -3.0), SPEC_II, 1e-3) < 0.0

    def test_monotone_in_r(self):
        rs = np.linspace(4.51, 12.49, 50)
        vals_i = np.array([boundary_residual(float(r), (3.0, 5.0), SPEC_I, 0.01,
                                             quad_tol=1e-11) for r in rs])
        assert np.all(np.diff(vals_i) > 0)
        vals_ii = np.array([boundary_residual(float(r), (-5.0, -3.0), SPEC_II,
                                              0.01, quad_tol=1e-11) for r in rs])
        assert np.all(np.diff(vals_ii) < 0)

    def test_degenerate_support_rejected(self):
        with pytest.raises(ValueError):
            boundary_residual(8.0, (5.0, 5.0), SPEC_I, 0.1)


class TestSolveConstant:
    def test_small_smoothing_matches_sharp_limit(self):
        # In the vanishing-smoothing limit the stress zero sits at the
        # support midpoint, so the constant approaches mid^2/2 = 8.
        c = solve_constant((3.0, 5.0), SPEC_I, 1e-3)
        assert c == pytest.approx(8.0, abs=0.05)
        assert 4.5 < c < 12.5
        assert abs(boundary_residual(c, (3.0, 5.0), SPEC_I, 1e-3)) <= 1e-12

    def test_mirror(self):
        c = solve_constant((3.0, 5.0), SPEC_I, 1e-3)
        d = solve_constant((-5.0, -3.0), SPEC_II, 1e-3)
        assert d == pytest.approx(8.0, abs=0.05)
        assert d == pytest.approx(c, abs=1e-9)

    def test_monotone_in_left_endpoint(self):
        ss = np.linspace(1.0, 4.8, 50)
        cs = np.array([solve_constant((float(s), 5.0), SPEC_I, 0.01,
                                      tol=1e-10) for s in ss])
        assert np.all(np.diff(cs) > 0)


class TestTotalMass:
    def test_vanishing_support(self):
        assert total_mass(5.0, SPEC_I, 1e-3) == 0.0
        assert total_mass(5.0 - 1e-4, SPEC_I, 1e-3) < 1e-4

    def test_sharp_limit_mass_at_three(self):
        # Sharp-interface mass for support [3, 5] at alpha 1 is exactly 1.
        assert total_mass(3.0, SPEC_I, 1e-3) == pytest.approx(1.0, abs=2e-3)

    def test_full_width_mass(self):
        # Sharp-interface mass alpha (d - s)^2 / 4 = 6.25 at full width.
        pi0 = total_mass(0.0, SPEC_I, 1e-3)
        assert pi0 > 1.0
        assert pi0 == pytest.approx(6.25, abs=0.05)

    def test_monotone_in_endpoint(self):
        ss = np.linspace(0.2, 4.5, 50)
        pis = np.array([total_mass(float(s), SPEC_I, 0.01,
                                   constant_tol=1e-10, quad_tol=1e-10)
                        for s in ss])
        assert np.all(np.diff(pis) < 0)
        # Orientation II: mass grows as the endpoint moves right.
        ts = np.linspace(-4.5, -0.2, 25)
        pis2 = np.array([total_mass(float(t), SPEC_II, 0.01,
                                    constant_tol=1e-10, quad_tol=1e-10)
                         for t in ts])
        assert np.all(np.diff(pis2) > 0)


class TestCapacity:
    # One closed-form rule: the target must be at least as wide as the
    # unit-mass tent, 2/sqrt(alpha).
    def test_wide_enough(self):
        assert SPEC_I.sharp_width == 2.0
        require_capacity(SPEC_I)

    def test_too_narrow(self):
        spec = uniform_spec((6.0, 8.0), (0.0, 1.0), "I", 1.0)
        with pytest.raises(CapacityError, match="1.0 is below 2/sqrt"):
            require_capacity(spec)

    def test_slope_bound_too_small(self):
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 0.1)
        with pytest.raises(CapacityError, match="6.32"):
            require_capacity(spec)

    def test_margin_value(self):
        # The tent of the sharp width holds unit mass; spread over the
        # whole canonical target it would hold alpha width^2 / 4 = 6.25.
        for alpha in (0.5, 1.0, 4.0):
            spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
            tent = tent_limit_density(spec)
            width = tent.support[1] - tent.support[0]
            assert width == spec.sharp_width
            assert tent.alpha * width ** 2 / 4.0 == pytest.approx(1.0, rel=1e-15)
        full = TentDensity((0.0, 5.0), 1.0)
        ys = np.linspace(0.0, 5.0, 3)
        assert np.trapezoid(full(ys), ys) == 6.25

    def test_invalid_spec_rejected(self):
        # Admissibility is checked before capacity: a negative slope bound
        # is a DomainError, not a failed square root.
        bad = uniform_spec((6.0, 8.0), (0.0, 7.0), "I", -1.0)
        with pytest.raises(DomainError):
            assemble_density(bad, 1e-3, 101)

    @pytest.mark.parametrize("entry", [
        require_capacity, tent_limit_density,
        lambda spec: epsilon_sweep(spec, [1e-3]),
        lambda spec: discrete_expectation_optimizer(spec, 101),
        lambda spec: assemble_density(spec, 1e-3, 101),
    ], ids=["require_capacity", "tent_limit_density", "epsilon_sweep",
            "discrete_expectation_optimizer", "assemble_density"])
    @pytest.mark.parametrize("alpha,target", [
        (0.0, (0.0, 5.0)), (-1.0, (0.0, 5.0)), (math.nan, (0.0, 5.0)),
        (math.inf, (0.0, 5.0)), (1.0, (0.0, math.inf)),
    ], ids=["alpha_0", "alpha_-1", "alpha_nan", "alpha_inf", "infinite_target"])
    def test_no_capacity_without_a_width(self, entry, alpha, target):
        # A slope bound that is not finite and positive, or an unbounded
        # target, has no sharp width to compare: every entry point that
        # takes the capacity verdict raises DomainError, as the solve does.
        with pytest.raises(DomainError):
            entry(uniform_spec((6.0, 8.0), target, "I", alpha))


class TestSolveSupport:
    def test_sharp_limit_endpoint(self, solved):
        # Sharp-interface support width is 2/sqrt(alpha) = 2, so the free
        # endpoint sits near 3.
        p = solved(SPEC_I, 1e-3).support_endpoint
        assert p == pytest.approx(3.0, abs=0.05)
        assert abs(total_mass(p, SPEC_I, 1e-3) - 1.0) <= 1e-10

    def test_mirror(self, solved):
        p = solved(SPEC_I, 1e-3).support_endpoint
        q = solved(SPEC_II, 1e-3).support_endpoint
        assert q == pytest.approx(-3.0, abs=0.05)
        assert q == pytest.approx(-p, abs=1e-9)

    def test_capacity_error(self):
        spec = uniform_spec((6.0, 8.0), (0.0, 1.0), "I", 1.0)
        with pytest.raises(CapacityError, match="width 1.0 .* = 2.0"):
            assemble_density(spec, 1e-3, 101)


class TestAssembleDensity:
    def test_boundary_zeros_and_nonnegativity(self, solved):
        sol = solved(SPEC_I, 1e-3)
        assert sol.values[[0, -1]].tolist() == [0.0, 0.0]
        assert float(np.min(sol.values)) >= 0.0
        assert sol.profile.edge_density[-1] == pytest.approx(0.0, abs=1e-9)

    def test_mass_and_expectation(self, solved):
        sol = solved(SPEC_I, 1e-3)
        assert sol.mass == pytest.approx(1.0, abs=1e-8)
        assert sol.expectation == pytest.approx(4.0, abs=0.02)

    def test_peak(self, solved):
        sol = solved(SPEC_I, 1e-3)
        loc = sol.dual.zeros[1]
        height = sol(loc)
        assert loc == pytest.approx(4.0, abs=0.02)
        assert stress_at(sol.dual, loc) == 0.0
        assert height == pytest.approx(1.0, abs=0.02)

    def test_free_endpoint_stress_vanishes(self, solved):
        # The free-endpoint condition theta(m) = H'(0) = 0 holds exactly,
        # and the stress equation carries the mass multiplier.
        for spec in (SPEC_I, SPEC_II):
            sol = solved(spec, 1e-3)
            assert stress_at(sol.dual, sol.support_endpoint) == 0.0
            assert sol.dual.zeros[0] == sol.support_endpoint
            ys = sol.nodes
            assert np.abs(sol.dual.theta_y(ys) + np.abs(ys)
                          + sol.dual.multiplier).max() <= 1e-12

    def test_single_interior_maximum(self, solved):
        sol = solved(SPEC_I, 1e-3)
        nodes, v = sol.nodes, sol.values
        k = int(np.argmax(v))
        assert 0 < k < v.size - 1
        assert abs(nodes[k] - sol.dual.zeros[1]) <= 1e-12
        assert np.all(np.diff(v[:k + 1]) >= -1e-12)
        assert np.all(np.diff(v[k:]) <= 1e-12)

    def test_equilibrium_identity_at_nodes(self, solved):
        sol = solved(SPEC_I, 1e-3)
        theta = stress_at(sol.dual, sol.nodes)
        log_lam, slope = inverted_at(sol.dual, sol.nodes, 1.0, 1e-3)
        assert np.abs(np.exp(log_lam) * slope - theta).max() <= 1e-10

    def test_profile_derivative_matches_slope(self, solved):
        # The delivered density's derivative, by central differences of the
        # solution across each node, vs the analytic slope, away from the
        # two stress zeros (the peak and the free endpoint), where the
        # profile curvature blows up as eps shrinks.
        sol = solved(SPEC_I, 1e-3)
        y = sol.nodes
        keep = ((np.abs(y - sol.dual.zeros[1]) > 0.2)
                & (np.abs(y - sol.support_endpoint) > 0.2))
        keep[[0, -1]] = False
        d = 1e-6
        dv = (sol(y[keep] + d) - sol(y[keep] - d)) / (2.0 * d)
        assert np.abs(dv - inverted_at(sol.dual, y[keep], 1.0, 1e-3)[1]).max() < 1e-7

    def test_mirror_density(self, solved):
        sol = solved(SPEC_I, 1e-3)
        mir = solved(SPEC_II, 1e-3)
        ys = np.linspace(0.0, 5.0, 997)
        assert np.abs(sol(ys) - mir(-ys)).max() <= 1e-10
        assert mir.dual.constant == pytest.approx(sol.dual.constant, abs=1e-10)

    def test_zero_extension(self, solved):
        sol = solved(SPEC_I, 1e-3)
        lo, hi = sol.support
        assert sol(0.5 * (sol.spec.target_interval[0] + lo)) == 0.0
        assert sol(-100.0) == 0.0
        outside = off_support(sol)
        assert outside.size > 0 and np.all(sol(outside) == 0.0)

    def test_evaluation_matches_nodes(self, solved):
        sol = solved(SPEC_I, 1e-3)
        assert np.abs(sol(sol.nodes) - sol.values).max() < 1e-13

    def test_strong_smoothing_runs_over_the_scale_ceiling(self, solved):
        # For this grid the exact solution needs scale factors above 1
        # near the support ends; the solver follows the algebra and
        # reports it rather than clamping.
        sol = solved(SPEC_I, 0.1)
        assert sol.max_log_lambda > 0.0
        assert sol.max_abs_slope > sol.spec.alpha
        consistency = math.sqrt(sol.spec.alpha ** 2
                                + 2.0 * sol.epsilon * sol.max_log_lambda)
        assert sol.max_abs_slope == pytest.approx(consistency, rel=1e-12)

    def test_weak_smoothing_stays_under_slope_bound(self, solved):
        # With a slope bound well above width^(-2)-type thresholds the
        # whole solution stays in the nominal regime.
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 4.0)
        sol = solved(spec, 0.1)
        assert sol.max_log_lambda <= 0.0
        assert sol.max_abs_slope <= spec.alpha * (1.0 + 1e-10)
        dense = np.linspace(sol.support[0], sol.support[1], 20001)
        slope = inverted_at(sol.dual, dense, spec.alpha, 0.1)[1]
        assert float(np.max(np.abs(slope))) <= spec.alpha

    def test_largest_stress_is_at_a_support_end(self):
        # The parabola's vertex, (z + c)/2 in depth, beats the anchor's
        # |theta| = zc/2 with its (z - c)^2/8 only when c < (3 - 2 sqrt 2) z.
        # Wherever it lies inside the support the solved zeros keep c
        # above twice that (measured c >= 0.404 z, at alpha 0.25, eps 0.1),
        # so the solution probes the two support ends, depths 0 and S,
        # alone and reads the same largest slope as with the vertex probed,
        # bit for bit.  Outside the support (a full target, z past the far
        # edge) c/z falls to 0.005, but no stress there is delivered.
        threshold = 3.0 - 2.0 * math.sqrt(2.0)
        for alpha, eps, factor in itertools.product(
                (0.25, 0.5, 1.0, 2.0, 4.0, 8.0), (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                (1.0, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0)):
            sol = assemble_density(_regime_spec(alpha, factor, 0.0), eps, 33)
            z, c = sol.depth_zeros
            S, vertex = float(sol.profile.edges[-1]), 0.5 * (z + c)
            probes = [0.0, S]
            if 0.0 < vertex < S:
                assert c >= 2.0 * threshold * z
                probes.append(vertex)
            s = np.array(probes)
            in_depth = DualField((z, c), -1.0)      # the stress (s - z)(s - c)/2
            peak = s[[np.argmax(np.abs(stress_at(in_depth, s)))]]
            slope = inverted_at(in_depth, peak, alpha, eps)[1]
            assert sol.max_abs_slope == abs(float(slope[0]))

    @pytest.mark.parametrize("alpha,slack", [(0.5, 10.0), (1.0, 2.0), (2.0, 0.65),
                                             (4.0, 0.08)])
    def test_largest_slope_follows_its_first_order_form(self, alpha, slack):
        # The module docstring's form, on a free end at 2.5 sharp widths:
        # the excess over alpha, divided by its first-order term (eps^2 at
        # alpha 1), read 1 - c eps with c 7.79-7.89, 1.499-1.546, 0.507
        # and 0.0609 at alpha 0.5, 1, 2 and 4 over eps 1e-3 to 1e-5
        # (alpha 1's spread at 1e-5 is the rounding of slope - 1 = 1e-10).
        # `slack` bounds c.
        for eps in (1e-3, 1e-4, 1e-5):
            slope = assemble_density(_regime_spec(alpha, 2.5, 0.0), eps).max_abs_slope
            if alpha == 1.0:
                ratio = (slope - 1.0) / eps ** 2
            else:
                ratio = (slope / alpha - 1.0) / (-2.0 * eps * math.log(alpha) / alpha ** 2)
            assert 1.0 - slack * eps <= ratio < 1.0

    def test_mass_conservation_across_epsilon(self, solved):
        for eps in (0.1, 0.01, 1e-3):
            sol = solved(SPEC_I, eps)
            assert sol.mass == pytest.approx(1.0, abs=1e-8)

    def test_capacity_error_propagates(self):
        spec = uniform_spec((6.0, 8.0), (0.0, 1.0), "I", 1.0)
        with pytest.raises(CapacityError):
            assemble_density(spec, 1e-3, 101)

    def test_invalid_spec_rejected(self):
        bad = uniform_spec((6.0, 8.0), (0.0, 7.0), "I", 1.0)
        with pytest.raises(DomainError):
            assemble_density(bad, 0.1, 101)

    @pytest.mark.parametrize("eps,grid_n,named", [
        (0.0, 101, "0.0"), (-1e-3, 101, "-0.001"), (math.nan, 101, "nan"),
        (math.inf, 101, "inf"), (1e-3, 2001.0, "2001.0"), (1e-3, 32, "32")],
        ids=["eps_zero", "eps_negative", "eps_nan", "eps_inf", "grid_float",
             "grid_small"])
    def test_unusable_epsilon_or_grid_rejected(self, eps, grid_n, named):
        # Rejected before any solve, naming the value, rather than failing
        # in the solve (a division by zero, Newton steps to their cap, a
        # NaN warning) or in the grid's linspace.
        with pytest.raises(ValueError, match=named):
            assemble_density(SPEC_I, eps, grid_n)


class TestFullTargetRegime:
    # Width 1.02 times the sharp-limit 2/sqrt(alpha) at eps = 0.1: a free
    # endpoint at the far edge holds only 0.861, so the support is the
    # whole target with a Dirichlet far edge where the stress is positive.
    SPEC = uniform_spec((5.54, 7.54), (3.0, 5.04), "I", 1.0)

    def test_support_fills_the_target(self, solved):
        spec, far_edge = self.SPEC, self.SPEC.target_interval[0]
        assert total_mass(far_edge, spec, 0.1) == pytest.approx(
            0.861, abs=1e-3)
        assert spec.target_width == pytest.approx(1.02 * spec.sharp_width)
        sol = solved(spec, 0.1, 801)
        assert sol.support == spec.target_interval
        assert sol.support_endpoint == far_edge
        assert sol.dual.zeros[0] < far_edge
        assert stress_at(sol.dual, far_edge) > 0.0
        assert sol.mass == pytest.approx(1.0, abs=1e-10)
        assert sol.values[0] == sol.values[-1] == 0.0
        assert sol.clip_depth <= 1e-12

    def test_mirror(self, solved):
        sol = solved(self.SPEC, 0.1, 801)
        mir = solved(mirror_transform(self.SPEC), 0.1, 801)
        assert np.abs(mir.values[::-1] - sol.values).max() <= 1e-10
        assert mir.dual.multiplier == pytest.approx(sol.dual.multiplier,
                                                    abs=1e-10)


class TestTranslationInvariance:
    # Shifting target and source by d shifts the cost integral of
    # |y| u by exactly d on unit mass, so the minimizer shifts by d.
    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    def test_shifted_problem_gives_shifted_solution(self, solved, spec):
        d = 1000.0 * spec.orientation
        shifted = uniform_spec(
            tuple(x + d for x in spec.source_interval),
            tuple(x + d for x in spec.target_interval), spec.assumption, 1.0)
        sol = solved(spec, 0.01, 801)
        moved = solved(shifted, 0.01, 801)
        assert abs(moved.support_endpoint - (sol.support_endpoint + d)) <= 1e-9
        assert abs(moved.expectation - (sol.expectation + d)) <= 1e-9
        # The slope maximum is read in depth, off the shared depth zeros.
        assert moved.max_log_lambda == sol.max_log_lambda

    def test_shifted_twins_read_one_slope_maximum(self):
        # A problem at offset 1000 under orientation II and its offset-0
        # twin under orientation I share their depth zeros and far edge, so
        # the slope maxima read off them agree bit for bit, on every point
        # of the edge grid.
        for alpha, eps in itertools.product(EDGE_ALPHAS, EDGE_EPSILONS):
            near, far = (assemble_density(spec_of(target, alpha), eps)
                         for target in ("offset_0_I", "offset_1000_II"))
            assert [near.max_abs_slope.hex(), near.max_log_lambda.hex()] == [
                far.max_abs_slope.hex(), far.max_log_lambda.hex()], (alpha, eps)


def _regime_spec(alpha, factor, offset):
    """Target [offset, offset + factor * 2/sqrt(alpha)], source 0.5 beyond."""
    w = factor * 2.0 / math.sqrt(alpha)
    return uniform_spec((offset + w + 0.5, offset + w + 2.5),
                        (offset, offset + w), "I", alpha)


def _assert_contracts(sol):
    """Both contracts of the coupled solve behind the solution, and no
    clipped density; returns that solve's record."""
    record = duality._solve_zeros(sol.spec, sol.epsilon)
    assert abs(record.mass_residual) <= 1e-10
    assert abs(record.closure) <= 0.9e-12
    assert sol.clip_depth == 0.0
    return record


class TestCoupledSolve:
    """The coupled Newton on (z, c) meets both contracts, and agrees with
    the bracketed solves it replaced: the nested crossing solve at its
    free zero and the nested mass at that zero."""

    REGIMES = {
        "eps_floor": (_regime_spec(1.0, 2.5, 0.0), 1e-6),
        "near_capacity": (_regime_spec(1.0, 1.02, 0.0), 1e-2),
        "offset_1000": (_regime_spec(1.0, 2.5, 1000.0), 1e-2),
        "alpha_0.5": (_regime_spec(0.5, 2.5, 0.0), 1e-2),
        "alpha_4": (_regime_spec(4.0, 2.5, 0.0), 1e-2),
        "full_target": (TestFullTargetRegime.SPEC, 0.1),
    }

    @pytest.mark.parametrize("assumption", ["I", "II"])
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_contracts_and_nested_reference(self, regime, assumption):
        spec, eps = self.REGIMES[regime]
        if assumption == "II":
            spec = mirror_transform(spec)
        sol = assemble_density(spec, eps, 201)
        z, c = sol.dual.zeros
        # With a free end the start, the tabulated zeros, lands at the
        # rounding floor of the zeros, and the solve returns from the
        # start's own pass.
        solo = _assert_contracts(sol)
        assert (solo.steps == 0) == (regime != "full_target")
        assert abs(total_mass(z, spec, eps) - 1.0) <= 1e-9
        assert abs(solve_crossing(sol.support, z, spec, eps) - c) <= 1e-9
        assert spec.anchor - spec.orientation * solo.zeros[0] == z
        if regime == "full_target":
            assert sol.support == spec.target_interval

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("assumption", ["I", "II"])
    def test_converges_at_the_sharp_width(self, alpha, assumption):
        # The narrowest target the capacity rule accepts, down the epsilon
        # ladder.  The support fills the target and the free zero lies
        # beyond the far edge, where the residuals depend on it only
        # through the slope's log layer: they reach their rounding floor
        # (closure 1e-16, mass residual 0) while the proposed |dz| stays far
        # above the zeros' ulps (alpha 0.5, eps 1e-6), and the solve stops
        # once they no longer halve.  The solve starts from the table's free
        # zeros, z past the far edge; where eps-hat exceeds 0.2 the table is
        # read at its top.
        spec = _regime_spec(alpha, 1.0, 0.0)
        if assumption == "II":
            spec = mirror_transform(spec)
        assert spec.target_width == spec.sharp_width
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            sol = assemble_density(spec, eps, 101)
            with mock.patch.object(duality, "_zero_residuals",
                                   wraps=duality._zero_residuals) as counted:
                record = _assert_contracts(sol)
            assert sol.support == spec.target_interval
            assert counted.call_count == record.steps + 1

    @pytest.mark.parametrize("alpha,eps", [(1.0, 1e-1), (1.0, 1e-3),
                                           (4.0, 1e-1), (4.0, 1e-3)])
    def test_quadrature_pass_budget(self, adaptive_passes, alpha, eps):
        # Every adaptive quadrature pass of one canonical solve is a Newton
        # residual evaluation: the expectation and the assembly's values
        # and cell masses ride on the solve's last pass, and no root solve
        # runs besides the coupled Newton, whose Jacobian rides on the
        # same pass: one pass per step, plus the start's.  The tabulated
        # start leaves no step.
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
        with mock.patch.object(duality, "_zero_residuals",
                               wraps=duality._zero_residuals) as residuals:
            assemble_density(spec, eps)
        passes = len(adaptive_passes)
        steps = duality._solve_zeros(spec, eps).steps
        assert passes == residuals.call_count == steps + 1
        assert steps == 0

    def test_exhausted_step_budget_raises(self, monkeypatch):
        # At the sharp width the solve takes several steps at every eps.
        monkeypatch.setattr(duality, "_ZERO_MAX_STEPS", 1)
        with pytest.raises(MaxIterations):
            assemble_density(_regime_spec(1.0, 1.0, 0.0), 1e-3, 101)

    @pytest.mark.parametrize("factor", [0.7, 0.5])
    def test_overflowing_stress_raises_before_its_pass(self, factor):
        # Below the sharp width, which the capacity rule refuses, the steps
        # walk z out by a roughly constant factor each.  At alpha 4, eps
        # 1e-3 on 0.7 and 0.5 sharp widths the stress outgrows the float
        # range before the step cap: the solve raises before the pass that
        # would square it, and nothing warns (the suite turns a
        # RuntimeWarning into an error).
        spec = uniform_spec((30.0, 32.0), (0.0, factor), "I", 4.0)
        assert spec.target_width == factor * spec.sharp_width
        with pytest.raises(MaxIterations, match=r"squared stress .*\^2 overflows"):
            duality._solve_zeros(spec, 1e-3)

    @pytest.mark.parametrize("residuals,jacobian",
                             [((math.nan, 0.0), np.eye(2)),
                              ((1e-3, 1e-3), np.eye(2) * math.nan),
                              ((1e-3, 1e-3), np.zeros((2, 2)))],
                             ids=["non_finite", "non_finite_jacobian",
                                  "singular_jacobian"])
    def test_unusable_residuals_raise(self, monkeypatch, residuals, jacobian):
        # Residuals or a Jacobian that are NaN, or residuals that do not
        # move with the zeros, give no Newton step; the solve must say so.
        monkeypatch.setattr(duality, "_zero_residuals",
                            lambda *args: (np.array(residuals), jacobian, None))
        with pytest.raises(MaxIterations):
            assemble_density(SPEC_I, 1e-3, 101)

    def test_vanishing_z_column_raises(self, monkeypatch):
        # Residuals that follow both zeros at the start, and after one step
        # no longer move with z, so that no root exists: the exact
        # Jacobian is singular there, and the solve must raise without
        # ever stepping to a NaN.
        seen = []

        def residuals(zeros, *args):
            seen.append(zeros)
            z, c = zeros
            k = 1.0 if len(seen) == 1 else 0.0
            F = [k * (z - 2.0) + (c - 1.0) + 0.5,
                 k * (z - 2.0) + 2.0 * (c - 1.0) + 0.25, 0.0]
            return np.array(F), np.array([[k, 1.0], [k, 2.0]]), None

        monkeypatch.setattr(duality, "_zero_residuals", residuals)
        with pytest.raises(MaxIterations):
            duality._solve_zeros(SPEC_I, 1e-3)
        assert len(seen) == 2
        assert np.all(np.isfinite(seen))

    def test_exact_root_stops_on_a_zero_step(self, monkeypatch):
        # Residuals that vanish exactly after the first step propose a zero
        # Newton step next: the solve declines it and returns the zeros of
        # the pass it has, after one step and two passes.
        seen = []

        def residuals(zeros, *args):
            seen.append(zeros)
            z, c = zeros
            f = [(z - 2.0) + (c - 1.0) + 0.5, (z - 2.0) - (c - 1.0) + 0.25]
            F = f + [0.0] if len(seen) == 1 else [0.0] * 3
            return np.array(F), np.array([[1.0, 1.0], [1.0, -1.0]]), None

        monkeypatch.setattr(duality, "_zero_residuals", residuals)
        solved = duality._solve_zeros(SPEC_I, 1e-3)
        assert solved.steps == 1 and len(seen) == 2
        assert solved.zeros == seen[1]
        assert solved.closure == solved.mass_residual == 0.0

    @pytest.mark.parametrize("kind", ["free_end", "full_target", "offset_1000"])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    def test_declined_step_moves_nothing(self, alpha, eps, kind):
        # The solve returns the zeros of a pass whose proposed Newton step
        # it declines.  Taken, that step moves the closure and the mass by
        # their rounding alone (measured at most 1.6e-15).
        # - With a free end, near the origin or not, the exit is the one
        #   on the proposed step: it moves the zeros by at most 4 ulps of
        #   the larger depth (measured 0.5-3.3 ulps), and the moment and
        #   the three energy integrals by at most 3.6e-15 and 6.7e-16.
        # - At the sharp width the support fills the target and the
        #   residuals follow z only through the slope's log layer, so the
        #   solve stops when the residuals no longer halve: the declined
        #   step moves z along that flat column by up to 7e7 ulps (alpha 4,
        #   eps 1e-6), and the dual energy row by up to 1.3e-7.  The gap
        #   there reads up to 6.6e-13 at alpha 4, as it did before the exit
        #   on the proposed step.
        factor, offset = {"free_end": (2.5, 0.0), "full_target": (1.0, 0.0),
                          "offset_1000": (2.5, 1000.0)}[kind]
        for assumption in ("I", "II"):
            spec = _regime_spec(alpha, factor, offset)
            if assumption == "II":
                spec = mirror_transform(spec)
            sol = assemble_density(spec, eps, 101)
            solved = duality._solve_zeros(spec, eps)
            F, J, _ = duality._zero_residuals(solved.zeros, spec, eps, 1e-13)
            assert F[:3].tolist() == [solved.closure, solved.mass_residual, solved.moment]
            delta = np.linalg.solve(J, -F[:2])
            z, c = solved.zeros
            moved = duality._zero_residuals((z + delta[0], c + delta[1]), spec, eps,
                                            1e-13)[0]
            change = np.abs(moved - F)
            assert np.all(change[:2] <= 2e-15)
            report = duality_gap(sol)
            gap = abs(report.gap_primal_dual) / max(1.0, abs(report.primal))
            if kind == "full_target":
                assert gap <= 1e-12
                continue
            assert np.max(np.abs(delta)) <= 4.0 * np.spacing(max(z, c))
            assert change[2] <= 8e-15 and np.all(change[3:] <= 2e-15)
            assert gap <= 2e-13

    @pytest.mark.parametrize("factor", [1.0, 1.02, 2.5])
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    def test_jacobian_matches_central_differences(self, alpha, eps, factor):
        # The exact Jacobian at the tent start and at the solution, with z
        # inside the target (factor 2.5) and past its far edge (the sharp
        # width, and 1.02 at eps 1e-1 for alpha <= 1), against central
        # differences.  At the sharp width the tent start has z exactly at
        # the far edge, where S = min(z, width) kinks and the residuals
        # have no derivative in z: there the z column is the left-sided
        # one, which the Jacobian gives, and is checked by the one-sided
        # second-order difference from below.
        spec = _regime_spec(alpha, factor, 0.0)
        width = spec.target_width
        tent = (spec.sharp_width, 0.5 * min(spec.sharp_width, width))
        solution = assemble_density(spec, eps).depth_zeros
        for zeros in (tent, solution):
            F = lambda dz, dc: duality._zero_residuals(
                (zeros[0] + dz, zeros[1] + dc), spec, eps, 0.0)[0][:2]
            _, J, _ = duality._zero_residuals(zeros, spec, eps, 0.0)
            hz, hc = 1e-6 * max(width, zeros[0] - width), 1e-6 * width
            if zeros[0] == width:
                dz = 3.0 * F(0.0, 0.0) - 4.0 * F(-hz, 0.0) + F(-2.0 * hz, 0.0)
            else:
                dz = F(hz, 0.0) - F(-hz, 0.0)
            dc = F(0.0, hc) - F(0.0, -hc)
            differences = np.column_stack([dz / (2.0 * hz), dc / (2.0 * hc)])
            assert np.max(np.abs(J - differences)) <= 1e-9 * np.max(np.abs(J))

    @pytest.mark.parametrize("kind", ["free_end", "full_target", "offset_1000"])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    def test_residuals_are_the_gradient_of_a_convex_dual(self, alpha, eps, kind):
        # In depth the stress is s^2/2 - b s + a, with a = zc/2 and
        # b = (z + c)/2.  The solve's residuals (closure aim 0) are the
        # gradient of G(a, b) = integral of H*(theta) - b over [0, S],
        # H*(theta) = lam (g^2 - eps) + eps lam_min, which is minus the
        # pass's dual energy row plus eps lam_min S: grad G = (I, M - 1 - S I).
        # Mapped to (a, b) the exact Jacobian is G's Hessian,
        # T J P^-1 with T = [[1, 0], [-S, 1]] and P = d(a, b)/d(z, c), less
        # (0, I (1, 0) P^-1) where S = z moves with z.  Measured over both
        # orientations, at the solution and 2% off it:
        # - central differences of G (h = 1e-5) match the gradient to
        #   1.3e-8 at alpha 4 and 9.6e-10 at alpha <= 1, the difference's
        #   own h^2 error (1.3e-6 at h = 1e-4);
        # - H is symmetric to 2.8e-15 relative; without the I term it reads
        #   1e-2 asymmetric off the solution at a free end;
        # - H is positive definite.  On a full target G follows z only
        #   through the slope's log layer, and the eigenvalue ratio falls
        #   with eps: 5e-3 eps at alpha 4, the smallest.
        factor, offset = {"free_end": (2.5, 0.0), "full_target": (1.0, 0.0),
                          "offset_1000": (2.5, 1000.0)}[kind]
        h = 1e-5
        for assumption in ("I", "II"):
            spec = _regime_spec(alpha, factor, offset)
            if assumption == "II":
                spec = mirror_transform(spec)
            width = spec.target_width

            def dual(a, b):
                r = math.sqrt(b * b - 2.0 * a)
                z, c = b + r, b - r
                F, J, _ = duality._zero_residuals((z, c), spec, eps, 0.0)
                S = min(z, width)
                G = -F[4] + eps * math.exp(-alpha ** 2 / (2.0 * eps)) * S - b
                return G, F, J, S

            z, c = assemble_density(spec, eps).depth_zeros
            for off, (z, c) in ((False, (z, c)), (True, (1.02 * z, 0.98 * c))):
                a, b = 0.5 * z * c, 0.5 * (z + c)
                _, F, J, S = dual(a, b)
                gradient = [F[0], F[1] - S * F[0]]
                differences = [(dual(a + h, b)[0] - dual(a - h, b)[0]) / (2.0 * h),
                               (dual(a, b + h)[0] - dual(a, b - h)[0]) / (2.0 * h)]
                assert np.max(np.abs(np.subtract(differences, gradient))) <= (
                    2e-8 if alpha > 1.0 else 1.5e-9)
                P_inv = np.linalg.inv([[0.5 * c, 0.5 * z], [0.5, 0.5]])
                H = np.array([[1.0, 0.0], [-S, 1.0]]) @ J @ P_inv
                if z < width:
                    assert (abs(H[0, 1] - H[1, 0]) >= 1e-3 * np.max(np.abs(H))) == off
                    H[1] -= F[0] * P_inv[0]
                assert abs(H[0, 1] - H[1, 0]) <= 1e-14 * np.max(np.abs(H))
                low, high = np.linalg.eigvalsh(0.5 * (H + H.T))
                assert low >= 2e-3 * eps * high > 0.0

    def test_work_counts_are_pinned(self, adaptive_passes):
        # Newton steps and quadrature passes over a fixed set of regimes.
        # Both are counts, bitwise repeatable under one numpy dispatch: a
        # change that does more work shows here as a new count.  The pin is
        # recorded per dispatch, as the reference tests record their bytes:
        # under the one recorded with them, (17, 29); under any other, the
        # count measured with numpy's AVX-512 targets off
        # (NPY_ENABLE_CPU_FEATURES=X86_V3, and X86_V2 alike), (16, 28).  One
        # solve moves, the full target at alpha 1, eps 0.1, 1.02 sharp
        # widths: its free zero is ill-conditioned there, and numpy's
        # vector exp and log round per dispatch target, so the 4-ulp stop
        # is met one step apart.  `test_off_dispatch.py` runs the other pin.
        points = [(_regime_spec(alpha, factor, 0.0), eps) for alpha, eps, factor
                  in itertools.product((0.5, 1.0, 4.0), (1e-1, 1e-4), (1.02, 2.5))]
        for spec, eps in points:
            assemble_density(spec, eps, 101)
        passes = len(adaptive_passes)
        steps = sum(duality._solve_zeros(spec, eps).steps for spec, eps in points)
        recorded = json.loads((REFERENCE_DIR / "dispatch.json").read_text())
        assert (steps, passes) == ((17, 29) if dispatch() == recorded else (16, 28))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(alpha=st.floats(min_value=0.5, max_value=4.0),
           log_eps=st.floats(min_value=-6.0, max_value=-1.0),
           factor=st.floats(min_value=1.0, max_value=3.0),
           offset=st.floats(min_value=0.0, max_value=1000.0),
           assumption=st.sampled_from(["I", "II"]))
    def test_edge_regimes_meet_both_contracts(self, alpha, log_eps, factor,
                                              offset, assumption):
        # Both contracts, no clip and the nested reference over the edge
        # regimes: steep and shallow alpha, the eps floor, targets from the
        # sharp width to three times it, far from the origin.  At an
        # offset, offset + width may round below the sharp width, which the
        # capacity rule refuses: the far edge then moves up by ulps.
        spec = _regime_spec(alpha, factor, offset)
        while spec.target_width < spec.sharp_width:
            lo, hi = spec.target_interval
            spec = uniform_spec(spec.source_interval,
                                (lo, float(np.nextafter(hi, math.inf))), "I",
                                alpha)
        if assumption == "II":
            spec = mirror_transform(spec)
        eps = 10.0 ** log_eps
        sol = assemble_density(spec, eps, 101)
        with mock.patch.object(duality, "_zero_residuals",
                               wraps=duality._zero_residuals) as counted:
            record = _assert_contracts(sol)
        assert counted.call_count == record.steps + 1
        z, c = sol.dual.zeros
        assert abs(total_mass(z, spec, eps) - 1.0) <= 1e-9
        assert abs(solve_crossing(sol.support, z, spec, eps) - c) <= 1e-9

    def test_closing_density_far_from_origin_is_not_clipped(self):
        # A solve_grid point (seed 11, point 9) whose closing density was
        # clipped by 7.5e-15: in absolute coordinates one ulp of the
        # crossing moved the closure by more than its aim.
        spec = uniform_spec((-536.8845492704947, -535.43048541621),
                            (-533.6722982019968, -530.3899184890694), "II",
                            1.7645193252795843)
        sol = assemble_density(spec, 0.0010772613122307722, 7965)
        assert sol.clip_depth == 0.0
        assert sol.profile.edge_density[-1] > 0.0


def _full_grid_clip(sol):
    """The clip depth read on every node of the solution's depth grid: the
    table's support values before the clip."""
    edges = sol.profile.edges
    grid = duality._depth_grid((edges[0], edges[-1]), sol.depth_zeros[1], sol.grid_n)
    return float(max(0.0, -np.min(sol.profile.density(grid))))


def _horner_reads(monkeypatch):
    """A list that grows by the node count of each Horner read of a
    profile's density or mass fraction."""
    reads, plain = [], numerics._horner_at

    def counted(rows, k, w):
        reads.append(np.size(w))
        return plain(rows, k, w)

    monkeypatch.setattr(numerics, "_horner_at", counted)
    return reads


class TestCertifiedClip:
    """The clip depth reads only the grid nodes in panels the profile does
    not certify nonnegative, and the closing node, and equals the read of
    every node bit for bit; the table and the CDF rows are built on their
    first read."""

    CASES = {
        "eps_floor": TestCoupledSolve.REGIMES["eps_floor"],
        "offset_1000": TestCoupledSolve.REGIMES["offset_1000"],
        "sharp_width": (_regime_spec(1.0, 1.0, 0.0), 1e-3),
        "full_target": TestCoupledSolve.REGIMES["full_target"],
    }

    @pytest.mark.parametrize("grid_n", [33, 8001])
    @pytest.mark.parametrize("assumption", ["I", "II"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_clip_is_the_full_grid_read(self, case, assumption, grid_n):
        spec, eps = self.CASES[case]
        if assumption == "II":
            spec = mirror_transform(spec)
        if case == "sharp_width":
            assert spec.target_width == spec.sharp_width
        sol = assemble_density(spec, eps, grid_n)
        assert repr(sol.clip_depth) == repr(_full_grid_clip(sol))

    def test_clip_is_the_full_grid_read_over_seeded_solves(self):
        rng = np.random.default_rng(47)
        for k in range(24):
            alpha, log_eps, factor, offset, log_grid = rng.random(5)
            spec = _regime_spec(0.5 + 3.5 * alpha, 1.02 + 1.98 * factor, 1000.0 * offset)
            if k % 2:
                spec = mirror_transform(spec)
            sol = assemble_density(spec, 10.0 ** (-1.0 - 5.0 * log_eps),
                                   int(33 * (8001 / 33) ** log_grid))
            assert repr(sol.clip_depth) == repr(_full_grid_clip(sol)), k

    def test_a_dipping_interior_panel_is_read(self):
        # Three unit panels: the density rises to 1, dips to -1/2 inside
        # the middle panel and returns to 1, then falls to 1/2.  Only the
        # middle panel is not certified, and the clip reads its dip.
        a = np.arange(3.0)
        s = a[:, None] + 0.5 * (1.0 + numerics._XGK[None, :])
        t = s - a[:, None]
        samples = np.stack([np.ones(15), 12.0 * t[1] - 6.0, np.full(15, -0.5)])
        profile = numerics.MonotoneProfile(np.arange(4.0), [1.0, 0.0, -0.5], samples)
        assert profile._positive_panels().tolist() == [True, False, True]
        full = float(max(0.0, -np.min(profile.density(np.linspace(0.0, 3.0, 33)))))
        assert full == pytest.approx(0.5, rel=1e-12)
        assert repr(duality._clip_depth(profile, 1.5, 33)) == repr(full)

    @pytest.mark.parametrize("closing,certified", [(1e-14, False), (1e-12, True)])
    def test_the_rounding_margin_decides_a_grazing_panel(self, closing, certified):
        # The density rises to 1 over one unit panel and falls to
        # `closing` over the next.  That panel's least Bernstein
        # coefficient is its closing value: 22 eps of its terms' sizes is
        # inside the 64 eps margin and is read, 2250 eps is certified.
        samples = np.stack([np.ones(15), np.full(15, closing - 1.0)])
        profile = numerics.MonotoneProfile(np.arange(3.0), [1.0, closing - 1.0], samples)
        assert profile._positive_panels().tolist() == [True, certified]
        assert duality._clip_depth(profile, 1.0, 33) == 0.0

    def test_solves_read_no_node_and_build_no_table(self, monkeypatch):
        # perfbench's solve_grid operations on seed 1: assemble_density
        # and duality_gap Horner-read no node, where the full read took the
        # grid_n + 1 nodes of the table; every panel is certified, the
        # closing node reads the closing density, and the table, with the
        # CDF rows, waits for its first read.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        reads = _horner_reads(monkeypatch)
        points = workloads.solve_grid_inputs(1)
        for point in points:
            sol = assemble_density(point["spec"], point["epsilon"], point["grid_n"])
            duality_gap(sol)
            assert "_table" not in vars(sol)
            assert not {"fractions", "_taylor", "_size"} & set(vars(sol.profile))
        assert (len(points), sum(reads)) == (16, 0)
        reads.clear()
        assert sol.values.size == sol.nodes.size and "_table" in vars(sol)
        assert sum(reads) == sol.nodes.size
        assert not {"fractions", "_taylor", "_size"} & set(vars(sol.profile))
        sol.cdf(sol.support[0])
        assert "_taylor" in vars(sol.profile)
        sol.quantile(0.5)
        assert {"fractions", "_taylor", "_size"} <= set(vars(sol.profile))


@functools.lru_cache(maxsize=None)
def _expansion_reference(alpha):
    """(p1, p2, p3) with depth zeros (z, c) = tent + eps p1 + eps^2 p2
    + eps^3 p3 + O(eps^4), at 30 digits, sharing no code with the package.
    In depth s the stress is (s - z)(s - c)/2 and the residuals are the
    closing density, the integral of the slope g over [0, z], and the mass,
    that of (z - s) g, less 1.  With l0 = ln(|theta|/alpha), k = eps/alpha^2
    and sigma = sign(theta), g = sigma alpha (1 + d) solves
    (1 + d)^2 = 1 + 2 k (l0 - ln(1 + d)), so the slope is
    sigma [alpha + (eps/alpha) l0 - (eps^2/alpha^3)(l0 + l0^2/2)
    + (eps^3/alpha^5)(l0 + 2 l0^2 + l0^3/2)] + O(eps^4), and the residuals
    are F0 + eps F1 + eps^2 F2 + eps^3 F3: F0 is a polynomial, and F1, F2,
    F3 are tanh-sinh quadratures here, split at the crossing, where the log
    layers sit.  Order eps gives J0 p1 = -F1, order eps^2
    J0 p2 = -(F0''(p1, p1)/2 + F1' p1 + F2) and order eps^3
    J0 p3 = -(F0''(p1, p2) + F1' p2 + F1''(p1, p1)/2 + F2' p1 + F3): F0 is
    linear in the closure and quadratic in the mass, so its third
    derivative vanishes."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        z0 = 2 / mpmath.sqrt(a)
        slope = {1: lambda l0: l0 / a,
                 2: lambda l0: -(l0 + l0 ** 2 / 2) / a ** 3,
                 3: lambda l0: (l0 + 2 * l0 ** 2 + l0 ** 3 / 2) / a ** 5}

        def terms(order, p=(0, 0), t=0):
            """F_order at the zeros tent + t p, as (closure, mass)."""
            z, c = z0 + t * p[0], z0 / 2 + t * p[1]

            def row(weight):
                def f(s):
                    theta = (s - z) * (s - c) / 2
                    return weight(s) * mpmath.sign(theta) * slope[order](
                        mpmath.log(abs(theta) / a))
                return mpmath.quad(f, [0, c, z])

            return mpmath.matrix([row(lambda s: 1), row(lambda s: z - s)])

        def along(order, p, n=1):
            """The n-th derivative of F_order along p at the tent."""
            return mpmath.matrix([mpmath.diff(lambda t: terms(order, p, t)[i], 0, n)
                                  for i in (0, 1)])

        def hessian(p, q):
            """F0''(p, q) of F0 = (a (2c - z), a (2zc - c^2 - z^2/2) - 1)."""
            return mpmath.matrix([0, a * (2 * (p[0] * q[1] + p[1] * q[0])
                                          - 2 * p[1] * q[1] - p[0] * q[0])])

        J0 = mpmath.matrix([[-a, 2 * a], [0, a * z0]])
        p1 = -mpmath.lu_solve(J0, terms(1))
        p2 = -mpmath.lu_solve(J0, hessian(p1, p1) / 2 + along(1, p1) + terms(2))
        p3 = -mpmath.lu_solve(J0, hessian(p1, p2) + along(1, p2)
                              + along(1, p1, 2) / 2 + along(2, p1) + terms(3))
        return tuple([float(x) for x in p] for p in (p1, p2, p3))


def _mapped_series(alpha, eps, aim=duality._CLOSURE_AIM):
    """The alpha = 1 series mapped through the scaling law to (alpha, eps),
    at the closure aim `aim`: the solve's start with the table's rows set
    to zero."""
    with mock.patch.object(duality, "_ZERO_TABLE", ((0.0,),) * 4), \
            mock.patch.object(duality, "_CLOSURE_AIM", aim):
        return duality._tabulated_start(alpha, eps, math.inf)


def _tent_start(alpha, eps, width):
    """A start that reads no table: the sharp-limit tent, z = 2/sqrt(alpha)
    and c = z/2, with z moved by the closure aim's own shift: the Jacobian
    at the tent, J0 = [[-alpha, 2 alpha], [0, 2 sqrt(alpha)]], takes the aim
    to J0^-1 (aim, 0) = (-aim/alpha, 0)."""
    z0 = 2.0 / math.sqrt(alpha)
    return z0 - duality._CLOSURE_AIM / alpha, 0.5 * z0


def _table_read(alpha, eps, width=math.inf):
    """The eps-hat at which the start reads the alpha = 1 series and table
    (the argument of `duality._expansion_step`), and the start."""
    with mock.patch.object(duality, "_expansion_step",
                           wraps=duality._expansion_step) as read:
        start = duality._tabulated_start(alpha, eps, width)
    return read.call_args.args[0], start


class TestExpansionStart:
    """The coupled solve starts at the alpha = 1 zeros' expansion to third
    order in eps (`duality._expansion_step`), which the scaling law maps
    to every alpha, plus the table of what it leaves."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    def test_coefficients_match_the_quadrature_reference(self, alpha):
        # At alpha 1 the step is eps p1 + eps^2 p2 + eps^3 p3, a cubic in
        # eps, read off at three eps.  Measured: p1 within 4.5e-16, p2
        # within 3.6e-14 and p3 within 2.3e-12 of the reference, relative:
        # the read-off's rounding.  At other alpha the solve reads that
        # series through the law, which keeps the expansion to third order
        # and adds terms of every higher order: a quintic read off at five
        # k = eps/alpha^2 from 4e-4 to 2e-3 separates them.  Measured, the
        # truncation and the zeros' rounding at the tent: p1 within 1.2e-11,
        # p2 within 2.2e-8 and p3 within 6.7e-6 at alpha 0.5, and within
        # 3.7e-13, 8.4e-10 and 6.8e-7 at alpha 4.
        p1, p2, p3 = _expansion_reference(alpha)
        if alpha == 1.0:
            ln2 = math.log(2.0)
            assert p1 == pytest.approx([1.0 + ln2, 0.5 * (1.0 - ln2)], rel=1e-15)
            assert p2 == pytest.approx([1.459506535443815, -0.859640014242357],
                                       rel=1e-14)
            assert p3 == pytest.approx([-1.065232067353152, 0.648401143034025],
                                       rel=1e-14)
            es = np.array([1e-2, 2e-2, 3e-2])
            q = np.array([duality._expansion_step(e) for e in es]) / es[:, None]
            bounds = (1e-14, 2e-13, 1e-11)
        else:
            es = 4e-4 * alpha ** 2 * np.arange(1, 6)
            z0 = 2.0 / math.sqrt(alpha)
            q = (np.array([_mapped_series(alpha, e, aim=0.0) for e in es])
                 - [z0, 0.5 * z0]) / es[:, None]
            bounds = (5e-11, 1e-7, 3e-5)
        q1, q2, q3 = np.linalg.solve(np.vander(es, es.size, increasing=True), q)[:3]
        assert q1 == pytest.approx(p1, rel=bounds[0])
        assert q2 == pytest.approx(p2, rel=bounds[1])
        assert q3 == pytest.approx(p3, rel=bounds[2])

    @pytest.mark.parametrize("alpha,bound", [(0.5, 5000.0), (1.0, 15.0), (4.0, 1e-4)])
    def test_start_is_fourth_order(self, alpha, bound):
        # The mapped series, with the closure aim's shift, misses the
        # solved zeros by O(eps^4), in both orientations and far from the
        # origin, up to the solve's rounding, 4 ulps of the sharp width:
        # measured 2,740-3,980 at alpha 0.5, 8.9-11.2 at alpha 1 and
        # 8.6e-5 at alpha 4 (at eps 1e-2; at eps 1e-3 and below the miss
        # there is 1 ulp or less).  A start right to third order only would
        # read about |p3|/eps here: 0.78 at alpha 4, eps 1e-2.
        for offset, assumption in itertools.product((0.0, 1000.0), ("I", "II")):
            spec = _regime_spec(alpha, 2.5, offset)
            if assumption == "II":
                spec = mirror_transform(spec)
            z0 = spec.sharp_width
            for eps in (1e-2, 1e-3, 1e-4):
                start = _mapped_series(alpha, eps)
                z, c = assemble_density(spec, eps).depth_zeros
                miss = max(abs(z - start[0]), abs(c - start[1]))
                assert miss <= bound * eps ** 4 + 4.0 * np.spacing(z0)

    @pytest.mark.parametrize("alpha", [1.0, 4.0])
    @pytest.mark.parametrize("assumption", ["I", "II"])
    def test_small_eps_returns_from_the_start(self, alpha, assumption):
        # On the canonical spec at eps <= 1e-5 the start lands at the
        # rounding floor: the solve returns after the start's own pass,
        # with no Newton step.
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
        if assumption == "II":
            spec = mirror_transform(spec)
        for eps in (1e-5, 1e-6):
            sol = assemble_density(spec, eps)
            with mock.patch.object(duality, "_zero_residuals",
                                   wraps=duality._zero_residuals) as counted:
                record = _assert_contracts(sol)
            assert (record.steps, counted.call_count) == (0, 1)

    def test_large_eps_converges(self):
        # Where eps-hat, eps scaled to alpha-hat = 1, exceeds the table's
        # top 0.2, the solve starts at the series and table read at the top,
        # mapped with the twin's own sigma, and converges from there.  Both
        # reads run on this grid.  The last seven points raised
        # MaxIterations after 40 steps from the sharp-limit tent: alpha 2 at
        # eps 10, 100 and 1e4 on 5 and 20 sharp widths, and alpha 4 at eps
        # 10 on 20.
        points = list(itertools.product((0.3, 1.0, 3.0), (0.5, 1.0, 2.0, 4.0),
                                        (1.0, 1.02, 3.0)))
        points += [(eps, 2.0, factor) for eps, factor
                   in itertools.product((10.0, 100.0, 1e4), (5.0, 20.0))]
        points.append((10.0, 4.0, 20.0))
        at_top = set()
        for eps, alpha, factor in points:
            spec = _regime_spec(alpha, factor, 0.0)
            at_top.add(_table_read(alpha, eps)[0] == duality._ZERO_TABLE_TOP)
            _assert_contracts(assemble_density(spec, eps, 101))
        assert at_top == {True, False}


def _scaled_twin(alpha, eps, sigma, width):
    """The problem (alpha-hat, eps-hat, W/sigma) that the scaling law maps
    (alpha, eps, W) onto, or None where alpha-hat^2 <= 0 or the twin's
    target is narrower than its sharp width."""
    alpha_hat_sq = sigma ** 4 * (alpha * alpha + 8.0 * eps * math.log(sigma))
    if alpha_hat_sq <= 0.0:
        return None
    twin = uniform_spec((width / sigma + 0.5, width / sigma + 2.5), (0.0, width / sigma),
                        "I", math.sqrt(alpha_hat_sq))
    return None if twin.target_width < twin.sharp_width else (twin, sigma ** 4 * eps)


class TestScalingLaw:
    """With eps-hat = sigma^4 eps and alpha-hat^2 = sigma^4 (alpha^2
    + 8 eps ln sigma), the problem (alpha, eps, W) is the problem
    (alpha-hat, eps-hat, W/sigma) with its depths scaled by sigma: its
    slope algebra maps onto the twin's with theta = sigma^2 theta-hat and
    lambda = sigma^4 lambda-hat, and the stress equation and unit mass are
    kept.  The tabulated start of the coupled solve rests on it."""

    @pytest.mark.parametrize("sigma", [2.0, 0.5, 1.7])
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_depth_zeros_scale(self, alpha, eps, sigma):
        # The twin runs the same code at another alpha, eps and mesh, and
        # at the same closure aim, which the law would scale by sigma: its
        # first-order shift, J0^-1 (aim, 0) = (-aim/alpha, 0), moves the
        # twin's z by (sigma - 1) aim/alpha-hat, which is added back.  c
        # moves by the aim only at order eps.  Measured over the widths
        # 1.01, 1.3 and 2.5 sharp widths: z within 1.5e-14 of W with a free
        # end (7.1e-14 without the aim's shift), and c within 7.2e-15 of W.
        # On a full target z is fixed only to rounding over its small
        # Jacobian column, and is not compared.
        checked = 0
        for factor in (1.01, 1.3, 2.5):
            width = factor * 2.0 / math.sqrt(alpha)
            twinned = _scaled_twin(alpha, eps, sigma, width)
            if twinned is None:
                continue
            twin, eps_hat = twinned
            z, c = assemble_density(_regime_spec(alpha, factor, 0.0), eps).depth_zeros
            z_hat, c_hat = assemble_density(twin, eps_hat).depth_zeros
            assert abs(c - sigma * c_hat) <= 1e-14 * width
            if z < width:
                shift = (sigma - 1.0) * duality._CLOSURE_AIM / twin.alpha
                assert abs(z - sigma * (z_hat - shift)) <= 2e-14 * width
            checked += 1
        # Only alpha 0.5, eps 0.1, sigma 1/2 has no twin: alpha-hat^2 < 0.
        assert checked >= 2 or (alpha, eps, sigma) == (0.5, 0.1, 0.5)

    @pytest.mark.parametrize("sigma", [2.0, 0.5, 1.7])
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_delivered_quantities_scale(self, alpha, eps, sigma):
        # What the solve delivers scales as the law says, on targets at the
        # origin: the energies as E = sigma E-hat (an offset would add
        # -offset to E), the expectation by sigma, the density as
        # u(y) = u-hat(y/sigma)/sigma, the CDF as F(y) = F-hat(y/sigma) and
        # the quantile by sigma.  The twin runs at the closure aim the law
        # maps the aim to, sigma aim, so it is the image of the problem and
        # not a neighbour of it.  Measured over the widths 1.01, 1.3 and
        # 2.5 sharp widths (173 twins, each with a free end): the primal
        # and dual energies within 1.6e-15 relative, the expectation within
        # 1.4e-15 of W, and at 33 Chebyshev points of the target or of
        # [0, 1] the density within 2.6e-15 of its peak, the CDF within
        # 1.2e-15 and the quantile within 6.6e-15 of W.
        n = 33
        points = 0.5 * (1.0 - np.cos(np.pi * (np.arange(n) + 0.5) / n))
        for factor in (1.01, 1.3, 2.5):
            width = factor * 2.0 / math.sqrt(alpha)
            twinned = _scaled_twin(alpha, eps, sigma, width)
            if twinned is None:
                continue
            twin, eps_hat = twinned
            sol = assemble_density(_regime_spec(alpha, factor, 0.0), eps, 101)
            with mock.patch.object(duality, "_CLOSURE_AIM", sigma * duality._CLOSURE_AIM):
                hat = assemble_density(twin, eps_hat, 101)
            report, twin_report = duality_gap(sol), duality_gap(hat)
            for name in ("primal", "dual"):
                value = getattr(report, name)
                assert abs(value - sigma * getattr(twin_report, name)) <= 5e-15 * abs(value)
            assert abs(sol.expectation - sigma * hat.expectation) <= 5e-15 * width
            y = width * points
            peak = np.max(sol.values)
            assert np.max(np.abs(sol(y) - hat(y / sigma) / sigma)) <= 1e-14 * peak
            assert np.max(np.abs(sol.cdf(y) - hat.cdf(y / sigma))) <= 5e-15
            assert np.max(np.abs(sol.quantile(points) - sigma * hat.quantile(points))) <= (
                2e-14 * width)


def _unscaled_eps(alpha, eps_hat):
    """The eps that the scaling law maps to eps_hat at alpha-hat = 1:
    eps = eps_hat/r with r = sigma^4 solving r alpha^2 + 2 eps_hat ln r = 1,
    by Newton in ln r."""
    ln_r = -2.0 * math.log(alpha)
    for _ in range(20):
        r = math.exp(ln_r)
        ln_r -= (alpha * alpha * r + 2.0 * eps_hat * ln_r - 1.0) / (
            alpha * alpha * r + 2.0 * eps_hat)
    return eps_hat / math.exp(ln_r)


class TestTabulatedStart:
    """The coupled solve starts at the alpha = 1 zeros of the series and
    `duality._ZERO_TABLE` mapped through the scaling law, read at eps-hat up
    to `duality._ZERO_TABLE_TOP` and at the top beyond it, for every alpha
    and eps."""

    def test_table_lands_on_the_solved_zeros(self):
        # At 50 eps-hat values from 1e-6 up, none a fitting point, the
        # table's start lands within the solve's 4-ulp stop of the zeros
        # solved from the tent (measured at most 4 ulps), so a solve
        # started there returns from the start's own pass.  A solver
        # change that moves the zeros fails here: studies/06_zero_table.py
        # rebuilds the table.
        spec = _regime_spec(1.0, 10.0, 0.0)
        for eps in np.geomspace(1e-6, 0.995 * duality._ZERO_TABLE_TOP, 50):
            with mock.patch.object(duality, "_tabulated_start", _tent_start):
                z, c = assemble_density(spec, eps).depth_zeros
            start = duality._tabulated_start(1.0, eps, spec.target_width)
            ulps = 4.0 * np.spacing(max(z, c))
            assert abs(start[0] - z) <= ulps and abs(start[1] - c) <= ulps

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    def test_table_reads_up_to_its_top_on_both_branches(self, alpha):
        # The first pass runs at the table's zeros up to eps-hat 0.2, with
        # a free end (2.5 sharp widths) and on a full target (the sharp
        # width), and at the zeros read at the top above it.
        top = duality._ZERO_TABLE_TOP
        for eps_hat in (1e-8, 0.999 * top, 1.001 * top):
            eps = _unscaled_eps(alpha, eps_hat)
            for factor in (2.5, 1.0):
                spec = _regime_spec(alpha, factor, 0.0)
                read, start = _table_read(alpha, eps, spec.target_width)
                assert read == pytest.approx(min(eps_hat, top), rel=1e-14)
                with mock.patch.object(duality, "_zero_residuals",
                                       wraps=duality._zero_residuals) as counted:
                    duality._solve_zeros(spec, eps)
                assert counted.call_args_list[0].args[0] == start
                assert (start[0] > spec.target_width) == (factor == 1.0)

    def test_start_keeps_the_law_invariant(self):
        # The law keeps alpha^2/eps - 2 ln eps fixed, and so does the start:
        # the eps-hat it reads the table at satisfies
        # 1/eps-hat - 2 ln eps-hat = alpha^2/eps - 2 ln eps, to rounding of
        # its largest term (measured 4.3e-16 of it), at the 270 of 400
        # seeded points over alpha 0.05-100 and eps 1e-8-1e4 that read
        # below the top.  Where that eps-hat exceeds the top the start reads
        # the top, and the invariant there is below the top's.  Named
        # points, where Newton on the log form of tau's equation,
        # 4 tau + ln(1 + 8 k tau - 4 k ln alpha) = 0, leaves the log's
        # domain from tau = k ln alpha: alpha 0.05, eps 1.46e-3 reads the
        # table at eps-hat 0.099, and (0.5, 0.25) and (4, 8) read the top.
        top = duality._ZERO_TABLE_TOP
        rng = np.random.default_rng(44)
        alphas = np.exp(rng.uniform(math.log(0.05), math.log(100.0), 400))
        epss = np.exp(rng.uniform(math.log(1e-8), math.log(1e4), 400))
        named = [(0.05, 1.46e-3), (0.5, 0.25), (4.0, 8.0)]
        for alpha, eps in [*zip(alphas.tolist(), epss.tolist()), *named]:
            invariant = alpha * alpha / eps - 2.0 * math.log(eps)
            read = _table_read(alpha, eps)[0]
            if read == top:
                assert invariant <= 1.0 / top - 2.0 * math.log(top)
                continue
            terms = (1.0 / read, 2.0 * abs(math.log(read)), alpha * alpha / eps,
                     2.0 * abs(math.log(eps)))
            assert abs(1.0 / read - 2.0 * math.log(read) - invariant) <= 1e-15 * max(terms)
        assert _table_read(0.05, 1.46e-3)[0] == pytest.approx(0.099, abs=5e-4)
        assert [_table_read(*point)[0] for point in named[1:]] == [top, top]

    def test_start_keeps_c_inside_its_bounds(self):
        # Where the zeros read at the top put c at or past min(z, width),
        # on narrow targets at large alpha and eps, c starts half way
        # there, inside the bounds the step cut assumes: 19 of these 36
        # points.
        cut = 0
        for alpha, eps, factor in itertools.product((4.0, 8.0, 20.0, 100.0),
                                                    (30.0, 1e3, 1e4), (1.0, 1.1, 2.0)):
            spec = _regime_spec(alpha, factor, 0.0)
            width = spec.target_width
            z, c = duality._tabulated_start(alpha, eps, math.inf)
            start = duality._tabulated_start(alpha, eps, width)
            if c >= min(z, width):
                cut += 1
                assert start == (z, 0.5 * min(z, width))
            else:
                assert start == (z, c)
            _assert_contracts(assemble_density(spec, eps, 101))
        assert cut >= 10

    @pytest.mark.parametrize("alpha,eps", [(1e-6, 1e-10), (1e-5, 1e-8),
                                           (125892.54117941714, 398107170.55349857)])
    def test_start_settles_far_from_alpha_one(self, alpha, eps):
        # tau's Newton settles, and the solve from its start meets both
        # contracts.  At alpha 1e-6 and 1e-5 the root of phi's
        # linearization lies far out on phi's steep flank, where a step
        # gains about 1/4: from there alone tau takes more than 20 steps.
        # At alpha 1.3e5 the rounding of k phi's ln alpha term moves tau by
        # about 1e-15, above a stop of 4e-16 max(1, |tau|).
        _assert_contracts(assemble_density(_regime_spec(alpha, 2.5, 0.0), eps, 101))

    @pytest.mark.parametrize("alpha,eps", [(1e-4, 1e300), (1e-200, 1.0)])
    def test_unsettled_tau_raises(self, alpha, eps):
        # Where k = eps/alpha^2, or 1 + 2k, is not finite, tau's Newton has
        # no number to settle on, and the start says so.
        with pytest.raises(MaxIterations):
            duality._tabulated_start(alpha, eps, math.inf)


class TestMirrorExactness:
    """The solve and the assembly run in depths from the anchored edge,
    where the two orientations are one problem, so a mirrored spec gives
    the mirrored solution bit for bit."""

    @pytest.mark.parametrize("offset", [0.0, 0.37, 533.67, 1000.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.76, 4.0])
    def test_mirror_pairs_are_bitwise_equal(self, alpha, offset):
        for factor, eps in itertools.product((1.001, 1.02, 2.5),
                                             (0.1, 1e-3, 1e-6)):
            spec = _regime_spec(alpha, factor, offset)
            sol = assemble_density(spec, eps, 201)
            mir = assemble_density(mirror_transform(spec), eps, 201)
            assert np.array_equal(mir.values, sol.values[::-1])
            mid = 0.5 * (sol.nodes[1:] + sol.nodes[:-1])
            assert np.array_equal(mir(-mid[::-1]), sol(mid)[::-1])
            assert np.array_equal(mir.nodes, -sol.nodes[::-1])
            assert np.array_equal(inverted_at(mir.dual, mir.nodes, alpha, eps)[1],
                                  -inverted_at(sol.dual, sol.nodes, alpha, eps)[1][::-1])
            assert mir.mass == sol.mass
            assert mir.expectation == -sol.expectation


class TestDualField:
    def test_zeros_are_stored_once(self):
        # The field is the parabola alone, and a solution keeps the solve's
        # depth zeros as its one record of them: it stores what its solve
        # made, and reads everything else off it.
        assert [f.name for f in dataclasses.fields(DualField)] == ["zeros", "orientation"]
        assert not hasattr(DualField, "theta")
        assert [f.name for f in dataclasses.fields(DensitySolution)] == [
            "spec", "epsilon", "depth_zeros", "grid_n", "mass", "expectation",
            "energy_integrals", "profile"]
        for name in ("max_abs_slope", "max_log_lambda", "clip_depth", "dual"):
            assert isinstance(inspect.getattr_static(DensitySolution, name),
                              functools.cached_property), name

    @pytest.mark.parametrize("target", ["offset_1000_II", "sharp_width"])
    def test_depth_maps_to_y_in_one_place(self, target):
        # `_y` is the one map from depth to y: the anchor reads depth 0, the
        # pass's last edge the closing end exactly, `_depth` inverts both,
        # and the dual's zeros, the table's nodes and the quantile read it.
        sol = assemble_density(spec_of(target, 2.0), 1e-3)
        edges, o = sol.profile.edges, sol.spec.orientation
        ys = sol._y(edges)
        assert (ys[0], ys[-1]) == (sol.spec.anchor, sol.support_endpoint)
        assert np.array_equal(sol._depth(ys[[0, -1]]), edges[[0, -1]])
        assert sol.dual.zeros == tuple(sol._y(s) for s in sol.depth_zeros)
        in_depth = sol.nodes[::-1] if o > 0 else sol.nodes
        assert (in_depth[0], in_depth[-1]) == (sol.spec.anchor, sol.support_endpoint)
        ends = sol.quantile(np.array([0.0, 1.0]))
        assert sorted(ends.tolist()) == sorted((sol.spec.anchor, sol.support_endpoint))

    def test_stress_equation_exact(self):
        fld = DualField(zeros=(-4.0, 4.0), orientation=1.0)
        ys = np.linspace(3.0, 5.0, 101)
        h = 1e-6
        dtheta = (stress_at(fld, ys + h) - stress_at(fld, ys - h)) / (2 * h)
        assert np.abs(dtheta + np.abs(ys)).max() < 1e-7

    def test_crossing(self):
        fld = DualField(zeros=(-4.0, 4.0), orientation=1.0)
        assert fld.zeros[1] == pytest.approx(4.0)
        assert abs(stress_at(fld, fld.zeros[1])) < 1e-14
        mirrored = DualField(zeros=(4.0, -4.0), orientation=-1.0)
        assert mirrored.zeros[1] == pytest.approx(-4.0)

    def test_expanded_form(self):
        # theta = orientation (constant - y^2/2) - multiplier y, with the
        # constant and the multiplier read out of the zeros.
        for o, zeros in ((1.0, (3.0, 4.2)), (-1.0, (-3.0, -4.2))):
            fld = DualField(zeros=zeros, orientation=o)
            assert fld.constant == -0.5 * zeros[0] * zeros[1]
            assert fld.multiplier == -0.5 * o * (zeros[0] + zeros[1])
            ys = np.linspace(-5.0, 5.0, 41)
            expanded = o * (fld.constant - 0.5 * ys ** 2) - fld.multiplier * ys
            assert np.abs(stress_at(fld, ys) - expanded).max() < 1e-12

    def test_inverted_stress_consistent(self):
        fld = DualField(zeros=(-4.0, 4.0), orientation=1.0)
        ys = np.linspace(3.0, 5.0, 57)
        theta = stress_at(fld, ys)
        # The algebra ties the stress, the scale and the slope pointwise.
        log_lam, slope = inverted_at(fld, ys, 1.0, 0.01)
        assert np.abs(np.exp(log_lam) * slope - theta).max() < 1e-12


def _graded_case(alpha, eps, offset, assumption):
    """Spec with target [offset, offset + w] (mirrored under II), a free
    zero 0.3 w inside the free end and its solved crossing."""
    w = 3.0 / math.sqrt(alpha)
    spec = uniform_spec((offset + w + 1.0, offset + w + 3.0),
                        (offset, offset + w), "I", alpha)
    if assumption == "II":
        spec = mirror_transform(spec)
    lo, hi = spec.target_interval
    zero = lo + 0.3 * w if assumption == "I" else hi - 0.3 * w
    support = (zero, hi) if assumption == "I" else (lo, zero)
    return spec, zero, support, solve_crossing(support, zero, spec, eps)


class TestGradedPanels:
    """The quadratures of the slope start from panels graded toward the
    stress zeros.  They must agree with plain adaptive refinement from
    the support split at the crossing, within the sum of the two
    quadratures' error targets."""

    CASES = list(itertools.product((0.5, 4.0), (1e-1, 1e-6), (0.0, 1e3),
                                   ("I", "II")))

    @pytest.mark.parametrize("alpha,eps,offset,assumption", CASES)
    def test_match_plain_refinement(self, alpha, eps, offset, assumption):
        spec, zero, support, crossing = _graded_case(alpha, eps, offset,
                                                     assumption)
        start = support[0] if assumption == "I" else support[1]
        # The solved crossing (residual near 0) and a trial halfway to the
        # anchor (residual of order 1).
        anchor = spec.anchor
        for c in (crossing, 0.5 * (crossing + anchor)):
            fld = DualField((zero, c), spec.orientation)
            slope = lambda y: inverted_at(fld, y, alpha, eps)[1]
            graded = boundary_residual(c, support, spec, eps, zero=zero,
                                       quad_tol=1e-13)
            plain = integrate(slope, *support, tol=1e-13,
                              breakpoints=(c,))
            assert abs(graded - plain) <= 2e-13 * max(1.0, abs(plain))
            graded = total_mass(zero, spec, eps, crossing=c, quad_tol=1e-11)
            plain = integrate(lambda y: (start - y) * slope(y), *support,
                              tol=1e-11, breakpoints=(c,))
            assert abs(graded - plain) <= 2e-11 * max(1.0, abs(plain))

    def test_one_round_per_quadrature(self, monkeypatch):
        # Adaptive bisection toward the log-type layers at the stress zeros
        # took about 25 vectorized rounds per call; the graded panels
        # leave at most a few.
        spec, zero, support, crossing = _graded_case(1.0, 1e-4, 0.0, "I")
        rounds = []
        plain = duality._adaptive

        def counting(f, *args):
            def counted(y):
                rounds.append(np.size(y))
                return f(y)
            return plain(counted, *args)

        monkeypatch.setattr(duality, "_adaptive", counting)
        boundary_residual(crossing, support, spec, 1e-4, zero=zero)
        assert 1 <= len(rounds) <= 4
