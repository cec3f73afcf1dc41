"""Unit tests for the dual algebra and the density solver."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monge1d import duality, numerics
from monge1d.duality import (
    DualField,
    assemble_density,
    boundary_residual,
    solve_constant,
    solve_crossing,
    total_mass,
)
from monge1d.errors import CapacityError, DomainError, MaxIterations
from monge1d.numerics import integrate
from monge1d.oracles import TentDensity, mirror_transform, tent_limit_density
from monge1d.problem import require_capacity, uniform_spec

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
SPEC_II = uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", 1.0)


def forward(l, alpha, eps):
    """Squared stress e^{2l} (alpha^2 + 2 eps l) carried by a log scale
    factor l: the forward map `_invert_stress_sq` inverts."""
    return math.exp(2.0 * l) * (alpha * alpha + 2.0 * eps * l)


def log_scale(t, alpha, eps):
    l, _ = duality._invert_stress_sq(np.array([t]), alpha, eps)
    return float(l[0])


def slope_of(theta, alpha, eps):
    return float(duality._slope_many(np.array([theta]), alpha, eps)[0])


class TestEvalE:
    """The inversion kernel against the forward map, written out here."""

    def test_at_one(self):
        l, u = duality._invert_stress_sq(np.array([1.0]), 1.0, 0.1)
        assert abs(l[0]) < 1e-15 and u[0] == pytest.approx(1.0, abs=1e-15)

    def test_at_floor(self):
        # Zero stress sits at the floor, where the slope-squared bracket
        # alpha^2 + 2 eps l vanishes.
        l, u = duality._invert_stress_sq(np.array([0.0]), 1.0, 0.1)
        assert l[0] == -5.0 and u[0] == 0.0
        assert forward(-5.0, 1.0, 0.1) == 0.0

    def test_half(self):
        # 0.25 * (1 + 0.2 ln 0.5), closed form.
        assert forward(math.log(0.5), 1.0, 0.1) == pytest.approx(
            0.21534264097200273, rel=1e-12)
        assert log_scale(0.21534264097200273, 1.0, 0.1) == pytest.approx(
            math.log(0.5), abs=1e-12)

    def test_strictly_increasing(self):
        # Larger squared stresses carry larger scale factors and slopes,
        # on and past the classical range [0, alpha^2].
        t = np.linspace(1e-6, 2.0, 50)
        l, u = duality._invert_stress_sq(t, 1.0, 0.1)
        assert np.all(np.diff(l) > 0) and np.all(np.diff(u) > 0)

    def test_log_form_matches(self):
        # slope_sq is alpha^2 + 2 eps l, returned without cancellation.
        t = np.array([0.9, 0.5, 0.1, 0.01, 1e-8])
        l, u = duality._invert_stress_sq(t, 1.0, 0.1)
        assert u == pytest.approx(1.0 + 0.2 * l, rel=1e-12, abs=1e-15)


class TestInvertE:
    def test_at_top(self):
        assert abs(log_scale(1.0, 1.0, 0.1)) < 1e-12

    def test_at_zero(self):
        assert log_scale(0.0, 1.0, 0.1) == -5.0

    def test_half_round_trip(self):
        assert log_scale(0.21534264097200273, 1.0, 0.1) == pytest.approx(
            math.log(0.5), abs=1e-10)

    def test_out_of_range(self):
        # No clamp to the classical range: a negative squared stress is
        # the floor, one above alpha^2 continues into l > 0.
        assert log_scale(-1e-13, 1.0, 0.1) == -5.0
        l = log_scale(1.0 + 1e-2, 1.0, 0.1)
        assert l > 0.0
        assert forward(l, 1.0, 0.1) == pytest.approx(1.0 + 1e-2, rel=1e-14)

    def test_marginal_slack_tolerated(self):
        assert log_scale(-5e-15, 1.0, 0.1) == -5.0
        assert abs(log_scale(1.0 + 5e-13, 1.0, 0.1)) < 1e-10

    def test_residual_contract(self):
        for alpha, eps in ((1.0, 0.1), (2.0, 0.01), (0.5, 1e-3), (2.0, 1e-6)):
            for frac in (1e-12, 1e-6, 0.1, 0.5, 0.9, 0.999999, 1.0):
                t = frac * alpha * alpha
                l = log_scale(t, alpha, eps)
                assert abs(forward(l, alpha, eps) - t) <= 1e-12 * max(1.0, t)
                assert -alpha * alpha / (2.0 * eps) <= l <= 0.0

    def test_round_trip_sampled(self):
        rng = np.random.default_rng(11)
        for alpha, eps in ((1.0, 0.1), (2.0, 0.01), (0.5, 1e-3), (2.0, 1e-6)):
            l_min = -alpha * alpha / (2.0 * eps)
            # Floor at 1e-150: below that the squared scale factor
            # underflows in 64-bit arithmetic and the trip is undefined.
            lo = max(l_min, math.log(1e-150))
            ls = rng.uniform(lo, 0.0, 100)
            for l in ls:
                t = forward(float(l), alpha, eps)
                assert log_scale(t, alpha, eps) == pytest.approx(float(l), abs=1e-8)


class TestSlopeFromTheta:
    def test_odd_zero(self):
        assert slope_of(0.0, 1.0, 0.1) == 0.0

    def test_at_bound(self):
        assert slope_of(1.0, 1.0, 0.1) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_forward_value(self):
        # 0.8 e^{(0.64-1)/0.2} = 0.8 e^{-1.8}.
        theta = 0.8 * math.exp(-1.8)
        assert slope_of(theta, 1.0, 0.1) == pytest.approx(0.8, abs=1e-10)

    def test_exactly_odd(self):
        for theta in (0.3, 0.77, 0.132):
            assert slope_of(-theta, 1.0, 0.1) == -slope_of(theta, 1.0, 0.1)

    def test_out_of_range(self):
        # Past the slope bound the slope runs above alpha, still odd.
        assert slope_of(1.1, 1.0, 0.1) > 1.0
        assert slope_of(-1.1, 1.0, 0.1) == -slope_of(1.1, 1.0, 0.1)

    def test_strictly_increasing(self):
        thetas = np.linspace(-1.0, 1.0, 101)
        vals = duality._slope_many(thetas, 1.0, 0.1)
        assert np.all(np.diff(vals) > 0)

    def test_scale_times_slope_is_theta(self):
        for alpha, eps in ((1.0, 0.1), (2.0, 1e-3)):
            for theta in np.linspace(-alpha, alpha, 41):
                l = log_scale(float(theta) ** 2, alpha, eps)
                v = slope_of(float(theta), alpha, eps)
                assert abs(math.exp(l) * v - theta) <= 1e-10

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(theta=st.floats(min_value=-1.0, max_value=1.0),
           eps=st.floats(min_value=1e-6, max_value=0.5))
    def test_forward_consistency(self, theta, eps):
        # v e^{(v^2 - 1)/(2 eps)} must reproduce theta (alpha = 1).
        v = slope_of(theta, 1.0, eps)
        back = v * math.exp(min((v * v - 1.0) / (2.0 * eps), 0.0))
        assert back == pytest.approx(theta, abs=1e-9)

    def test_nan_stress_raises(self):
        # Newton never converges on a NaN; the inversion must not return
        # a value silently.
        with pytest.raises(MaxIterations):
            slope_of(math.nan, 1.0, 0.1)
        fld = DualField((3.0, 5.0), (3.0, 4.0), 1.0, 1.0, 0.1)
        with pytest.raises(MaxIterations):
            fld.slope(np.array([3.5, math.nan]))


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
            assert tent.support[1] - tent.support[0] == spec.sharp_width
            assert tent.mass == pytest.approx(1.0, rel=1e-15)
        full = TentDensity((0.0, 5.0), 1.0, (0.0, 5.0))
        assert full.mass == 6.25

    def test_invalid_spec_rejected(self):
        # Admissibility is checked before capacity: a negative slope bound
        # is a DomainError, not a failed square root.
        bad = uniform_spec((6.0, 8.0), (0.0, 7.0), "I", -1.0)
        with pytest.raises(DomainError):
            assemble_density(bad, 1e-3, 101)


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
        assert sol.support_values[0] == 0.0
        assert sol.support_values[-1] == 0.0
        assert float(np.min(sol.values)) >= 0.0
        assert sol.boundary_gap == pytest.approx(0.0, abs=1e-9)

    def test_mass_and_expectation(self, solved):
        sol = solved(SPEC_I, 1e-3)
        assert sol.mass == pytest.approx(1.0, abs=1e-8)
        assert sol.expectation == pytest.approx(4.0, abs=0.02)

    def test_peak(self, solved):
        sol = solved(SPEC_I, 1e-3)
        loc, height = sol.peak()
        assert loc == pytest.approx(4.0, abs=0.02)
        assert loc == pytest.approx(sol.dual.zeros[1], abs=1e-12)
        assert sol.dual.theta(loc) == 0.0
        assert height == pytest.approx(1.0, abs=0.02)

    def test_free_endpoint_stress_vanishes(self, solved):
        # The free-endpoint condition theta(m) = H'(0) = 0 holds exactly,
        # and the stress equation carries the mass multiplier.
        for spec in (SPEC_I, SPEC_II):
            sol = solved(spec, 1e-3)
            assert sol.dual.theta(sol.support_endpoint) == 0.0
            assert sol.dual.zeros[0] == sol.support_endpoint
            ys = sol.support_nodes
            assert np.abs(sol.dual.theta_y(ys) + np.abs(ys)
                          + sol.dual.multiplier).max() <= 1e-12

    def test_single_interior_maximum(self, solved):
        sol = solved(SPEC_I, 1e-3)
        v = sol.support_values
        k = int(np.argmax(v))
        assert 0 < k < v.size - 1
        assert abs(sol.support_nodes[k] - sol.crossing) <= 1e-12
        assert np.all(np.diff(v[:k + 1]) >= -1e-12)
        assert np.all(np.diff(v[k:]) <= 1e-12)

    def test_equilibrium_identity_at_nodes(self, solved):
        sol = solved(SPEC_I, 1e-3)
        theta, log_lam, slope = sol.dual.fields_at(sol.support_nodes)
        assert np.abs(slope - sol.slope_nodes).max() == 0.0
        assert np.abs(np.exp(log_lam) * slope - theta).max() <= 1e-10

    def test_profile_derivative_matches_slope(self, solved):
        # Monotone-cubic derivative vs the analytic slope, away from the two
        # stress zeros (the peak and the free endpoint), where the profile
        # curvature blows up as eps shrinks.
        sol = solved(SPEC_I, 1e-3)
        y = sol.support_nodes
        keep = ((np.abs(y - sol.crossing) > 0.2)
                & (np.abs(y - sol.support_endpoint) > 0.2))
        keep[[0, -1]] = False
        dv = sol._profile.derivative(y[keep])
        assert np.abs(dv - sol.slope_nodes[keep]).max() < 1e-4

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
        outside = sol.nodes < lo
        assert np.all(sol.values[outside] == 0.0)

    def test_evaluation_matches_nodes(self, solved):
        sol = solved(SPEC_I, 1e-3)
        vals = sol(sol.support_nodes)
        assert np.abs(vals - sol.support_values).max() < 1e-13

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
        assert float(np.max(np.abs(sol.dual.slope(dense)))) <= spec.alpha

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


class TestFullTargetRegime:
    # Width 1.02 times the sharp-limit 2/sqrt(alpha) at eps = 0.1: a free
    # endpoint at the far edge holds only 0.861, so the support is the
    # whole target with a Dirichlet far edge where the stress is positive.
    SPEC = uniform_spec((5.54, 7.54), (3.0, 5.04), "I", 1.0)

    def test_support_fills_the_target(self, solved):
        spec = self.SPEC
        assert total_mass(spec.far_edge, spec, 0.1) == pytest.approx(
            0.861, abs=1e-3)
        assert spec.target_width == pytest.approx(1.02 * spec.sharp_width)
        sol = solved(spec, 0.1, 801)
        assert sol.support == spec.target_interval
        assert sol.support_endpoint == spec.far_edge
        assert sol.dual.zeros[0] < spec.far_edge
        assert sol.dual.theta(spec.far_edge) > 0.0
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
        assert moved.max_log_lambda == pytest.approx(sol.max_log_lambda,
                                                     abs=1e-9)


def _regime_spec(alpha, factor, offset):
    """Target [offset, offset + factor * 2/sqrt(alpha)], source 0.5 beyond."""
    w = factor * 2.0 / math.sqrt(alpha)
    return uniform_spec((offset + w + 0.5, offset + w + 2.5),
                        (offset, offset + w), "I", alpha)


def _assert_contracts(sol):
    """Both contracts of the coupled solve, and no clipped density."""
    assert abs(sol.mass_residual) <= 1e-10
    assert abs(sol.closure_residual) <= 0.9e-12
    assert sol.clip_depth == 0.0


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
        assert sol.newton_steps >= 1
        _assert_contracts(sol)
        assert abs(total_mass(z, spec, eps) - 1.0) <= 1e-9
        assert abs(solve_crossing(sol.support, z, spec, eps) - c) <= 1e-9
        solo = duality._solve_zeros(spec, eps, 1e-10, 1e-12, 1e-12)
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
        # (closure 1e-16, mass residual 0) while |dz| stays above root_tol
        # (alpha 0.5, eps 1e-6), and a difference step in z of a fixed
        # fraction of the width changes them by less than their rounding
        # (alpha 4, eps 1e-6, orientation I).
        spec = _regime_spec(alpha, 1.0, 0.0)
        if assumption == "II":
            spec = mirror_transform(spec)
        assert spec.target_width == spec.sharp_width
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            sol = assemble_density(spec, eps, 101)
            _assert_contracts(sol)
            assert sol.support == spec.target_interval

    @pytest.mark.parametrize("alpha,eps", [(1.0, 1e-1), (1.0, 1e-3),
                                           (4.0, 1e-1), (4.0, 1e-3)])
    def test_quadrature_pass_budget(self, monkeypatch, alpha, eps):
        # Every adaptive quadrature pass of one canonical solve is a Newton
        # residual evaluation, plus the assembly's cumulative pass: the
        # expectation rides on the solve's last pass, and no root solve
        # runs besides the coupled Newton.
        calls, residuals = [], []
        plain, plain_residuals = numerics._adaptive, duality._zero_residuals

        def counted(*args, **kwargs):
            calls.append(1)
            return plain(*args, **kwargs)

        def counted_residuals(*args, **kwargs):
            residuals.append(1)
            return plain_residuals(*args, **kwargs)

        monkeypatch.setattr(numerics, "_adaptive", counted)
        monkeypatch.setattr(duality, "_adaptive", counted)
        monkeypatch.setattr(duality, "_zero_residuals", counted_residuals)
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
        sol = assemble_density(spec, eps)
        assert len(calls) == len(residuals) + 1 <= 18
        assert 1 <= sol.newton_steps <= 8

    def test_exhausted_step_budget_raises(self, monkeypatch):
        monkeypatch.setattr(duality, "_ZERO_MAX_STEPS", 1)
        with pytest.raises(MaxIterations):
            assemble_density(SPEC_I, 1e-3, 101)

    @pytest.mark.parametrize("residuals", [(math.nan, 0.0), (1e-3, 1e-3)],
                             ids=["non_finite", "singular_jacobian"])
    def test_unusable_residuals_raise(self, monkeypatch, residuals):
        # Residuals that are NaN, or do not move with the zeros, give no
        # Newton step; the solve must say so.
        monkeypatch.setattr(duality, "_zero_residuals",
                            lambda *args: np.array(residuals))
        with pytest.raises(MaxIterations):
            assemble_density(SPEC_I, 1e-3, 101)

    def test_closing_density_far_from_origin_is_not_clipped(self):
        # A solve_grid point (seed 11, point 9) whose closing density was
        # clipped by 7.5e-15: in absolute coordinates one ulp of the
        # crossing moved the closure by more than its aim.
        spec = uniform_spec((-536.8845492704947, -535.43048541621),
                            (-533.6722982019968, -530.3899184890694), "II",
                            1.7645193252795843)
        sol = assemble_density(spec, 0.0010772613122307722, 7965)
        assert sol.clip_depth == 0.0
        assert sol.boundary_gap > 0.0


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
            assert np.array_equal(mir.cell_masses, sol.cell_masses[::-1])
            assert np.array_equal(mir.nodes, -sol.nodes[::-1])
            assert np.array_equal(mir.slope_nodes, -sol.slope_nodes[::-1])
            assert mir.mass == sol.mass
            assert mir.expectation == -sol.expectation


class TestDualField:
    def test_stress_equation_exact(self):
        fld = DualField(support=(3.0, 5.0), zeros=(-4.0, 4.0),
                        orientation=1.0, alpha=1.0, epsilon=0.1)
        ys = np.linspace(3.0, 5.0, 101)
        h = 1e-6
        dtheta = (fld.theta(ys + h) - fld.theta(ys - h)) / (2 * h)
        assert np.abs(dtheta + np.abs(ys)).max() < 1e-7

    def test_crossing(self):
        fld = DualField(support=(3.0, 5.0), zeros=(-4.0, 4.0),
                        orientation=1.0, alpha=1.0, epsilon=0.1)
        assert fld.crossing == pytest.approx(4.0)
        assert abs(fld.theta(fld.crossing)) < 1e-14
        mirrored = DualField(support=(-5.0, -3.0), zeros=(4.0, -4.0),
                             orientation=-1.0, alpha=1.0, epsilon=0.1)
        assert mirrored.crossing == pytest.approx(-4.0)

    def test_expanded_form(self):
        # theta = orientation (constant - y^2/2) - multiplier y, with the
        # constant and the multiplier read out of the zeros.
        for o, zeros in ((1.0, (3.0, 4.2)), (-1.0, (-3.0, -4.2))):
            fld = DualField(support=(3.0, 5.0), zeros=zeros, orientation=o,
                            alpha=1.0, epsilon=0.1)
            assert fld.constant == -0.5 * zeros[0] * zeros[1]
            assert fld.multiplier == -0.5 * o * (zeros[0] + zeros[1])
            ys = np.linspace(-5.0, 5.0, 41)
            expanded = o * (fld.constant - 0.5 * ys ** 2) - fld.multiplier * ys
            assert np.abs(fld.theta(ys) - expanded).max() < 1e-12

    def test_fields_at_consistent(self):
        fld = DualField(support=(3.0, 5.0), zeros=(-4.0, 4.0),
                        orientation=1.0, alpha=1.0, epsilon=0.01)
        ys = np.linspace(3.0, 5.0, 57)
        theta, log_lam, slope = fld.fields_at(ys)
        assert np.allclose(theta, fld.theta(ys), rtol=0, atol=0)
        assert np.allclose(log_lam, fld.log_lambda(ys), rtol=0, atol=1e-14)
        assert np.allclose(slope, fld.slope(ys), rtol=0, atol=1e-14)
        # The algebra ties the three together pointwise.
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
            fld = DualField(support, (zero, c), spec.orientation, alpha, eps)
            graded = boundary_residual(c, support, spec, eps, zero=zero,
                                       quad_tol=1e-13)
            plain = integrate(fld.slope, *support, tol=1e-13,
                              breakpoints=(c,))
            assert abs(graded - plain) <= 2e-13 * max(1.0, abs(plain))
            graded = total_mass(zero, spec, eps, crossing=c, quad_tol=1e-11)
            plain = integrate(lambda y: (start - y) * fld.slope(y), *support,
                              tol=1e-11, breakpoints=(c,))
            assert abs(graded - plain) <= 2e-11 * max(1.0, abs(plain))

    def test_one_round_per_quadrature(self, monkeypatch):
        # Adaptive bisection toward the log-type layers at the stress zeros
        # took about 25 vectorized rounds per call; the graded panels
        # leave at most a few.
        spec, zero, support, crossing = _graded_case(1.0, 1e-4, 0.0, "I")
        rounds = []
        plain = duality.integrate

        def counting(f, *args, **kwargs):
            def counted(y):
                rounds.append(np.size(y))
                return f(y)
            return plain(counted, *args, **kwargs)

        monkeypatch.setattr(duality, "integrate", counting)
        boundary_residual(crossing, support, spec, 1e-4, zero=zero)
        assert 1 <= len(rounds) <= 4
