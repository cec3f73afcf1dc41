"""Energy evaluators: frozen values, the zero-gap identity, weak duality,
and the sign structure of the variational probes."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monge1d.duality import assemble_density
from monge1d.energy import (
    ConstraintResiduals,
    ProbeReport,
    SinePerturbation,
    dual_energy,
    duality_gap,
    expectation,
    primal_energy,
    second_variation_probe,
    taylor_remainder_check,
    total_complementary,
)
from monge1d.errors import DomainError, InvalidPerturbation, NotADensity
from monge1d.numerics import integrate
from monge1d.oracles import mirror_transform, tent_limit_density
from monge1d.problem import uniform_spec

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
SPEC_II = uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", 1.0)


@dataclass(frozen=True)
class ZeroProfile:
    """The identically-zero profile on an interval (a trivial competitor)."""

    support: tuple[float, float]
    alpha: float

    def __call__(self, y):
        out = np.zeros_like(np.asarray(y, dtype=float))
        return out if np.ndim(y) else 0.0

    def slope(self, y):
        out = np.zeros_like(np.asarray(y, dtype=float))
        return out if np.ndim(y) else 0.0


def _const(value):
    return lambda y: np.full(np.shape(y), float(value))


class _ProfileAdapter:
    """Expose a solution through the generic profile protocol only, so
    primal_energy takes its quadrature path instead of the exact one."""

    def __init__(self, solution):
        self._solution = solution
        self.support = solution.support
        self.alpha = solution.spec.alpha
        self.target = solution.spec.target_interval

    def __call__(self, y):
        return self._solution(y)

    def slope(self, y):
        return self._solution.slope(y)


# -- primal -------------------------------------------------------------------

class TestPrimalEnergy:
    def test_zero_profile_frozen(self):
        # integrand reduces to the constant H(0) = eps e^{-a^2/(2 eps)}
        out = primal_energy(ZeroProfile((0.0, 5.0), 1.0), 0.1)
        assert out == pytest.approx(0.5 * math.exp(-5.0), rel=1e-12)

    def test_tent_value(self):
        # slopes +-alpha make H identically eps on the support, so the
        # energy is eps * width - mean: the -4 + delta form with
        # delta = 2 eps at alpha = 1
        tent = tent_limit_density(SPEC_I)
        for eps in (0.1, 0.01):
            out = primal_energy(tent, eps)
            delta = out + 4.0
            assert delta == pytest.approx(2.0 * eps, abs=1e-9)
            assert -1e-9 <= delta <= 2.0 * eps + 1e-9

    def test_h_term_bounded_for_admissible_slopes(self):
        # |u_y| <= alpha pushes H below eps pointwise
        tent = tent_limit_density(SPEC_I)
        eps = 0.01
        lo, hi = tent.support
        h_term = primal_energy(tent, eps) + abs(tent.mean)
        assert h_term <= eps * (hi - lo) * (1.0 + 1e-9)
        assert h_term >= 0.0

    def test_generic_path_matches_exact_path(self, solved):
        # the solution fast path (log-form H, exact moment) and a plain
        # quadrature of H(u_y) - u |y| agree to interpolation error
        sol = solved(SPEC_I, 1e-3)
        fast = primal_energy(sol, 1e-3)
        slow = primal_energy(_ProfileAdapter(sol), 1e-3)
        assert slow == pytest.approx(fast, abs=2e-6)

    def test_orientation_relation(self, solved):
        # under orientation I the target is nonnegative, so the moment
        # term is exactly the expectation
        sol = solved(SPEC_I, 1e-3)
        h_term = 1e-3 * integrate(
            lambda y: np.exp(sol.dual.log_lambda(y)), *sol.support,
            tol=1e-12, breakpoints=(sol.crossing,))
        assert primal_energy(sol, 1e-3) == pytest.approx(
            h_term - sol.expectation, abs=1e-10)

    def test_full_target_offset(self, solved):
        sol = solved(SPEC_I, 0.1)
        support = primal_energy(sol, 0.1, "support")
        full = primal_energy(sol, 0.1, "full_target")
        lo, hi = sol.support
        rest = 5.0 - (hi - lo)
        assert full - support == pytest.approx(
            0.1 * math.exp(-5.0) * rest, rel=1e-9)

    def test_unknown_convention(self, solved):
        with pytest.raises(ValueError, match="convention"):
            primal_energy(solved(SPEC_I, 1e-3), 1e-3, "everywhere")


# -- dual ---------------------------------------------------------------------

class TestDualEnergy:
    def test_unit_scale_override_matches_reduction(self, solved):
        # at lambda == 1 the integrand collapses to th^2 + a^2 - 2 eps;
        # the multiplier prices the unit mass
        sol = solved(SPEC_I, 1e-3)
        out = dual_energy(sol.dual, 1e-3, log_lambda_override=_const(0.0))
        ref = -0.5 * integrate(
            lambda y: sol.dual.theta(y) ** 2 + 1.0 - 2e-3,
            *sol.support, tol=1e-12,
            breakpoints=(sol.crossing,)) + sol.dual.multiplier
        assert out == pytest.approx(ref, rel=1e-12)

    def test_overrides_never_beat_critical(self, solved):
        # pointwise strict concavity in the scale factor
        sol = solved(SPEC_I, 1e-3)
        critical = dual_energy(sol.dual, 1e-3)
        for lam in (0.9, 1.0, 0.5, 0.99):
            out = dual_energy(sol.dual, 1e-3,
                              log_lambda_override=_const(math.log(lam)))
            assert out < critical

    def test_weak_duality_on_random_scale_profiles(self, solved):
        sol = solved(SPEC_I, 1e-3)
        primal = primal_energy(sol, 1e-3)
        rng = np.random.default_rng(0)
        lo, hi = sol.support
        for _ in range(20):
            # admissible: log factor in [-a^2/(2 eps), 0], smoothly varying
            depth = rng.uniform(0.01, 3.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            waves = rng.integers(1, 4)

            def log_lam(y, d=depth, p=phase, w=waves):
                return -d * (0.6 + 0.4 * np.sin(
                    w * np.pi * (np.asarray(y) - lo) / (hi - lo) + p))

            assert dual_energy(sol.dual, 1e-3,
                               log_lambda_override=log_lam) <= primal + 1e-8

    def test_out_of_window_override_rejected(self, solved):
        sol = solved(SPEC_I, 1e-3)
        with pytest.raises(DomainError, match="exceeds 1"):
            dual_energy(sol.dual, 1e-3,
                        log_lambda_override=_const(math.log(1.1)))

    def test_nonfinite_override_rejected(self, solved):
        sol = solved(SPEC_I, 1e-3)
        with pytest.raises(DomainError, match="finite"):
            dual_energy(sol.dual, 1e-3, log_lambda_override=_const(math.nan))


# -- mixed --------------------------------------------------------------------

class TestTotalComplementary:
    def test_zero_profile_frozen(self):
        # u = 0 with zeta = eps: integrand -(a^2/2 - eps) per unit length
        out = total_complementary(ZeroProfile((0.0, 5.0), 1.0), None, 0.1,
                                  log_lambda_override=_const(0.0))
        assert out == pytest.approx(-2.0, abs=1e-12)

    def test_needs_a_scale_factor(self):
        with pytest.raises(ValueError, match="scale-factor"):
            total_complementary(ZeroProfile((0.0, 5.0), 1.0), None, 0.1)

    def test_fenchel_young_on_random_overrides(self, solved):
        # Xi(u, zeta) <= primal(u) for every admissible zeta; equality
        # needs the locking identity
        sol = solved(SPEC_I, 1e-3)
        primal = primal_energy(sol, 1e-3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            level = math.log(rng.uniform(0.05, 1.0))
            out = total_complementary(sol, sol.dual, 1e-3,
                                      log_lambda_override=_const(level))
            assert out <= primal + 1e-8

    @settings(deadline=None, derandomize=True, max_examples=25)
    @given(st.floats(min_value=-6.0, max_value=0.0,
                     allow_nan=False, allow_infinity=False))
    def test_fenchel_young_constant_levels(self, level):
        out = total_complementary(
            ZeroProfile((0.0, 5.0), 1.0), None, 0.1,
            log_lambda_override=_const(level))
        primal = primal_energy(ZeroProfile((0.0, 5.0), 1.0), 0.1)
        assert out <= primal + 1e-10


# -- the gap report -----------------------------------------------------------

class TestDualityGap:
    def test_triple_identity(self, solved):
        sol = solved(SPEC_I, 1e-3)
        report = duality_gap(sol)
        scale = max(1.0, abs(report.primal))
        assert abs(report.gap_primal_dual) <= 1e-6 * scale
        assert abs(report.gap_primal_xi) <= 1e-6 * scale
        assert abs(report.gap_xi_dual) <= 1e-6 * scale
        assert report.gap_primal_dual == pytest.approx(
            report.primal - report.dual, abs=1e-15)
        assert report.domain_convention == "support"

    def test_residual_fields(self, solved):
        report = duality_gap(solved(SPEC_I, 1e-3))
        res = report.constraint_residuals
        assert isinstance(res, ConstraintResiduals)
        assert res.mass_error <= 1e-10
        assert res.negativity == 0.0
        # strong smoothing at alpha = 1 runs the slope above the nominal
        # ceiling; the report carries the excess instead of hiding it
        assert 0.0 < res.slope_excess < 0.01

    def test_mirrored_gaps_agree(self, solved):
        a = duality_gap(solved(SPEC_I, 1e-3))
        b = duality_gap(solved(SPEC_II, 1e-3))
        assert b.gap_primal_dual == pytest.approx(a.gap_primal_dual, abs=1e-10)
        assert b.primal == pytest.approx(a.primal, abs=1e-10)
        assert b.dual == pytest.approx(a.dual, abs=1e-10)

    def test_gap_across_smoothing_levels(self, solved):
        for eps in (0.1, 0.01):
            report = duality_gap(solved(SPEC_I, eps))
            assert abs(report.gap_primal_dual) <= 1e-6 * max(
                1.0, abs(report.primal))


# -- probes -------------------------------------------------------------------

class TestSecondVariationProbe:
    def test_zero_perturbation_is_exactly_zero(self, solved):
        sol = solved(SPEC_I, 1e-3)
        report = second_variation_probe(
            sol, ZeroProfile(sol.support, 1.0), (0.0, 1e-3, -1e-3))
        assert report.primal_deltas == (0.0, 0.0, 0.0)
        assert report.dual_deltas == (0.0, 0.0, 0.0)

    def test_sine_probe_signs(self, solved):
        sol = solved(SPEC_I, 1e-3)
        report = second_variation_probe(
            sol, SinePerturbation(sol.support), (1e-3, -1e-3))
        assert report.min_primal_delta >= -1e-10
        assert report.max_dual_delta <= 1e-10
        assert isinstance(report, ProbeReport)

    def test_relative_scale_shrink(self, solved):
        # a log shift of -0.01 is the multiplicative zeta factor 0.99
        # to first order; it must not increase the dual energy
        sol = solved(SPEC_I, 1e-3)
        report = second_variation_probe(
            sol, SinePerturbation(sol.support), (-0.01,),
            dual_perturbation=_const(1.0))
        assert report.dual_deltas[0] <= 1e-12
        assert report.dual_deltas[0] < 0.0

    def test_boundary_violation_rejected(self, solved):
        sol = solved(SPEC_I, 1e-3)
        lo, hi = sol.support
        shifted = SinePerturbation((lo - 0.5, hi - 0.5))
        with pytest.raises(InvalidPerturbation, match="endpoint"):
            second_variation_probe(sol, shifted, (1e-3,))

    def test_probe_holds_on_mirror(self, solved):
        sol = solved(SPEC_II, 1e-3)
        report = second_variation_probe(
            sol, SinePerturbation(sol.support, k=2), (1e-3, -1e-3))
        assert report.min_primal_delta >= -1e-10
        assert report.max_dual_delta <= 1e-10


# -- expansion remainder ------------------------------------------------------

class TestTaylorRemainder:
    def test_frozen_point_value(self):
        # remainder at lambda = 1/2 for (1, 0.1), against the closed form
        # 2 eps lam^2 (ln lam - lam + 1)
        from monge1d.duality import eval_E
        lam = 0.5
        direct = eval_E(lam, 1.0, 0.1) - (1.0 - 0.2) * lam ** 2 - 0.2 * lam ** 3
        closed = 2.0 * 0.1 * lam ** 2 * (math.log(lam) - lam + 1.0)
        assert direct == pytest.approx(closed, rel=1e-12)
        assert direct == pytest.approx(-0.009657359027997266, rel=1e-12)

    @pytest.mark.parametrize("alpha,epsilon", [(1.0, 0.1), (1.0, 0.01),
                                               (2.0, 0.1)])
    def test_bounded_by_epsilon(self, alpha, epsilon):
        worst = taylor_remainder_check(alpha, epsilon, 1000)
        assert worst <= epsilon
        # observed maximum sits near 0.10 eps on the whole window
        assert 0.05 * epsilon <= worst <= 0.11 * epsilon

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            taylor_remainder_check(1.0, 0.6)


# -- expectation --------------------------------------------------------------

class TestExpectation:
    def test_uniform_profile(self):
        class Uniform:
            support = (0.0, 5.0)
            alpha = 1.0

            def __call__(self, y):
                return np.full(np.shape(y), 0.2)

            def slope(self, y):
                return np.zeros(np.shape(y))

        assert expectation(Uniform()) == pytest.approx(2.5, rel=1e-10)

    def test_solution_values(self, solved):
        assert expectation(solved(SPEC_I, 1e-3)) == pytest.approx(4.0, abs=0.02)
        assert expectation(solved(SPEC_II, 1e-3)) == pytest.approx(-4.0, abs=0.02)

    def test_not_a_density(self):
        with pytest.raises(NotADensity, match="mass"):
            expectation(ZeroProfile((0.0, 5.0), 1.0))
