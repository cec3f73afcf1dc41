"""Ground-truth generators: tent closed form, LP expectation optimizer,
log-barrier Newton primal oracle, mirror transform, fixture round trip."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monge1d import oracles
from monge1d.energy import duality_gap
from monge1d.errors import CapacityError, MaxIterations
from monge1d.oracles import (
    GridDensity,
    OracleRun,
    discrete_expectation_optimizer,
    discrete_primal_minimizer,
    load_fixture,
    mirror_transform,
    save_fixture,
    tent_limit_density,
)
from monge1d.problem import SourceDensity, uniform_spec, validate_spec

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
SPEC_II = uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", 1.0)


# -- tent ---------------------------------------------------------------------

def _tent_mass(tent):
    """The tent's closed-form mass alpha W^2/4."""
    lo, hi = tent.support
    return tent.alpha * (hi - lo) ** 2 / 4.0


def _grid_values(run, ys):
    """A grid density read between its nodes."""
    return np.interp(ys, run.density.nodes, run.density.values)


class TestTentLimitDensity:
    def test_canonical_case(self):
        tent = tent_limit_density(SPEC_I)
        assert tent.support == (3.0, 5.0)
        assert (tent.center, tent(tent.center)) == (4.0, 1.0)
        assert _tent_mass(tent) == pytest.approx(1.0, abs=1e-15)

    def test_mass_is_algebraic(self):
        # alpha * (2/sqrt(alpha))^2 / 4 = 1 for any alpha
        for alpha in (0.5, 1.0, 2.0, 4.0):
            spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
            assert _tent_mass(tent_limit_density(spec)) == pytest.approx(1.0,
                                                                         abs=1e-14)

    def test_mirrored_steep_case(self):
        # anchored at the left target edge, half the width at alpha = 4;
        # the mean of a symmetric tent is its center, c + 1/sqrt(alpha)
        spec = uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", 4.0)
        tent = tent_limit_density(spec)
        assert tent.support == (-5.0, -4.0)
        assert (tent.center, tent(tent.center)) == (-4.5, 2.0)
        assert tent.center == -5.0 + 1.0 / math.sqrt(4.0)

    def test_profile_values(self):
        tent = tent_limit_density(SPEC_I)
        assert tent(3.5) == pytest.approx(0.5)
        assert tent(4.0) == pytest.approx(1.0)
        assert tent(4.5) == pytest.approx(0.5)
        assert tent(2.9) == 0.0
        assert tent(5.1) == 0.0
        assert tent(3.75) - tent(3.25) == 0.5
        assert tent(4.75) - tent(4.25) == -0.5

    def test_capacity_failure(self):
        with pytest.raises(CapacityError, match="width"):
            tent_limit_density(uniform_spec((6.0, 8.0), (0.0, 1.0), "I", 1.0))


# -- expectation optimizer ----------------------------------------------------

class TestExpectationOptimizer:
    def test_canonical_optimum(self):
        run = discrete_expectation_optimizer(SPEC_I, 501)
        assert run.objective == pytest.approx(4.0, abs=0.01)
        assert run.density.violations() == ()

    def test_objective_bounded_by_target_edge(self):
        run = discrete_expectation_optimizer(SPEC_I, 501)
        assert run.objective <= 5.0

    def test_mirrored_optimum(self):
        run = discrete_expectation_optimizer(SPEC_II, 501)
        assert run.objective == pytest.approx(-4.0, abs=0.01)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_tent_shape(self, alpha):
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
        run = discrete_expectation_optimizer(spec, 501)
        tent = tent_limit_density(spec)
        ys = np.linspace(0.0, 5.0, 2001)
        assert np.max(np.abs(_grid_values(run, ys) - tent(ys))) <= 0.02
        assert run.objective == pytest.approx(tent.center, abs=0.01)

    @pytest.mark.parametrize("excess", [1e-12, 1e-9])
    def test_a_hair_above_the_sharp_width(self, excess):
        # At HiGHS's default tolerance the slopes of this sliver polytope
        # came back up to 4e-7 relative over the bound.  An excess of
        # 1e-12 is within the check's slack: the tent is the answer.
        spec = uniform_spec((6.0, 8.0), (0.0, 2.0 * (1.0 + excess)), "I", 1.0)
        run = discrete_expectation_optimizer(spec, 401)
        assert run.density.violations() == ()

    def test_capacity_failure(self):
        with pytest.raises(CapacityError, match="mass"):
            discrete_expectation_optimizer(
                uniform_spec((6.0, 8.0), (0.0, 1.0), "I", 1.0), 201)

    def test_needs_enough_nodes(self):
        with pytest.raises(ValueError, match="101"):
            discrete_expectation_optimizer(SPEC_I, 51)

    def test_grid_parity_at_the_sharp_width(self):
        # At exactly the sharp width 2/sqrt(alpha) only the tent itself
        # fits.  A grid with an even number of cells carries it; on 2k+1
        # cells the discrete tent holds 1 - 1/(n-1)^2, so neither oracle
        # has a feasible point although `require_capacity` accepts the
        # spec.  Both give that one verdict.
        spec = uniform_spec((6.0, 8.0), (0.0, 2.0), "I", 1.0)
        for n in (101, 201):
            run = discrete_expectation_optimizer(spec, n)
            assert run.density.violations() == ()
            primal = discrete_primal_minimizer(spec, 0.01, n)
            assert primal.iterations == 0
            assert np.max(np.abs(primal.density.values
                                 - run.density.values)) <= 1e-12
        for n in (102, 202):
            with pytest.raises(CapacityError, match="no grid density"):
                discrete_expectation_optimizer(spec, n)
            with pytest.raises(CapacityError, match="no grid density"):
                discrete_primal_minimizer(spec, 0.01, n)


# -- primal minimizer ---------------------------------------------------------

class TestPrimalMinimizer:
    def test_feasible_on_return(self, primal_oracle):
        run = primal_oracle(SPEC_I, 0.01, 401)
        assert run.density.violations() == ()
        assert run.iterations >= 1

    def test_against_assembled_solution(self, solved, primal_oracle):
        # the slope-bounded discrete minimum vs the solved minimizer of
        # the smoothed functional: shapes and objectives agree, as in
        # the steep companion below
        run = primal_oracle(SPEC_I, 0.01, 401)
        sol = solved(SPEC_I, 0.01)
        ys = np.linspace(0.0, 5.0, 2001)
        assert np.max(np.abs(_grid_values(run, ys) - sol(ys))) <= 0.05
        report = duality_gap(sol)
        assembled = report.primal + report.full_target_offset
        assert abs(run.objective - assembled) <= 1e-2

    def test_in_regime_objective_agreement(self, solved, primal_oracle):
        # with a slack slope bound the critical point is the constrained
        # minimizer and the discrete objective matches it
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 4.0)
        run = primal_oracle(spec, 0.01, 401)
        sol = solved(spec, 0.01)
        assert sol.max_log_lambda < 0.0
        report = duality_gap(sol)
        assembled = report.primal + report.full_target_offset
        assert abs(run.objective - assembled) <= 1e-2

    @pytest.mark.parametrize("epsilon", [0.1, 0.03, 0.01])
    def test_objective_approaches_sharp_value(self, epsilon, primal_oracle):
        # limit objective is -(tent mean); 3 eps covers the H term and
        # the regularization shift, 0.05 the n=401 grid error
        run = primal_oracle(SPEC_I, epsilon, 401)
        assert abs(run.objective + 4.0) <= 3.0 * epsilon + 0.05

    def test_meets_the_solve_at_the_epsilon_floor(self, solved):
        # The barrier keeps every slope strictly inside the bound, so the
        # stiff H term of eps 1e-6 is no obstacle.
        run = discrete_primal_minimizer(SPEC_I, 1e-6, 401)
        report = duality_gap(solved(SPEC_I, 1e-6))
        assert abs(run.objective - report.primal
                   - report.full_target_offset) <= 1e-6

    @pytest.mark.parametrize("alpha,excess,n,epsilon,stage", [
        (1.0, 1e-9, 401, 0.1, "1e-02"), (1.0, 1e-9, 401, 1e-3, "1e-02"),
        (1.0, 1e-7, 401, 0.1, "1e-13"), (4.0, 1e-5, 1000, 0.1, "1e-14")])
    def test_known_limit_near_the_sharp_width(self, alpha, excess, n, epsilon, stage):
        # A known limit, pinned: within about 1e-5 of the sharp width every
        # slope sits that close to alpha, so the rounding of alpha^2 - s^2
        # puts noise above the barrier's decrement test and a stage runs
        # out of Newton steps.  The LP solves the same grid.
        spec = uniform_spec((6.0, 8.0), (0.0, 2.0 / math.sqrt(alpha) * (1.0 + excess)),
                            "I", alpha)
        with pytest.raises(MaxIterations, match=f"barrier stage mu = {stage}$"):
            discrete_primal_minimizer(spec, epsilon, n)
        assert discrete_expectation_optimizer(spec, n).density.violations() == ()

    @pytest.mark.parametrize("epsilon", [0.0, -0.01, math.nan, math.inf])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError, match="finite and > 0"):
            discrete_primal_minimizer(SPEC_I, epsilon, 401)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="101"):
            discrete_primal_minimizer(SPEC_I, 0.01, 51)
        with pytest.raises(CapacityError, match="width"):
            discrete_primal_minimizer(
                uniform_spec((6.0, 8.0), (0.0, 1.0), "I", 1.0), 0.01, 201)


# -- grid density invariants --------------------------------------------------

class TestInfeasibleReturn:
    """An oracle whose solver hands back an infeasible point raises,
    naming the violation, instead of returning it."""

    def test_expectation_optimizer(self, monkeypatch):
        import scipy.optimize
        real = scipy.optimize.linprog

        def half_mass(*args, **kwargs):
            result = real(*args, **kwargs)
            result.x = 0.5 * result.x
            return result

        monkeypatch.setattr(scipy.optimize, "linprog", half_mass)
        with pytest.raises(MaxIterations, match="trapezoidal mass 0.5"):
            discrete_expectation_optimizer(SPEC_I, 201)

    def test_primal_minimizer(self, monkeypatch):
        real = oracles._barrier_newton

        def half_mass(*args):
            values, steps = real(*args)
            return 0.5 * values, steps

        monkeypatch.setattr(oracles, "_barrier_newton", half_mass)
        with pytest.raises(MaxIterations, match="trapezoidal mass 0.5"):
            discrete_primal_minimizer(SPEC_I, 0.1, 101)


class TestGridDensity:
    def _tent_grid(self, n=201):
        nodes = np.linspace(0.0, 5.0, n)
        tent = tent_limit_density(SPEC_I)
        values = tent(nodes)
        values[0] = values[-1] = 0.0
        return GridDensity(nodes=nodes, values=values, step=nodes[1] - nodes[0],
                           alpha=1.0)

    def test_clean_grid_passes(self):
        g = self._tent_grid()
        assert g.violations() == ()
        assert g.trapezoid_mass == pytest.approx(1.0, abs=1e-10)

    def test_detects_each_violation(self):
        g = self._tent_grid()
        bad_mass = GridDensity(g.nodes, g.values * 1.5, g.step, g.alpha)
        assert any("mass" in v for v in bad_mass.violations())
        steep = g.values.copy()
        steep[100] += 10.0 * g.step
        bad_slope = GridDensity(g.nodes, steep, g.step, g.alpha)
        assert any("slope" in v for v in bad_slope.violations())
        open_end = g.values.copy()
        open_end[-1] = 0.5
        bad_end = GridDensity(g.nodes, open_end, g.step, g.alpha)
        assert any("endpoint" in v for v in bad_end.violations())
        dipped = g.values.copy()
        dipped[100] = -0.2
        bad_sign = GridDensity(g.nodes, dipped, g.step, g.alpha)
        assert any("negative" in v for v in bad_sign.violations())

    def test_nan_alpha_is_reported_first(self):
        # Every comparison with NaN is False: a NaN bound would pass a
        # cell slope of 10.
        g = self._tent_grid()
        steep = g.values.copy()
        steep[100] += 10.0 * g.step
        problems = GridDensity(g.nodes, steep, g.step, math.nan).violations()
        assert problems[0] == "non-finite slope bound alpha = nan"

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_non_finite_value_is_reported_alone(self, u):
        # A NaN u passed every check; an infinite one read as a mass defect.
        g = self._tent_grid()
        g.values[100] = u
        assert g.violations() == (f"1 non-finite value(s), the first {u} "
                                  "at index 100",)


# -- mirror -------------------------------------------------------------------

class TestMirrorTransform:
    def test_canonical_mapping(self):
        m = mirror_transform(SPEC_I)
        assert m.source_interval == (-8.0, -6.0)
        assert m.target_interval == (-5.0, -0.0)
        assert m.assumption == "II"
        assert m.alpha == 1.0
        assert validate_spec(m).ok

    def test_involution_is_exact(self):
        assert mirror_transform(mirror_transform(SPEC_I)) == SPEC_I

    def test_uniform_density_stays_uniform(self):
        m = mirror_transform(SPEC_I)
        assert m.source_density == dataclasses.replace(
            SPEC_I.source_density, interval=(-8.0, -6.0))

    def test_shaped_density_reflects(self):
        density = SourceDensity(interval=(6.0, 8.0), kind="piecewise-linear",
                                nodes=(6.0, 8.0), values=(0.0, 1.0))
        from monge1d.problem import MongeProblemSpec
        spec = MongeProblemSpec(
            source_interval=(6.0, 8.0), target_interval=(0.0, 5.0),
            assumption="I", alpha=1.0, source_density=density)
        m = mirror_transform(spec)
        assert m.source_density.nodes == (-8.0, -6.0)
        assert m.source_density.values == (1.0, 0.0)
        assert m.source_density.cdf(-6.5) == pytest.approx(1.0 - density.cdf(6.5),
                                                           rel=1e-15)
        assert mirror_transform(m) == spec

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(st.floats(0.25, 8.0), st.floats(0.5, 20.0), st.floats(0.1, 10.0))
    def test_involution_property(self, alpha, gap, width):
        spec = uniform_spec((gap, gap + width), (gap - 6.0 - width, gap - 6.0),
                            "I", alpha)
        assert mirror_transform(mirror_transform(spec)) == spec


# -- fixtures -----------------------------------------------------------------

class TestFixtures:
    def test_round_trip(self, tmp_path):
        run = discrete_expectation_optimizer(SPEC_I, 201)
        sidecar = save_fixture(run, tmp_path / "oracle.csv")
        assert sidecar.name == "oracle.json"
        back = load_fixture(tmp_path / "oracle.csv")
        assert isinstance(back, OracleRun)
        assert np.array_equal(back.density.nodes, run.density.nodes)
        assert np.array_equal(back.density.values, run.density.values)
        assert back.objective == run.objective
        assert back.iterations == run.iterations
        assert back.epsilon is None

    def test_round_trip_with_epsilon(self, tmp_path):
        run = discrete_primal_minimizer(SPEC_I, 0.1, 101)
        save_fixture(run, tmp_path / "primal.csv")
        back = load_fixture(tmp_path / "primal.csv")
        assert back.epsilon == 0.1
        assert back.density.violations() == ()

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        (tmp_path / "bad.json").write_text("{}")
        with pytest.raises(ValueError, match="header"):
            load_fixture(path)

    @pytest.mark.parametrize("key", ["alpha", "objective", "iterations",
                                     "epsilon"])
    def test_missing_sidecar_key_is_named(self, tmp_path, key):
        run = discrete_expectation_optimizer(SPEC_I, 201)
        sidecar = save_fixture(run, tmp_path / "oracle.csv")
        meta = json.loads(sidecar.read_text())
        del meta[key]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            load_fixture(tmp_path / "oracle.csv")

    def test_non_numeric_sidecar_value_is_a_value_error(self, tmp_path):
        run = discrete_expectation_optimizer(SPEC_I, 201)
        sidecar = save_fixture(run, tmp_path / "oracle.csv")
        meta = json.loads(sidecar.read_text())
        meta["alpha"] = None
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="oracle.json"):
            load_fixture(tmp_path / "oracle.csv")

    @pytest.mark.parametrize("key, value", [
        ("alpha", math.nan), ("objective", math.nan), ("objective", -math.inf),
        ("epsilon", math.nan), ("epsilon", math.inf)])
    def test_non_finite_sidecar_value_is_named(self, tmp_path, key, value):
        # Python's JSON reader accepts NaN and Infinity.
        run = discrete_expectation_optimizer(SPEC_I, 201)
        sidecar = save_fixture(run, tmp_path / "oracle.csv")
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError,
                           match=f"oracle.json: {key} {value!r} is not finite"):
            load_fixture(tmp_path / "oracle.csv")

    @pytest.mark.parametrize("ys, row", [
        # Trapezoids read with the first step give these samples mass
        # 1.5; their true mass is 1.25.
        ((0.0, 1.0, 1.5, 3.0), "row 3 "),
        ((3.0, 2.0, 1.0, 0.0), "row 2 "),
        ((0.0, 1.0, 1.0, 2.0), "row 3 ")],
        ids=["unequal", "decreasing", "repeated"])
    def test_unequal_or_non_increasing_nodes_are_named(self, tmp_path, ys,
                                                       row):
        (tmp_path / "oracle.json").write_text(json.dumps(
            {"alpha": 1.0, "objective": 0.0, "iterations": 0,
             "epsilon": None}))
        rows = [f"{y!r},{u!r}" for y, u in zip(ys, (0.0, 1.0, 0.5, 0.0))]
        (tmp_path / "oracle.csv").write_text("\n".join(["y,u"] + rows) + "\n")
        with pytest.raises(ValueError, match=f"oracle.csv: {row}"):
            load_fixture(tmp_path / "oracle.csv")
