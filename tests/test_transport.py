"""Transport maps: CDF endpoints, quantile composition, cost identities,
pushforward residuals, and mirror agreement."""

import dataclasses

import numpy as np
import pytest

from monge1d.problem import (
    MongeProblemSpec,
    SourceDensity,
    normalize_density,
    uniform_spec,
)
from monge1d.transport import (
    TransportMapSolution,
    build_map,
    chebyshev_nodes,
    pushforward_residual,
    target_cdf,
)

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
SPEC_II = uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", 1.0)

RAMP = MongeProblemSpec(
    source_interval=(6.0, 8.0), target_interval=(0.0, 5.0), assumption="I",
    alpha=1.0,
    source_density=SourceDensity(interval=(6.0, 8.0), kind="piecewise-linear",
                                 nodes=(6.0, 8.0), values=(0.1, 0.9)))


@pytest.fixture(scope="module")
def maps(solved):
    sol = solved(SPEC_I, 1e-3)
    return sol, build_map(SPEC_I, sol, "increasing"), build_map(
        SPEC_I, sol, "decreasing")


class TestSourceCdf:
    """The exact source CDF the quantile maps compose with."""

    def test_uniform_endpoints_and_median(self):
        f = SPEC_I.source_density.cdf
        assert f(6.0) == 0.0
        assert f(7.0) == pytest.approx(0.5, abs=1e-12)
        assert f(8.0) == pytest.approx(1.0, abs=1e-12)

    def test_ramp_midpoint(self):
        # density 0.1 + 0.4 (x-6) integrates to 0.3 at the midpoint
        f = RAMP.source_density.cdf
        assert f(7.0) == pytest.approx(0.3, abs=1e-10)

    def test_strictly_increasing(self):
        f = SPEC_I.source_density.cdf
        xs = np.linspace(6.0, 8.0, 200)
        assert np.all(np.diff(f(xs)) > 0.0)


class TestTargetCdf:
    def test_endpoints(self, maps):
        _, inc, _ = maps
        q = inc.target_cdf
        assert q.values[0] == 0.0
        assert q.values[-1] == 1.0

    def test_median_at_tent_peak(self, maps):
        # near the sharp limit the density is the symmetric tent, whose
        # median sits at the peak; smoothing shifts it at O(p* - 3)
        _, inc, _ = maps
        assert inc.target_cdf(4.0) == pytest.approx(0.5, abs=5e-3)

    def test_mirrored_median(self, solved):
        sol = solved(SPEC_II, 1e-3)
        q = target_cdf(sol)
        assert q(-4.0) == pytest.approx(0.5, abs=5e-3)

    def test_strictly_increasing_inside(self, maps):
        _, inc, _ = maps
        q = inc.target_cdf
        assert np.all(np.diff(q.values) > 0.0)


class TestBuildMap:
    def test_increasing_endpoints(self, maps):
        sol, inc, _ = maps
        assert inc.map(6.0) == sol.support[0]
        assert inc.map(8.0) == sol.support[1]
        assert sol.support[0] == pytest.approx(3.0, abs=0.05)

    def test_median_lands_on_peak(self, maps):
        _, inc, _ = maps
        assert inc.map(7.0) == pytest.approx(4.0, abs=0.05)

    def test_decreasing_endpoints(self, maps):
        sol, _, dec = maps
        assert dec.map(6.0) == sol.support[1]
        assert dec.map(8.0) == sol.support[0]

    def test_monotone_and_contained(self, maps):
        sol, inc, dec = maps
        xs = chebyshev_nodes(6.0, 8.0, 1000)
        inc_vals = inc.map(xs)
        dec_vals = dec.map(xs)
        assert np.all(np.diff(inc_vals) > 0.0)
        assert np.all(np.diff(dec_vals) < 0.0)
        lo, hi = sol.support
        for vals in (inc_vals, dec_vals):
            assert vals.min() >= lo - 1e-9
            assert vals.max() <= hi + 1e-9

    def test_variant_validation(self, maps):
        sol, _, _ = maps
        with pytest.raises(ValueError, match="variant"):
            build_map(SPEC_I, sol, "sideways")

    def test_solution_type(self, maps):
        _, inc, _ = maps
        assert isinstance(inc, TransportMapSolution)
        assert inc.variant == "increasing"


class TestTransportCost:
    def test_variants_agree(self, maps):
        # disjoint ordered supports make the cost linear in the map, so
        # every rearrangement of the same marginals costs the same
        _, inc, dec = maps
        assert abs(inc.cost - dec.cost) <= 1e-8

    def test_cost_identity(self, maps):
        sol, inc, _ = maps
        identity = SPEC_I.source_density.barycenter() - sol.expectation
        assert abs(inc.cost - identity) <= 1e-8

    def test_mirrored_cost_identity(self, solved):
        sol = solved(SPEC_II, 1e-3)
        inc = build_map(SPEC_II, sol, "increasing")
        identity = sol.expectation - SPEC_II.source_density.barycenter()
        assert SPEC_II.source_density.barycenter() < 0.0
        assert abs(inc.cost - identity) <= 1e-8

    def test_sharp_limit_value(self, maps):
        # means 7 and 4: the limit cost is 3
        _, inc, _ = maps
        assert inc.cost == pytest.approx(3.0, abs=0.05)

    def test_recompute_matches_stored(self, maps):
        # Rebuilding the map reproduces its cost bit for bit.
        sol, inc, _ = maps
        assert build_map(SPEC_I, sol, "increasing").cost == inc.cost

    def test_ramp_source(self, solved):
        sol = solved(RAMP, 1e-3)
        inc = build_map(RAMP, sol, "increasing")
        identity = RAMP.source_density.barycenter() - sol.expectation
        assert abs(inc.cost - identity) <= 1e-8

    def test_unequally_spaced_source(self, maps):
        # The map's slope kinks wherever the source density does; the cost
        # quadrature must split there (without it, 2e-6 off the identity).
        sol = maps[0]
        source = normalize_density(SourceDensity(
            interval=(6.0, 8.0), kind="piecewise-linear",
            nodes=(6.0, 6.1475, 6.1877, 6.7828, 6.8475, 6.8571, 6.9523,
                   7.1414, 8.0),
            values=(1.26, 0.42, 1.88, 1.43, 1.68, 1.81, 1.25, 0.27, 1.48)))
        spec = dataclasses.replace(SPEC_I, source_density=source)
        identity = source.barycenter() - sol.expectation
        for variant in ("increasing", "decreasing"):
            cost = build_map(spec, sol, variant).cost
            assert abs(cost - identity) <= 1e-9


class TestPushforwardResidual:
    def test_built_maps_are_tight(self, maps):
        sol, inc, dec = maps
        assert pushforward_residual(inc, sol, SPEC_I, 1000) <= 1e-6
        assert pushforward_residual(dec, sol, SPEC_I, 1000) <= 1e-6

    def test_detects_a_shifted_map(self, maps):
        sol, inc, _ = maps

        class Shifted:
            def __init__(self, inner):
                self._inner = inner

            def __call__(self, x):
                return self._inner(x) + 0.1

        broken = dataclasses.replace(inc, map=Shifted(inc.map))
        assert pushforward_residual(broken, sol, SPEC_I, 200) > 0.01

    def test_analytic_quantile_map(self, maps):
        # uniform source onto the exact tent: left half solves
        # (s-3)^2/2 = (x-6)/2, right half 1 - (5-s)^2/2 = (x-6)/2; the
        # defect against the smoothed pair is the regularization
        # distance, a few 1e-4 at this smoothing, not root-solve noise
        sol, inc, _ = maps
        xs = np.linspace(6.0, 8.0, 801)
        analytic = np.where(
            xs <= 7.0,
            3.0 + np.sqrt(np.maximum(xs - 6.0, 0.0)),
            5.0 - np.sqrt(np.maximum(8.0 - xs, 0.0)))
        assert analytic[400] == pytest.approx(4.0, abs=1e-12)
        assert np.max(np.abs(analytic - inc.map(xs))) <= 2e-3
        f = SPEC_I.source_density.cdf(xs)
        q = inc.target_cdf(np.clip(analytic, *sol.support))
        assert np.max(np.abs(q - f)) <= 2e-3

    def test_ramp_residual(self, solved):
        sol = solved(RAMP, 1e-3)
        inc = build_map(RAMP, sol, "increasing")
        assert pushforward_residual(inc, sol, RAMP, 500) <= 1e-6


class TestMirrorMaps:
    def test_maps_mirror(self, solved, maps):
        _, inc, dec = maps
        msol = solved(SPEC_II, 1e-3)
        minc = build_map(SPEC_II, msol, "increasing")
        mdec = build_map(SPEC_II, msol, "decreasing")
        xs = chebyshev_nodes(6.0, 8.0, 800)
        assert np.max(np.abs(minc.map(-xs[::-1]) + inc.map(xs)[::-1])) <= 1e-9
        assert np.max(np.abs(mdec.map(-xs[::-1]) + dec.map(xs)[::-1])) <= 1e-9

    def test_costs_mirror(self, solved, maps):
        _, inc, _ = maps
        msol = solved(SPEC_II, 1e-3)
        minc = build_map(SPEC_II, msol, "increasing")
        assert minc.cost == pytest.approx(inc.cost, abs=1e-10)


class TestChebyshevNodes:
    def test_structure(self):
        xs = chebyshev_nodes(0.0, 1.0, 9)
        assert xs[0] == 0.0
        assert xs[-1] == 1.0
        assert np.all(np.diff(xs) > 0.0)
        # quadratic clustering: the end gap is much finer than the middle
        assert xs[1] - xs[0] < 0.25 * (xs[5] - xs[4])
