"""Transport maps: CDF endpoints, quantile composition, the cost against
its quadrature, pushforward residuals, and mirror agreement."""

import collections
import dataclasses

import numpy as np
import pytest

from monge1d import numerics, transport
from monge1d.cli import cost_json_document, map_csv
from monge1d.duality import DensitySolution
from monge1d.numerics import MonotoneProfile
from monge1d.problem import (
    MongeProblemSpec,
    SourceDensity,
    normalize_density,
    uniform_spec,
    validate_spec,
)
from monge1d.transport import (
    TransportMap,
    build_map,
    chebyshev_nodes,
    pushforward_residual,
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
        sol, inc, _ = maps
        q = inc.target.cdf
        assert q(sol.support[0]) == 0.0
        assert q(sol.support[1]) == 1.0

    def test_median_at_tent_peak(self, maps):
        # near the sharp limit the density is the symmetric tent, whose
        # median sits at the peak; smoothing shifts it at O(p* - 3)
        _, inc, _ = maps
        assert inc.target.cdf(4.0) == pytest.approx(0.5, abs=5e-3)

    def test_mirrored_median(self, solved):
        sol = solved(SPEC_II, 1e-3)
        q = sol.cdf
        assert q(-4.0) == pytest.approx(0.5, abs=5e-3)

    def test_strictly_increasing_inside(self, maps):
        sol, inc, _ = maps
        q = inc.target.cdf
        assert np.all(np.diff(q(sol.nodes)) > 0.0)

    def test_nan_target_is_named(self, solved):
        # searchsorted sorts NaN past the last fraction: the inverse must
        # refuse it by name, not index past its panels.
        sol = solved(SPEC_I, 1e-2)
        with pytest.raises(ValueError, match="CDF target 1 is NaN"):
            sol.quantile(np.array([0.5, np.nan]))


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
        assert isinstance(inc, TransportMap)
        assert inc.variant == "increasing"


UNEQUAL = dataclasses.replace(SPEC_I, source_density=normalize_density(
    SourceDensity(interval=(6.0, 8.0), kind="piecewise-linear",
                  nodes=(6.0, 6.1475, 6.1877, 6.7828, 6.8475, 6.8571, 6.9523,
                         7.1414, 8.0),
                  values=(1.26, 0.42, 1.88, 1.43, 1.68, 1.81, 1.25, 0.27,
                          1.48))))


class TestTransportCost:
    @pytest.mark.parametrize("variant", ["increasing", "decreasing"])
    @pytest.mark.parametrize("spec, solve_spec", [
        (SPEC_I, SPEC_I), (SPEC_II, SPEC_II), (RAMP, RAMP),
        # An unequally spaced source onto the uniform source's density:
        # the reference quadrature splits at its kinks.
        (UNEQUAL, SPEC_I)], ids=["I", "II", "ramp", "unequal"])
    def test_matches_the_quadrature(self, solved, reference_cost, spec,
                                    solve_spec, variant):
        # The closed form against the integral of |x - s(x)| f(x) along
        # the map it prices: the check on the whole chain.
        sol = solved(solve_spec, 1e-3)
        built = build_map(spec, sol, variant)
        assert abs(built.cost - reference_cost(built, spec)) <= 1e-9

    def test_variants_agree_bitwise(self, maps):
        # disjoint ordered supports make the cost linear in the map, so
        # every rearrangement of the same marginals costs the same
        _, inc, dec = maps
        assert inc.cost == dec.cost

    def test_sharp_limit_value(self, maps):
        # means 7 and 4: the limit cost is 3
        _, inc, _ = maps
        assert inc.cost == pytest.approx(3.0, abs=0.05)

    def test_recompute_matches_stored(self, maps):
        # Rebuilding the map reproduces its cost bit for bit.
        sol, inc, _ = maps
        assert build_map(SPEC_I, sol, "increasing").cost == inc.cost


class TestPushforwardResidual:
    def test_built_maps_are_tight(self, maps):
        sol, inc, dec = maps
        assert pushforward_residual(inc, sol, SPEC_I) <= 1e-6
        assert pushforward_residual(dec, sol, SPEC_I) <= 1e-6

    def test_detects_a_shifted_map(self, maps):
        # The residual reads the map through its target's quantile, so a
        # map onto a shifted target shows.
        sol, inc, _ = maps

        class Shifted(DensitySolution):
            def quantile(self, t):
                return super().quantile(t) + 0.1

        target = Shifted(**{f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)})
        broken = TransportMap(inc.variant, inc.source_density, target, inc.cost)
        xs = np.linspace(6.0, 8.0, 11)
        assert np.array_equal(broken.map(xs), inc.map(xs) + 0.1)
        assert pushforward_residual(broken, sol, SPEC_I) > 0.01

    def test_reads_the_map_through_its_own_source(self, maps):
        # A map built for a tabulated source, checked against the uniform
        # spec: s(x) is the map's own value at the probes, so the residual
        # is its true defect against the uniform F, not 0; checked against
        # its own spec it is at rounding level.
        sol, _, _ = maps
        tabulated = dataclasses.replace(SPEC_I, source_density=normalize_density(SourceDensity(
            interval=(6.0, 8.0), kind="tabulated", nodes=tuple(np.linspace(6.0, 8.0, 7)),
            values=(0.3, 1.7, 0.9, 0.2, 1.1, 1.9, 0.6))))
        xs = chebyshev_nodes(*SPEC_I.source_interval, transport._PUSHFORWARD_PROBE_N)
        f = SPEC_I.source_density.cdf(xs)
        for variant, fractions in (("increasing", f), ("decreasing", 1.0 - f)):
            m = build_map(tabulated, sol, variant)
            defect = float(np.max(np.abs(sol.cdf(m.map(xs)) - fractions)))
            assert defect > 0.1
            assert pushforward_residual(m, sol, SPEC_I) == defect
            assert pushforward_residual(m, sol, tabulated) <= 1e-14

    def test_detects_a_defect_between_coarse_probes(self, maps):
        # A map wrong only on a source window 0.016 wide at the source's
        # centre, a quarter of the spacing of a 50-point Chebyshev grid
        # there (0.064) and between two of its nodes: the residual's probes
        # must be fine enough to land in it.
        sol, inc, _ = maps
        (a, b), centre = SPEC_I.source_interval, 7.0
        coarse = chebyshev_nodes(a, b, 50)
        k = int(np.searchsorted(coarse, centre))
        window = (centre - 0.008, centre + 0.008)
        assert coarse[k - 1] < window[0] and window[1] < coarse[k]
        dented = SPEC_I.source_density.cdf(np.array(window))

        class Dented(DensitySolution):
            def quantile(self, t):
                inside = (np.asarray(t) > dented[0]) & (np.asarray(t) < dented[1])
                return np.where(inside, super().quantile(t) + 0.1, super().quantile(t))

        target = Dented(**{f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)})
        broken = TransportMap(inc.variant, inc.source_density, target, inc.cost)
        assert np.array_equal(broken.map(coarse), inc.map(coarse))
        assert pushforward_residual(broken, sol, SPEC_I) > 0.01

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
        q = sol.cdf(np.clip(analytic, *sol.support))
        assert np.max(np.abs(q - f)) <= 2e-3

    def test_reads_the_solution_it_is_given(self, solved):
        # The residual is the defect against the solution passed in, not
        # against the one the map was built from: the eps 1e-2 map checked
        # against the eps 1e-3 density misses by the smoothing's shift.
        coarse, fine = solved(SPEC_I, 1e-2), solved(SPEC_I, 1e-3)
        inc = build_map(SPEC_I, coarse, "increasing")
        assert pushforward_residual(inc, coarse, SPEC_I) <= 1e-14
        assert pushforward_residual(inc, fine, SPEC_I) > 1e-4

    def test_ramp_residual(self, solved):
        sol = solved(RAMP, 1e-3)
        inc = build_map(RAMP, sol, "increasing")
        assert pushforward_residual(inc, sol, RAMP) <= 1e-6


class TestInverseWork:
    @pytest.mark.parametrize("eps,sweeps", [(1e-1, [4, 4, 4, 4]), (1e-2, [4, 4, 4, 4]),
                                            (1e-3, [3, 3, 3, 3])])
    def test_inverse_work_is_pinned(self, solved, monkeypatch, eps, sweeps):
        # Sweeps of each `_solve_panels` call behind `map`'s artifacts on
        # the canonical spec: map.csv's 2001 points through the increasing
        # and the decreasing map, then cost.json's two pushforward
        # residuals on 1000 Chebyshev points each.  Every sweep evaluates
        # every target of its call (1999, 1999, 998 and 998 here), so a
        # change to the start or the stop shows in these counts.
        sol = solved(SPEC_I, eps)
        calls = []
        plain_solve, plain_horner = MonotoneProfile._solve_panels, numerics._horner

        def solve(self, k, f):
            calls.append(0)
            return plain_solve(self, k, f)

        def horner(rows, w):
            calls[-1] += 1
            return plain_horner(rows, w)

        monkeypatch.setattr(MonotoneProfile, "_solve_panels", solve)
        monkeypatch.setattr(numerics, "_horner", horner)
        inc, dec = (build_map(SPEC_I, sol, v) for v in ("increasing", "decreasing"))
        map_csv(SPEC_I, inc, dec, 2001)
        cost_json_document(SPEC_I, sol, inc, dec)
        assert calls == sweeps


class TestSourceGeometryWork:
    def test_geometry_is_derived_once(self, solved, monkeypatch):
        # One derivation per SourceDensity construction and none per read:
        # the spec's checks, both maps and both pushforward residuals on one
        # solution make one source-CDF call (the residuals share their
        # probes' fractions), two barycenter calls and one each of
        # min_value and mass, and derive nothing.
        derived, reads = [], collections.Counter()
        plain_derive = SourceDensity._derive_cells

        def derive(self):
            derived.append(self)
            return plain_derive(self)

        monkeypatch.setattr(SourceDensity, "_derive_cells", derive)
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
        normalize_density(SourceDensity(interval=(6.0, 8.0), level=2.0))
        assert len(derived) == 3  # the spec's density, the level-2 one, its rescaling
        sol = solved(spec, 1e-3)
        for name in ("cdf", "barycenter", "min_value", "mass"):
            def counted(self, *args, _plain=getattr(SourceDensity, name), _name=name):
                reads[_name] += 1
                return _plain(self, *args)
            monkeypatch.setattr(SourceDensity, name, counted)
        transport._probe_fractions.cache_clear()
        derived.clear()

        assert validate_spec(spec).ok
        maps = [build_map(spec, sol, v) for v in ("increasing", "decreasing")]
        for m in maps:
            pushforward_residual(m, sol, spec)
        assert derived == []
        assert reads == {"cdf": 1, "barycenter": 2, "min_value": 1, "mass": 1}

    def test_probe_fractions_are_read_once_per_source(self, solved, monkeypatch):
        # Both residuals on one source read its CDF once, and the residual
        # with the kept fractions equals the one computed afresh; the kept
        # fractions refuse writes.
        sol = solved(RAMP, 1e-3)
        maps = [build_map(RAMP, sol, v) for v in ("increasing", "decreasing")]
        transport._probe_fractions.cache_clear()
        reads = []
        plain = SourceDensity.cdf
        monkeypatch.setattr(SourceDensity, "cdf",
                            lambda self, x: reads.append(self) or plain(self, x))
        got = [pushforward_residual(m, sol, RAMP) for m in maps]
        assert reads == [RAMP.source_density]
        xs = chebyshev_nodes(*RAMP.source_interval, transport._PUSHFORWARD_PROBE_N)
        f = plain(RAMP.source_density, xs)
        for m, residual, fractions in zip(maps, got, (f, 1.0 - f)):
            q = sol.cdf(m.target.quantile(fractions))
            assert residual == float(np.max(np.abs(q - fractions)))
        kept = transport._probe_fractions(RAMP.source_density, RAMP.source_interval)
        with pytest.raises(ValueError):
            kept[0] = 0.0

    def test_probe_fractions_key_by_value(self):
        # Two densities equal by value share one entry; another probed
        # interval is another entry.
        transport._probe_fractions.cache_clear()
        density = RAMP.source_density
        twin = SourceDensity(interval=(6.0, 8.0), kind="piecewise-linear",
                             nodes=(6.0, 8.0), values=(0.1, 0.9))
        assert twin is not density
        first = transport._probe_fractions(density, (6.0, 8.0))
        assert transport._probe_fractions(twin, (6.0, 8.0)) is first
        other = transport._probe_fractions(density, (6.5, 8.0))
        assert other is not first and not np.array_equal(other, first)
        info = transport._probe_fractions.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


class TestMirrorMaps:
    def test_target_cdfs_mirror(self, solved, maps):
        # The mirrored pair reads the same pass at the same depths, so the
        # mirrored CDF is one minus the CDF, bit for bit.
        sol = maps[0]
        msol = solved(SPEC_II, 1e-3)
        ys = np.concatenate([np.linspace(*sol.support, 997), sol.nodes])
        assert np.array_equal(sol.cdf(ys), 1.0 - msol.cdf(-ys))

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
    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_nodes_raise(self, n):
        # one node cannot hold both endpoints (the spacing would be 0/0)
        with pytest.raises(ValueError, match="n >= 2"):
            chebyshev_nodes(0.0, 1.0, n)

    def test_structure(self):
        xs = chebyshev_nodes(0.0, 1.0, 9)
        assert xs[0] == 0.0
        assert xs[-1] == 1.0
        assert np.all(np.diff(xs) > 0.0)
        # quadratic clustering: the end gap is much finer than the middle
        assert xs[1] - xs[0] < 0.25 * (xs[5] - xs[4])

    def test_nodes_are_fresh_and_match_the_formula(self):
        # Each call returns a new writable array, equal bit for bit to the
        # formula written out here.
        k = np.arange(9, dtype=float)
        a, b = chebyshev_nodes(-2.0, 3.0, 9), chebyshev_nodes(-2.0, 3.0, 9)
        assert np.array_equal(a, 0.5 * (-2.0 + 3.0) - 0.5 * (3.0 + 2.0) * np.cos(np.pi * k / 8))
        assert a is not b and a.flags.writeable
        a[0] = 99.0
        assert chebyshev_nodes(-2.0, 3.0, 9)[0] == -2.0
