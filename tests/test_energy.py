"""Energies: the solve's against plain quadrature, the zero-gap identity,
weak duality, and the sign structure of the variational probes."""

import dataclasses
import inspect
import itertools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import reference_energies as ref
from conftest import regime_spec
from monge1d import duality, numerics
from monge1d.duality import assemble_density
from monge1d.energy import (
    ConstraintResiduals,
    ProbeReport,
    SinePerturbation,
    duality_gap,
    second_variation_probe,
)
from monge1d.errors import InvalidPerturbation, MaxDepth
from monge1d.oracles import mirror_transform, tent_limit_density
from monge1d.problem import uniform_spec
from reference_quadrature import depth_pass, integrate, inverted_pass
from reference_solves import inverted_at, stress_at

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
SPEC_II = uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", 1.0)


@dataclass(frozen=True)
class ZeroProfile:
    """The identically-zero profile on an interval (a trivial competitor)."""

    support: tuple[float, float]

    def __call__(self, y):
        out = np.zeros_like(np.asarray(y, dtype=float))
        return out if np.ndim(y) else 0.0

    def slope(self, y):
        out = np.zeros_like(np.asarray(y, dtype=float))
        return out if np.ndim(y) else 0.0


def _const(value):
    return lambda y: np.full(np.shape(y), float(value))


def _inverted(sol, y):
    """(log_lambda, slope) at y from the inversion of the solved stress."""
    return inverted_at(sol.dual, y, sol.spec.alpha, sol.epsilon)


def _slope(sol):
    """The delivered density's slope on its support: the dual slope."""
    return lambda y: _inverted(sol, y)[1]


# -- primal -------------------------------------------------------------------

class TestPrimalEnergy:
    def test_tent_value(self):
        # slopes +-alpha make H identically eps on the support, so the
        # energy is eps * width - mean: the -4 + delta form with
        # delta = 2 eps at alpha = 1
        tent = tent_limit_density(SPEC_I)
        slope = lambda y: tent.alpha * np.sign(tent.center - y)
        for eps in (0.1, 0.01):
            delta = ref.primal(tent, slope, tent.support, 1.0, eps) + 4.0
            assert delta == pytest.approx(2.0 * eps, abs=1e-9)

    def test_generic_path_matches_exact_path(self, solved):
        # the solve's H-term row and moment, and a plain quadrature of
        # H(u_y) - u |y| over the delivered density, agree to its
        # interpolation error
        sol = solved(SPEC_I, 1e-3)
        assert ref.primal(sol, _slope(sol), sol.support, 1.0, 1e-3) == pytest.approx(
            duality_gap(sol).primal, abs=2e-6)

    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    def test_orientation_relation(self, solved, spec):
        # the target lies on one side of the origin, so the moment term is
        # the expectation under orientation I and its negative under II
        sol = solved(spec, 1e-3)
        sign = 1.0 if spec.assumption == "I" else -1.0
        h_term = 1e-3 * integrate(
            lambda y: np.exp(_inverted(sol, y)[0]), *sol.support,
            tol=1e-12, breakpoints=(sol.dual.zeros[1],))
        assert duality_gap(sol).primal == pytest.approx(
            h_term - sign * sol.expectation, abs=1e-10)

    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    def test_full_target_offset(self, solved, spec):
        sol = solved(spec, 0.1)
        lo, hi = sol.support
        rest = 5.0 - (hi - lo)
        assert duality_gap(sol).full_target_offset == pytest.approx(
            0.1 * math.exp(-5.0) * rest, rel=1e-9)


# -- dual ---------------------------------------------------------------------

class TestDualEnergy:
    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    def test_unit_scale_override_matches_reduction(self, solved, spec):
        # at lambda == 1 the integrand collapses to th^2 + a^2 - 2 eps;
        # the multiplier prices the unit mass
        sol = solved(spec, 1e-3)
        out = ref.dual(sol, _const(0.0))
        reduced = -0.5 * integrate(
            lambda y: stress_at(sol.dual, y) ** 2 + 1.0 - 2e-3,
            *sol.support, tol=1e-12,
            breakpoints=(sol.dual.zeros[1],)) + sol.dual.multiplier
        assert out == pytest.approx(reduced, rel=1e-12)

    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    def test_overrides_never_beat_critical(self, solved, spec):
        # pointwise strict concavity in the scale factor
        sol = solved(spec, 1e-3)
        critical = duality_gap(sol).dual
        for lam in (0.9, 1.0, 0.5, 0.99):
            assert ref.dual(sol, _const(math.log(lam))) < critical

    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    def test_weak_duality_on_random_scale_profiles(self, solved, spec):
        sol = solved(spec, 1e-3)
        primal = duality_gap(sol).primal
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

            assert ref.dual(sol, log_lam) <= primal + 1e-8

    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    def test_detuned_override_at_a_steep_slope(self, solved, spec):
        # The field's own log factor shifted everywhere, at alpha 4 and
        # eps 1e-3: a graded panel node can round onto a stress zero,
        # where exp(-l/2) overflows but the th^2/lam term is exactly 0.
        spec = dataclasses.replace(spec, alpha=4.0)
        sol = solved(spec, 1e-3)
        critical = duality_gap(sol).dual
        for shift in (-0.1, -0.01, 0.0):
            out = ref.dual(sol, lambda y, s=shift: np.minimum(
                _inverted(sol, y)[0] + s, 0.0))
            assert math.isfinite(out)
            assert out <= critical + 1e-12


# -- mixed --------------------------------------------------------------------

class TestTotalComplementary:
    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    def test_fenchel_young_on_random_overrides(self, solved, spec):
        # Xi(u, zeta) <= primal(u) for every admissible zeta; equality
        # needs the locking identity
        sol = solved(spec, 1e-3)
        primal = duality_gap(sol).primal
        rng = np.random.default_rng(1)
        for _ in range(20):
            level = math.log(rng.uniform(0.05, 1.0))
            assert ref.mixed(sol, _slope(sol), sol.support, 1.0, 1e-3,
                             _const(level)) <= primal + 1e-8

    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    def test_solved_pair_is_the_reported_mixed_energy(self, solved, spec):
        # the locked pair's mixed energy by plain quadrature over the
        # delivered density, to its interpolation error
        sol = solved(spec, 1e-3)
        out = ref.mixed(sol, _slope(sol), sol.support, 1.0, 1e-3,
                        lambda y: _inverted(sol, y)[0])
        assert out == pytest.approx(duality_gap(sol).xi_total, abs=2e-6)


# -- the gap report -----------------------------------------------------------

class TestDualityGap:
    def test_triple_identity(self, solved):
        sol = solved(SPEC_I, 1e-3)
        report = duality_gap(sol)
        scale = max(1.0, abs(report.primal))
        assert abs(report.gap_primal_dual) <= 1e-6 * scale
        assert abs(report.gap_primal_xi) <= 1e-6 * scale
        assert report.gap_primal_dual == pytest.approx(
            report.primal - report.dual, abs=1e-15)

    def test_residual_fields(self, solved):
        report = duality_gap(solved(SPEC_I, 1e-3))
        res = report.constraint_residuals
        assert isinstance(res, ConstraintResiduals)
        assert res.mass_error <= 1e-10
        assert res.negativity == 0.0
        # strong smoothing at alpha = 1 runs the slope above the nominal
        # ceiling; the report carries the excess instead of hiding it
        assert 0.0 < res.slope_excess < 0.01

    @pytest.mark.parametrize("eps", [0.1, 1e-3])
    def test_mirrored_gaps_agree(self, solved, eps):
        a = duality_gap(solved(SPEC_I, eps))
        b = duality_gap(solved(SPEC_II, eps))
        assert b.gap_primal_dual == pytest.approx(a.gap_primal_dual, abs=1e-10)
        assert b.primal == pytest.approx(a.primal, abs=1e-10)
        assert b.dual == pytest.approx(a.dual, abs=1e-10)

    def test_gap_across_smoothing_levels(self, solved):
        # The canonical spec at alpha 1 and 4: the gap is the one pass's
        # rounding, far inside verify's 1e-6 bound.
        for alpha, eps in itertools.product((1.0, 4.0), (1e-1, 1e-2, 1e-3, 1e-4)):
            spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
            report = duality_gap(solved(spec, eps))
            assert abs(report.gap_primal_dual) <= 2e-13 * max(
                1.0, abs(report.primal))

    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    @pytest.mark.parametrize("eps", [0.1, 1e-2, 1e-3])
    @pytest.mark.parametrize("alpha", [1.0, 4.0])
    def test_energies_meet_plain_quadrature(self, solved, spec, eps, alpha):
        # The reported energies against a plain quadrature of their
        # integrands at the solved pair: the primal and mixed over the
        # delivered density, to its interpolation error, and the dual in
        # its th^2/lam form (not the pass's locked lam slope^2 row) on
        # the field's panels, to the reference's tolerance.
        sol = solved(dataclasses.replace(spec, alpha=alpha), eps)
        report = duality_gap(sol)
        assert ref.primal(sol, _slope(sol), sol.support, alpha, eps) == pytest.approx(
            report.primal, abs=2e-6)
        log_lam = lambda y: _inverted(sol, y)[0]
        assert ref.mixed(sol, _slope(sol), sol.support, alpha, eps,
                         log_lam) == pytest.approx(
            report.xi_total, abs=2e-6)
        assert ref.dual(sol, log_lam) == pytest.approx(
            report.dual, abs=ref.TOL)

    def test_no_pass_on_a_solution(self, solved, adaptive_passes):
        # The three energies are rows of the solve's last Newton pass:
        # reading them off a solution runs no pass of its own.
        sol = solved(SPEC_I, 1e-3)
        adaptive_passes.clear()
        duality_gap(sol)
        assert adaptive_passes == []

    @pytest.mark.parametrize("spec", [SPEC_I, SPEC_II], ids=["I", "II"])
    @pytest.mark.parametrize("eps", [0.1, 1e-3])
    def test_solve_and_energies_cost_the_solve_alone(self, adaptive_passes,
                                                     spec, eps):
        # A solve runs one pass per Newton step plus the start's
        # (`test_duality.py` holds that count); its gap report adds none.
        sol = assemble_density(spec, eps, 201)
        passes = len(adaptive_passes)
        duality_gap(sol)
        assert len(adaptive_passes) == passes >= 1

    REGIMES = [(alpha, eps, offset, assumption)
               for alpha in (0.5, 1.0, 4.0) for eps in (1e-1, 1e-3, 1e-6)
               for offset in (0.0, 1000.0) for assumption in ("I", "II")]

    @pytest.mark.parametrize("alpha,eps,offset,assumption", REGIMES)
    def test_gap_at_solver_precision(self, alpha, eps, offset, assumption):
        spec = regime_spec(alpha, 2.5, offset, assumption)
        report = duality_gap(assemble_density(spec, eps, 201))
        assert abs(report.gap_primal_dual) <= 2e-13 * max(1.0, abs(report.primal))

    @pytest.mark.parametrize("alpha,eps,offset,assumption", REGIMES)
    def test_energies_meet_an_independent_pass(self, solved, alpha, eps,
                                               offset, assumption):
        # The energies have no pass of their own: integrate their three
        # rows afresh on the field's own panels, at 1e-13, and compare.
        # The solve sums no mixed row, so the third comparison checks the
        # locking identity that makes `xi_total` the primal energy.  The
        # worst difference measured over these regimes is 1.1e-16 of
        # max(1, |energy|), in the dual; the primal and mixed rows agree
        # exactly.
        spec = regime_spec(alpha, 2.5, offset, assumption)
        sol = solved(spec, eps, 201)
        a2 = alpha * alpha

        def rows(y, l, g):
            lam = np.exp(l)
            return (eps * lam, -lam * (g * g - eps),
                    lam * (0.5 * (g * g - a2) - eps * (l - 1.0)))

        h_term, dual_term, xi_term = sol._row_pass(rows, 1e-13, ())
        moment = abs(sol.expectation)
        report = duality_gap(sol)
        for got, ref in ((report.primal, h_term - moment),
                         (report.dual, dual_term + sol.dual.multiplier),
                         (report.xi_total, xi_term - moment)):
            assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref))


# -- the row pass -------------------------------------------------------------

# (alpha, eps, offset, assumption, width in sharp widths): free ends on the
# regime grid, full targets at exactly the sharp width, and eps large
# enough that the floor l_min = -alpha^2/(2 eps) lies in every branch's
# window.
ROW_PASS_GRID = ([(alpha, eps, offset, assumption, 2.5)
                  for alpha in (0.5, 1.0, 4.0) for eps in (1e-1, 1e-2, 1e-4, 1e-6)
                  for offset in (0.0, 1000.0) for assumption in ("I", "II")]
                 + [(alpha, eps, 0.0, "I", 1.0)
                    for alpha in (0.5, 1.0, 4.0) for eps in (1e-1, 1e-3, 1e-6)]
                 + [(alpha, eps, 0.0, "I", factor) for alpha in (0.5, 1.0, 4.0)
                    for eps in (0.3, 1.0) for factor in (2.5, 1.0)])


class TestRowPass:
    @pytest.mark.parametrize("alpha,eps,offset,assumption,factor", ROW_PASS_GRID)
    def test_rows_meet_a_pass_in_depth(self, solved, alpha, eps, offset,
                                       assumption, factor):
        # The rows that the solution's row pass sums for the tests and
        # study 02 (closure, mass, H-term, dual and mixed), at 1e-13, against
        # the same rows integrated in depth, with every node inverted
        # (`reference_quadrature.depth_pass`).  The worst difference
        # measured on this grid is 2.2e-14 of max(1, |row|), at alpha 1,
        # eps 1e-4, offset 1000, where y itself carries rounding of that
        # size.
        sol = solved(regime_spec(alpha, factor, offset, assumption), eps, 201)
        a2, m = alpha * alpha, sol.support_endpoint

        def rows(y, l, g):
            lam = np.exp(l)
            return (g, (m - y) * g, eps * lam, -lam * (g * g - eps),
                    lam * (0.5 * (g * g - a2) - eps * (l - 1.0)))

        got = sol._row_pass(rows, 1e-13, ())
        want = depth_pass(sol, rows, 1e-13)
        assert np.all(np.abs(got - want) <= 5e-14 * np.maximum(1.0, np.abs(want)))

    def test_inverts_no_node(self, monkeypatch):
        # In l every node's depth, slope and Jacobian are closed forms: the
        # pass inverts no node, and the float inversion runs once per
        # branch end (the anchor, the vertex and a far edge short of the
        # free zero) when the solution builds its one geometry, on its first
        # pass: a free end has two branch ends, a full target three.  The
        # probe cuts at other levels than the row pass, and reads the same
        # geometry; a repeat of both inverts nothing.  Fresh solves: the
        # session's solutions may have been integrated already.
        calls = {"array": 0, "float": 0}
        array, one = duality._invert_stress_sq, duality._invert_stress_sq_one

        def counted_array(*args):
            calls["array"] += 1
            return array(*args)

        def counted_one(*args):
            calls["float"] += 1
            return one(*args)

        for factor, ends in ((2.5, 2), (1.0, 3)):
            sol = assemble_density(regime_spec(1.0, factor), 1e-3)
            monkeypatch.setattr(duality, "_invert_stress_sq", counted_array)
            monkeypatch.setattr(duality, "_invert_stress_sq_one", counted_one)
            for repeat_ends in (ends, 0):
                sol._row_pass(lambda y, l, g: (g, np.exp(l)), 1e-13, ())
                second_variation_probe(sol, SinePerturbation(sol.support), PROBE_T,
                                       dual_perturbation=_ONE)
                assert calls == {"array": 0, "float": repeat_ends}
                calls.update(array=0, float=0)
            monkeypatch.undo()

    def test_row_below_its_rounding_floor_meets_the_panel_budget(self):
        # (x - y) g at x the support's low end, 1000 from the origin, asked
        # for 1e-14: rounding noise keeps every panel over its share, so the
        # pass would double its panels each round until memory ran out.
        # The panel budget stops it short of 2^16 panels, in about 0.5 s.
        sol = assemble_density(regime_spec(4.0, 2.5, 1000.0), 1e-2)
        x = sol.support[0]
        with pytest.raises(MaxDepth, match=r"would exceed 65536 panels, from \d+ \(row 0: "
                           r"remaining error \d\.\d{3}e-\d+, target 1\.000e-14\)"):
            sol._row_pass(lambda y, l, g: (x - y) * g, 1e-14, ())

    # (alpha, eps, offset, assumption, width in sharp widths) and the
    # solution's readings in y as `float.hex`: the dual's constant,
    # multiplier and zeros, the support and its closing end.
    OWN_ZEROS = [
        ((1.0, 1e-2, 1000.0, "II", 2.5),
         ("-0x1.ebb22cde20bc8p+18", "-0x1.f5bed07b70370p+9",
          ("-0x1.f57dd0721243dp+9", "-0x1.f5ffd084ce2a3p+9"),
          ("-0x1.f680000000000p+9", "-0x1.f57dd0721243dp+9"), "-0x1.f57dd0721243dp+9")),
        ((1.0, 1e-3, 0.0, "I", 1.0),
         ("0x1.2fdab198440e5p+0", "0x1.5f942c2ce4614p-1",
          ("-0x1.2fcf025a0d9fep+1", "0x1.0009d88736de8p+0"),
          ("0x0.0p+0", "0x1.0000000000000p+1"), "0x0.0p+0")),
    ]

    @pytest.mark.parametrize("case,readings", OWN_ZEROS, ids=["offset_1000_II", "full"])
    def test_geometry_reads_the_solve_depth_zeros(self, monkeypatch, case, readings):
        # The row pass's geometry is built from the solve's own depth zeros
        # and the last edge of its pass, S, bit for bit.  Mapped to y and
        # back, the zeros lose bits: at offset 1000 both, on this full
        # target the crossing's last bit, and at offset 1000 S too.  What
        # the solution reads in y keeps its bits.
        alpha, eps, offset, assumption, factor = case
        seen = []
        plain = duality._row_pass

        def recorded(*args):
            seen.append(args)
            return plain(*args)

        monkeypatch.setattr(duality, "_row_pass", recorded)
        sol = assemble_density(regime_spec(alpha, factor, offset, assumption), eps)
        sol.integrate(lambda y, l, g: g)
        (zeros, S, anchor, orientation, alpha_read, eps_read), = seen
        assert [x.hex() for x in zeros] == [x.hex() for x in sol.depth_zeros]
        assert S.hex() == float(sol.profile.edges[-1]).hex()
        assert (anchor, orientation, alpha_read, eps_read) == (
            sol.spec.anchor, sol.spec.orientation, alpha, eps)
        dual = sol.dual
        got = (dual.constant.hex(), dual.multiplier.hex(),
               tuple(x.hex() for x in dual.zeros), tuple(x.hex() for x in sol.support),
               sol.support_endpoint.hex())
        assert got == readings

    def test_repeat_probe_builds_nothing(self, monkeypatch):
        # A second probe with the same perturbation and amplitudes reads the
        # geometry the first one built: no inversion, no table, and the
        # same deltas bit for bit.
        sol = assemble_density(SPEC_I, 1e-2)

        def probe():
            return second_variation_probe(sol, SinePerturbation(sol.support), PROBE_T,
                                          dual_perturbation=_ONE)

        first = probe()

        def refuse(*args):
            raise AssertionError("the repeat probe built its geometry again")

        monkeypatch.setattr(duality, "_invert_stress_sq_one", refuse)
        monkeypatch.setattr(duality, "_row_pass", refuse)
        again = probe()
        assert again.primal_deltas == first.primal_deltas
        assert again.dual_deltas == first.dual_deltas

    def test_one_geometry_per_solution(self, monkeypatch):
        # Passes at other levels and a probe read the geometry the first
        # pass built: the levels' cuts are the pass's own.  Each pass sums
        # what a fresh solution running that pass alone sums, bit for bit,
        # and the kept arrays refuse writes.
        built = []
        plain = duality._row_pass

        def counted(*args):
            built.append(args)
            return plain(*args)

        def row(y, l, g):
            return (g, np.exp(l) * g)

        def probe(sol):
            report = second_variation_probe(sol, SinePerturbation(sol.support), PROBE_T,
                                            dual_perturbation=_ONE)
            return report.primal_deltas + report.dual_deltas

        passes = [lambda sol, lv=levels: tuple(sol.integrate(row, lv).tolist())
                  for levels in ((), (0.0, -1e-3), (-1.0,))] + [probe]
        monkeypatch.setattr(duality, "_row_pass", counted)
        sol = assemble_density(SPEC_I, 1e-2)
        sums = [run(sol) for run in passes]
        assert len(built) == 1
        monkeypatch.undo()
        for run, got in zip(passes, sums):
            alone = run(assemble_density(SPEC_I, 1e-2))
            assert [x.hex() for x in got] == [x.hex() for x in alone]
        kept = inspect.getclosurevars(sol._row_pass).nonlocals
        for arr in (kept["starts"], kept["table"], kept["cuts"]):
            with pytest.raises(ValueError):
                arr[0] = 0.0


# -- probes -------------------------------------------------------------------

# The amplitudes `verify` probes with, under a constant log-scale bump.
PROBE_T = (-1e-2, -1e-3, 1e-3, 1e-2)
_ONE = _const(1.0)


def _dual_diff(sol, t, psi, l):
    """The probe's dual difference integrand under the log bump t * psi,
    at log scale factors l."""
    eps, a2 = sol.epsilon, sol.spec.alpha ** 2
    shift = np.minimum(t * psi, np.maximum(-l, 0.0))
    return -0.5 * np.exp(l) * ((a2 + 2.0 * eps * l) * np.expm1(-shift)
                               + (a2 + 2.0 * eps * (l - 1.0)) * np.expm1(shift)
                               + np.exp(shift) * 2.0 * eps * shift)


def _clip_levels(t):
    """The l where the clip min(t, max(-l, 0)) kinks, for t > 0: l = 0,
    where |theta| = alpha, and l = -t."""
    return (0.0, -t) if t > 0.0 else ()


def _single_row_deltas(sol, perturbation, psi, t):
    """(primal, dual) delta at one t, each from its own one-row pass over
    the field: the probe's two difference integrands, written out here.
    The dual pass is cut at the clip's kinks under the constant bump."""
    eps, dual = sol.epsilon, sol.dual

    def primal(y, l, g):
        dg = perturbation.slope(y)
        expo = np.minimum(t * dg * (2.0 * g + t * dg) / (2.0 * eps), 700.0)
        return (eps * np.exp(l) * np.expm1(expo)
                + t * dual.theta_y(y) * perturbation(y))

    return (sol.integrate(primal),
            sol.integrate(lambda y, l, g: _dual_diff(sol, t, psi(y), l), _clip_levels(t)))


def _clip_reference(sol, t):
    """Dual delta under the log bump t * 1 from scipy's `quad`, between
    the points where the clip min(t, max(-l, 0)) kinks (l = 0 at
    theta^2 = alpha^2, l = -t at theta^2 = e^{-2t} (alpha^2 - 2 eps t))
    and the stress zeros."""
    dual, eps, a2 = sol.dual, sol.epsilon, sol.spec.alpha ** 2
    f = lambda y: float(_dual_diff(sol, t, 1.0, _inverted(sol, np.array([y]))[0])[0])
    (lo, hi), (z, c) = sol.support, dual.zeros
    cuts = [lo, hi, z, c]
    # theta = -+(y - z)(y - c)/2 meets +-theta_k at the roots of a quadratic.
    for theta_sq in (a2, math.exp(-2.0 * t) * (a2 - 2.0 * eps * t)):
        for level in (2.0 * math.sqrt(theta_sq), -2.0 * math.sqrt(theta_sq)):
            disc = (0.5 * (z - c)) ** 2 + level
            if disc >= 0.0:
                cuts += [0.5 * (z + c) + side * math.sqrt(disc) for side in (-1, 1)]
    cuts = sorted({p for p in cuts if lo <= p <= hi})
    return math.fsum(quad(f, a, b, epsabs=1e-16, epsrel=1e-14, limit=500)[0]
                     for a, b in zip(cuts[:-1], cuts[1:]))


class TestSecondVariationProbe:
    def test_zero_perturbation_is_exactly_zero(self, solved):
        sol = solved(SPEC_I, 1e-3)
        report = second_variation_probe(
            sol, ZeroProfile(sol.support), (0.0, 1e-3, -1e-3))
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

    @pytest.mark.parametrize("t_values", [(1e-3, -1e-2), (0.0, 0.0)],
                             ids=["nonzero", "zeros"])
    def test_one_pass_per_probe(self, solved, adaptive_passes, t_values):
        # Every t's primal and dual rows ride on one pass over the field;
        # the rows of a t of 0 vanish identically and read exactly 0.0.
        sol = solved(SPEC_I, 1e-3)
        adaptive_passes.clear()
        report = second_variation_probe(sol, SinePerturbation(sol.support),
                                        t_values, dual_perturbation=_ONE)
        assert len(adaptive_passes) == 1
        if not any(t_values):
            zeros = (0.0,) * len(t_values)
            assert report.primal_deltas == report.dual_deltas == zeros

    def test_no_amplitude_raises(self, solved):
        sol = solved(SPEC_I, 1e-3)
        with pytest.raises(ValueError, match="one or more"):
            second_variation_probe(sol, SinePerturbation(sol.support), ())

    def test_deltas_keep_input_order_and_duplicates(self, solved):
        # The same nonzero t values in another order, repeated and mixed
        # with zeros, give the same rows and so the same panels: each delta
        # lands at its t's place, bit for bit.
        sol = solved(SPEC_I, 1e-3)
        pert = SinePerturbation(sol.support)
        base = second_variation_probe(sol, pert, (1e-3, -1e-2),
                                      dual_perturbation=_ONE)
        mixed = second_variation_probe(sol, pert, (-1e-2, 0.0, 1e-3, -1e-2),
                                       dual_perturbation=_ONE)
        for got, (a, b) in ((mixed.primal_deltas, base.primal_deltas),
                            (mixed.dual_deltas, base.dual_deltas)):
            assert got == (b, 0.0, a, b)

    @pytest.mark.parametrize("alpha,eps", list(itertools.product(
        (1.0, 4.0), (1e-1, 1e-2, 1e-3, 1e-4))))
    def test_stacked_deltas_match_single_row_passes(self, solved, alpha, eps):
        # Each row meets its own tolerance on the shared panels, so every
        # delta is its own one-row pass's, to the tolerance.
        sol = solved(uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha), eps)
        pert = SinePerturbation(sol.support)
        report = second_variation_probe(sol, pert, PROBE_T, dual_perturbation=_ONE)
        for t, got_p, got_d in zip(PROBE_T, report.primal_deltas, report.dual_deltas):
            ref_p, ref_d = _single_row_deltas(sol, pert, _ONE, t)
            assert abs(got_p - ref_p) <= 1e-10 * max(1.0, abs(ref_p))
            assert abs(got_d - ref_d) <= 1e-10 * max(1.0, abs(ref_d))

    # A target far from the origin, where bisection toward the unmarked
    # kink at l = -t left the t = +1e-2 dual row 3.65e-10 off.
    FAR = (uniform_spec((359.1705053898625, 360.20252525725147),
                        (352.0698544719311, 357.96130004151917), "I",
                        1.0048877247979175), 0.003700872303645173)

    @pytest.mark.parametrize("spec,eps", [
        (uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha), eps)
        for alpha in (0.5, 1.0) for eps in (1e-3, 1e-4)] + [FAR],
        ids=["a0.5-e1e-3", "a0.5-e1e-4", "a1-e1e-3", "a1-e1e-4", "far"])
    def test_dual_clip_layer_is_resolved(self, solved, spec, eps):
        # Under the constant bump at t > 0 the clip min(t, max(-l, 0))
        # kinks at |theta| = alpha and where l = -t.  The pass is cut at
        # both, so each dual row meets the scipy reference to rounding.
        sol = solved(spec, eps)
        report = second_variation_probe(sol, SinePerturbation(sol.support),
                                        PROBE_T, dual_perturbation=_ONE)
        for t, got in zip(PROBE_T[2:], report.dual_deltas[2:]):
            assert abs(got - _clip_reference(sol, t)) <= 1e-15

    @pytest.mark.parametrize("alpha,eps", list(itertools.product(
        (0.5, 1.0), (1e-1, 1e-2))))
    def test_kinked_probe_takes_one_round(self, solved, monkeypatch, alpha, eps):
        # With the clip's kinks as panel edges no row needs refining: the
        # pass is one vectorized round of Gauss-Kronrod panels.
        sol = solved(uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha), eps)
        rounds = []
        plain = numerics._gk_panels

        def counted(*args):
            rounds.append(1)
            return plain(*args)

        monkeypatch.setattr(numerics, "_gk_panels", counted)
        second_variation_probe(sol, SinePerturbation(sol.support), PROBE_T,
                               dual_perturbation=_ONE)
        assert len(rounds) == 1

    def test_varying_psi_gets_no_level_cut(self, solved, monkeypatch):
        # The levels take psi at the support's midpoint: a constant psi has
        # its kinks at l = 0 and l = -t psi, which are cut; a varying psi's
        # second kink lies at no fixed l, and no level is cut next to it.
        sol = solved(SPEC_I, 1e-3)
        (lo, hi), t = sol.support, 1e-2
        tilted = lambda y: 1.0 + 0.1 * (np.asarray(y) - 0.5 * (lo + hi))
        seen = []
        plain = duality.DensitySolution.integrate

        def recorded(solution, fn, levels=()):
            seen.append(tuple(levels))
            return plain(solution, fn, levels)

        monkeypatch.setattr(duality.DensitySolution, "integrate", recorded)
        for psi, levels in ((_ONE, _clip_levels(t)), (tilted, ())):
            second_variation_probe(sol, SinePerturbation(sol.support), (t, -t),
                                   dual_perturbation=psi)
            assert seen.pop() == levels

    def test_varying_psi_meets_quad(self, solved):
        # A psi that varies leaves the kink at l = -t psi(y) uncut.  At
        # alpha 0.5, eps 1e-3, on a target 1.3 sharp widths wide, the
        # t = +1e-2 dual delta missed scipy's `quad` by 3.3e-10 on the
        # solve's mesh, graded 64 ulps deep into each stress zero; on the
        # probe's own mesh it misses by 3.0e-13.
        alpha, eps, t = 0.5, 1e-3, 1e-2
        sol = solved(regime_spec(alpha, 1.3), eps)
        (lo, hi), a2 = sol.support, alpha * alpha
        tilted = lambda y: 1.0 + 0.1 * (np.asarray(y, dtype=float) - 0.5 * (lo + hi))
        got = second_variation_probe(sol, SinePerturbation(sol.support), (t,),
                                     dual_perturbation=tilted).dual_deltas[0]
        f = lambda y: float(_dual_diff(sol, t, tilted(y),
                                       _inverted(sol, np.array([y]))[0])[0])
        cuts = sorted({p for p in (lo, hi, *sol.dual.zeros) if lo <= p <= hi})
        ref = math.fsum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=1000)[0]
                        for a, b in zip(cuts[:-1], cuts[1:]))
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("eps,work", [(1e-1, (1, 435)), (1e-2, (1, 645)),
                                          (1e-3, (1, 690))])
    def test_probe_work_is_pinned(self, solved, monkeypatch, eps, work):
        # (rounds, integrand nodes) of `verify`'s probe on the canonical
        # spec.  The pass in depth, graded toward the stress zeros down to
        # its tolerance's floor and inverting every node, took (1, 1410),
        # (1, 1320) and (1, 1230); on the solve's mesh, graded 64 ulps deep
        # into each zero, (1, 2130), (1, 2130) and (2, 2160).
        sol = solved(SPEC_I, eps)
        nodes = []
        plain = numerics._gk_panels

        def counted(f, a, b):
            nodes.append(15 * a.size)
            return plain(f, a, b)

        monkeypatch.setattr(numerics, "_gk_panels", counted)
        second_variation_probe(sol, SinePerturbation(sol.support), PROBE_T,
                               dual_perturbation=_ONE)
        assert (len(nodes), sum(nodes)) == work

    # Rows whose primal exponent t dg (2 g + t dg)/(2 eps) reaches the clip
    # at 700 on the regime grid below, as (alpha, eps, t).  The clip kinks
    # the row where the exponent crosses 700, no pass is cut there, and the
    # probe and the reference then miss the kinks differently.
    CLIPPED = {(0.5, 1e-6, 1e-2), (1.0, 1e-6, 1e-3), (1.0, 1e-6, 1e-2),
               (4.0, 1e-4, 1e-2), (4.0, 1e-6, 1e-3), (4.0, 1e-6, 1e-2)}

    @pytest.mark.parametrize("alpha,eps,offset,assumption,factor", ROW_PASS_GRID)
    def test_deltas_meet_a_pass_on_the_solve_mesh(self, solved, monkeypatch, alpha,
                                                  eps, offset, assumption, factor):
        # The probe's pass runs in l (`DensitySolution.integrate`).  Hold
        # every delta to the probe's own rows integrated afresh in depth, with
        # every node inverted, on the solve's mesh, graded 64 ulps deep into
        # each zero, and cut at the depths of the probe's l-levels
        # (`reference_quadrature.depth_pass`).  The worst difference
        # measured on this grid is 8.2e-14 of max(1, |delta|), at alpha 4,
        # eps 1e-2, offset 1000.
        sol = solved(regime_spec(alpha, factor, offset, assumption), eps, 201)
        pert = SinePerturbation(sol.support)
        seen = {}
        plain = duality.DensitySolution.integrate

        def recorded(solution, fn, levels=()):
            seen.update(fn=fn, levels=levels)
            return plain(solution, fn, levels)

        monkeypatch.setattr(duality.DensitySolution, "integrate", recorded)
        report = second_variation_probe(sol, pert, PROBE_T, dual_perturbation=_ONE)
        ref = depth_pass(sol, seen["fn"], 1e-12, seen["levels"])
        ys = np.linspace(*sol.support, 20001)
        g, dg = _inverted(sol, ys)[1], pert.slope(ys)
        for t, got, want in zip(PROBE_T, report.primal_deltas, ref):
            clipped = np.max(t * dg * (2.0 * g + t * dg) / (2.0 * eps)) >= 700.0
            assert clipped == ((alpha, eps, t) in self.CLIPPED)
            if not clipped:
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        for got, want in zip(report.dual_deltas, ref[len(PROBE_T):]):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_rejected(self, solved, t):
        sol = solved(SPEC_I, 1e-3)
        with pytest.raises(ValueError, match="finite"):
            second_variation_probe(sol, SinePerturbation(sol.support), (1e-3, t))


# -- expansion remainder ------------------------------------------------------

class TestTaylorRemainder:
    def test_frozen_point_value(self):
        # remainder at lambda = 1/2 for (1, 0.1), against the closed form
        # 2 eps lam^2 (ln lam - lam + 1)
        lam = 0.5
        e_lam = lam ** 2 * (1.0 + 0.2 * math.log(lam))
        direct = e_lam - (1.0 - 0.2) * lam ** 2 - 0.2 * lam ** 3
        closed = 2.0 * 0.1 * lam ** 2 * (math.log(lam) - lam + 1.0)
        assert direct == pytest.approx(closed, rel=1e-12)
        assert direct == pytest.approx(-0.009657359027997266, rel=1e-12)

    @pytest.mark.parametrize("alpha,epsilon", [(1.0, 0.1), (1.0, 0.01),
                                               (2.0, 0.1), (1.0, 1e-4),
                                               (4.0, 1e-4), (1.0, 1e-6)])
    def test_bounded_by_epsilon(self, alpha, epsilon):
        # The deviation 2 eps lam^2 (ln lam + 1 - lam) peaks in magnitude
        # at the root lam* of 3 lam - 3 = 2 ln lam, inside the window for
        # every eps < alpha^2/2: the maximum is that peak at any smoothing,
        # however narrow the peak is on the window's log scale.
        with mpmath.workdps(30):
            lam = mpmath.findroot(lambda x: 3 * x - 3 - 2 * mpmath.log(x), 0.4)
            peak = 2 * lam ** 2 * abs(mpmath.log(lam) + 1 - lam)
            assert lam > mpmath.exp(-alpha ** 2 / (2 * epsilon))
            exact = float(peak * epsilon)
        worst = ref.taylor_remainder_check(alpha, epsilon)
        assert abs(worst - exact) <= 2 * np.spacing(exact)
        assert worst <= epsilon

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ref.taylor_remainder_check(1.0, 0.6)


# -- expectation --------------------------------------------------------------

class TestExpectation:
    def test_solution_values(self, solved):
        assert solved(SPEC_I, 1e-3).expectation == pytest.approx(4.0, abs=0.02)
        assert solved(SPEC_II, 1e-3).expectation == pytest.approx(-4.0, abs=0.02)

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    @pytest.mark.parametrize("assumption", ["I", "II"])
    @pytest.mark.parametrize("eps", [0.1, 1e-3])
    def test_matches_reference_moment(self, solved, offset, assumption, eps):
        # The expectation comes from the solve's last pass, refined to the
        # solve's tolerance.  Against it: a separate quadrature of the moment
        # integral of (s - S)^2 du/ds over the depths s in [0, S], refined
        # on the moment itself to 1e-15.
        spec = uniform_spec((6.0 + offset, 8.0 + offset),
                            (offset, 5.0 + offset), "I", 1.0)
        if assumption == "II":
            spec = mirror_transform(spec)
        sol = solved(spec, eps)
        o, anchor = spec.orientation, spec.anchor
        z, c = (o * (anchor - p) for p in sol.dual.zeros)
        span = (0.0, o * (anchor - sol.support_endpoint))

        done = inverted_pass(lambda s, l, g: (s - span[1]) ** 2 * g, (z, c), span,
                             1.0, eps, 1e-15)
        ref = sol.support_endpoint * sol.mass + 0.5 * o * np.cumsum(done[1], axis=1)[0, -1]
        assert abs(sol.expectation - ref) <= 1e-14 * abs(ref)
