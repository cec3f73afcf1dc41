"""Acceptance suite: one test per criterion, one verdict line each.

Each test prints a `criterion NN PASS/FAIL` line with the measured
quantity before asserting, so the verdict and the number survive
together in the output.  One criterion is expected to fail at the
canonical tent-case parameters and is left failing on purpose:

* criterion 02: the assembled density's slope exceeds alpha wherever
  the solved stress exceeds alpha in magnitude.  The smoothed penalty
  H(g) = eps e^{(g^2 - alpha^2)/(2 eps)} is finite beyond alpha, so its
  minimizer runs above the ceiling there; that happens next to the
  anchored edge, where the sharp-limit stress is 1/alpha.  The excess
  therefore follows alpha (sup|u_y|/alpha is 1.35 at alpha = 0.5,
  1 + O(eps) at alpha = 1, below 1 at alpha = 2), not the target's width
  or offset.  The solver reports the excess instead of clipping it.

The steep-slope companion checks at alpha=4 (where the stress stays
below alpha) show the same quantities passing.
"""

import itertools
import json

import numpy as np
import pytest

from conftest import off_support
from monge1d.cli import main
from monge1d.energy import SinePerturbation, duality_gap, second_variation_probe
from monge1d.oracles import discrete_expectation_optimizer, tent_limit_density
from monge1d.problem import uniform_spec
from monge1d.sweep import epsilon_sweep
from monge1d.transport import build_map, pushforward_residual
from reference_energies import taylor_remainder_check
from reference_solves import (boundary_residual, inverted_at, solve_constant, stress_at,
                              total_mass)

ALPHAS = (0.5, 1.0, 2.0)
EPSILONS = (0.1, 0.01, 0.001)


def spec_for(alpha, assumption):
    if assumption == "I":
        return uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
    return uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", alpha)


@pytest.fixture(scope="module")
def grid(solved):
    """The 18-run acceptance grid with energy reports."""
    out = {}
    for alpha, eps, side in itertools.product(ALPHAS, EPSILONS, ("I", "II")):
        spec = spec_for(alpha, side)
        solution = solved(spec, eps, 801)
        out[(alpha, eps, side)] = (spec, solution, duality_gap(solution))
    return out


def verdict(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_duality_identity(grid):
    # The primal-dual gap is the one gap that can vary: the complementary
    # energy equals the primal, so `gap_primal_xi` is 0.0 by construction.
    worst = 0.0
    for _, _, report in grid.values():
        worst = max(worst, abs(report.gap_primal_dual) / max(1.0, abs(report.primal)))
    ok = worst <= 1e-6
    assert verdict(1, ok, f"relative primal-dual gap over 18 runs: {worst:.3e} "
                          f"(bound 1e-6)")


def test_criterion_02_constraint_suite(grid):
    """Mass, sign, Dirichlet ends and the slope ceiling of the 18 runs.

    The slope ceiling fails at alpha = 0.5 and 1: the smoothed penalty
    does not enforce the hard bound, and the solved stress exceeds alpha
    next to the anchored edge (sharp-limit stress 1/alpha).
    """
    worst_mass = worst_neg = worst_edge = worst_ext = 0.0
    worst_slope_ratio = 0.0
    for (alpha, _, _), (_, sol, report) in grid.items():
        res = report.constraint_residuals
        worst_mass = max(worst_mass, res.mass_error)
        worst_neg = max(worst_neg, res.negativity)
        worst_edge = max(worst_edge, abs(float(sol.values[0])),
                         abs(float(sol.values[-1])))
        worst_ext = max(worst_ext,
                        float(np.max(np.abs(sol(off_support(sol))), initial=0.0)))
        worst_slope_ratio = max(worst_slope_ratio, sol.max_abs_slope / alpha)
    slope_ok = worst_slope_ratio <= 1.0 + 1e-10
    ok = (worst_mass <= 1e-8 and worst_neg <= 1e-12
          and worst_edge == 0.0 and worst_ext == 0.0 and slope_ok)
    verdict(2, ok, f"mass {worst_mass:.3e}, negativity {worst_neg:.3e}, "
                   f"endpoints {worst_edge:.1e}/{worst_ext:.1e}, "
                   f"sup|u_y|/alpha {worst_slope_ratio:.6f} "
                   f"(bound 1 + 1e-10)")
    assert worst_mass <= 1e-8
    assert worst_neg <= 1e-12
    assert worst_edge == 0.0 and worst_ext == 0.0
    assert slope_ok, (
        f"sup|u_y| exceeds alpha by factor {worst_slope_ratio:.6f}: the "
        f"smoothed penalty is finite beyond alpha, so wherever the solved "
        f"stress exceeds alpha (next to the anchored edge, where the "
        f"sharp-limit stress is 1/alpha) the recovered slope runs above "
        f"the ceiling; the excess follows alpha, not the target width")


def test_criterion_03_equilibrium(grid):
    worst = 0.0
    for _, sol, _ in grid.values():
        nodes = sol.nodes
        theta = stress_at(sol.dual, nodes)
        log_lam, slope = inverted_at(sol.dual, nodes, sol.spec.alpha, sol.epsilon)
        worst = max(worst, float(np.max(np.abs(np.exp(log_lam) * slope - theta))))
        # stress equation theta_y = -|y| - mu, with |y| = o*y exactly
        # everywhere on the support half-axis
        o = sol.spec.orientation
        assert np.all(-o * nodes + np.abs(nodes) == 0.0)
        h = 1e-6
        mid = nodes[nodes.size // 2]
        fd = (stress_at(sol.dual, mid + h) - stress_at(sol.dual, mid - h)) / (2 * h)
        assert fd == pytest.approx(-o * mid - sol.dual.multiplier, abs=1e-6)
    ok = worst <= 1e-8
    assert verdict(3, ok, f"sup|lambda u_y - theta| = {worst:.3e} "
                          f"(bound 1e-8)")


def test_criterion_04_taylor_remainder():
    worst = 0.0
    for alpha, eps in ((1.0, 0.1), (1.0, 0.01), (2.0, 0.1)):
        remainder = taylor_remainder_check(alpha, eps)
        worst = max(worst, remainder / eps)
        assert remainder <= eps
    assert verdict(4, worst <= 1.0,
                   f"worst remainder/epsilon = {worst:.4f} (bound 1)")


def test_criterion_05_monotonicity():
    slack = 1e-12
    eps = 1e-3
    spec_i = spec_for(1.0, "I")
    spec_ii = spec_for(1.0, "II")

    residual_i = [boundary_residual(r, (3.0, 5.0), spec_i, eps)
                  for r in np.linspace(4.51, 12.49, 50)]
    residual_ii = [boundary_residual(r, (-5.0, -3.0), spec_ii, eps)
                   for r in np.linspace(4.51, 12.49, 50)]
    assert np.all(np.diff(residual_i) > -slack)
    assert np.all(np.diff(residual_ii) < slack)

    constant_i = [solve_constant((s, 5.0), spec_i, eps)
                  for s in np.linspace(1.0, 4.8, 50)]
    constant_ii = [solve_constant((-5.0, t), spec_ii, eps)
                   for t in np.linspace(-4.8, -1.0, 50)]
    assert np.all(np.diff(constant_i) > -slack)
    assert np.all(np.diff(constant_ii) < slack)

    mass_i = [total_mass(s, spec_i, eps)
              for s in np.linspace(0.2, 4.5, 50)]
    mass_ii = [total_mass(t, spec_ii, eps)
               for t in np.linspace(-4.5, -0.2, 50)]
    assert np.all(np.diff(mass_i) < slack)
    assert np.all(np.diff(mass_ii) > -slack)

    assert verdict(5, True, "boundary residual, constant, and mass all "
                            "strictly monotone, both orientations, 50 "
                            "samples each (slack 1e-12)")


def test_criterion_06_tent_limit(solved):
    spec = spec_for(1.0, "I")
    rows = epsilon_sweep(spec, EPSILONS)
    sharp = rows[-1]
    dist = [r.dist_tent for r in rows]
    nonincreasing = all(b <= a + 1e-3 for a, b in zip(dist, dist[1:]))

    tent = tent_limit_density(spec)
    lp = discrete_expectation_optimizer(spec, 501)
    lp_gap = float(np.max(np.abs(lp.density.values
                                 - tent(lp.density.nodes))))

    ok = (abs(sharp.support_endpoint - 3.0) <= 0.05
          and sharp.dist_tent <= 0.05
          and abs(sharp.expectation - 4.0) <= 0.02
          and nonincreasing and lp_gap <= 0.02)
    assert verdict(
        6, ok,
        f"|p* - 3| = {abs(sharp.support_endpoint - 3.0):.4f}, tent "
        f"distance {sharp.dist_tent:.4f}, |expectation - 4| = "
        f"{abs(sharp.expectation - 4.0):.4f}, distances nonincreasing: "
        f"{nonincreasing}, tent-vs-optimizer {lp_gap:.4f}")


def test_criterion_07_global_minimality(solved, primal_oracle):
    eps = 0.01
    spec = spec_for(1.0, "I")
    sol = solved(spec, eps, 801)
    oracle = primal_oracle(spec, eps, 401)

    sup_dist = float(np.max(np.abs(oracle.density.values
                                   - sol(oracle.density.nodes))))
    assert sup_dist <= 0.05

    rng = np.random.default_rng(7)
    worst_drop = 0.0
    for _ in range(20):
        bump = SinePerturbation(sol.support, k=int(rng.integers(1, 5)))
        t = float(rng.uniform(0.005, 0.05)) * (1 if rng.random() < 0.5
                                               else -1)
        probe = second_variation_probe(sol, bump, (t,))
        worst_drop = min(worst_drop, probe.min_primal_delta)
    assert worst_drop >= -1e-10

    report = duality_gap(sol)
    objective_gap = abs(oracle.objective
                        - (report.primal + report.full_target_offset))
    ok = objective_gap <= 1e-2
    verdict(7, ok, f"oracle sup distance {sup_dist:.2e} (bound 0.05), "
                   f"worst probe drop {worst_drop:.2e} (bound -1e-10), "
                   f"objective gap {objective_gap:.2e} (bound 1e-2)")
    assert ok, (
        f"discrete minimum and solved energy differ by "
        f"{objective_gap:.2e}: the solved profile is not the minimizer "
        f"of the smoothed functional")


def test_criterion_08_maps(solved, reference_cost):
    spec = spec_for(1.0, "I")
    sol = solved(spec, 1e-3)
    increasing = build_map(spec, sol, "increasing")
    decreasing = build_map(spec, sol, "decreasing")

    res_inc = pushforward_residual(increasing, sol, spec)
    res_dec = pushforward_residual(decreasing, sol, spec)
    cost_gap = abs(increasing.cost - decreasing.cost)
    # The cost is the mean identity in closed form; the quadrature of
    # |x - s(x)| f(x) along each map checks it against the maps.
    identity_gap = max(abs(m.cost - reference_cost(m, spec))
                       for m in (increasing, decreasing))
    tent_gap = abs(increasing.cost - 3.0)

    ok = (res_inc <= 1e-6 and res_dec <= 1e-6 and cost_gap <= 1e-8
          and identity_gap <= 1e-8 and tent_gap <= 0.05)
    assert verdict(
        8, ok,
        f"residuals {res_inc:.2e}/{res_dec:.2e} (bound 1e-6), variant "
        f"cost gap {cost_gap:.2e} (bound 1e-8), mean identity gap "
        f"{identity_gap:.2e} (bound 1e-8), |cost - 3| = {tent_gap:.4f}")


def test_criterion_09_mirror(solved):
    eps = 1e-3
    straight = solved(spec_for(1.0, "I"), eps)
    mirrored = solved(spec_for(1.0, "II"), eps)
    rep_s = duality_gap(straight)
    rep_m = duality_gap(mirrored)

    density_gap = float(np.max(np.abs(mirrored.values[::-1]
                                      - straight.values)))
    node_gap = float(np.max(np.abs(mirrored.nodes[::-1] + straight.nodes)))
    energy_gap = max(abs(rep_s.primal - rep_m.primal),
                     abs(rep_s.dual - rep_m.dual),
                     abs(rep_s.xi_total - rep_m.xi_total))

    xs = np.linspace(6.0, 8.0, 501)
    map_s = build_map(spec_for(1.0, "I"), straight, "increasing")
    map_m = build_map(spec_for(1.0, "II"), mirrored, "increasing")
    map_gap = float(np.max(np.abs(map_m.map(-xs[::-1])
                                  + map_s.map(xs)[::-1])))
    cost_gap = abs(map_s.cost - map_m.cost)

    ok = max(density_gap, node_gap, energy_gap, map_gap, cost_gap) <= 1e-10
    assert verdict(
        9, ok,
        f"density {density_gap:.2e}, nodes {node_gap:.2e}, energies "
        f"{energy_gap:.2e}, map {map_gap:.2e}, cost {cost_gap:.2e} "
        f"(all bounded by 1e-10)")


def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "problem": {
            "assumption": "I",
            "source": {"interval": [6, 8], "density": {"kind": "uniform"}},
            "target": [0, 5],
            "alpha": 1.0,
        },
        "epsilons": [0.01, 0.001],
        "grid_n": 801,
    }))
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["solve", "--config", str(config), "--quiet",
                     "--out", str(out)]) == 0
        assert main(["sweep", "--config", str(config), "--quiet",
                     "--out", str(out)]) == 0
        outs.append(out)
    first, second = outs
    pairs = [("eps_0.01/density.csv",), ("eps_0.001/density.csv",),
             ("sweep.csv",)]
    identical = all((first / rel).read_bytes() == (second / rel).read_bytes()
                    for (rel,) in pairs)
    assert verdict(10, identical,
                   "solve and sweep CSV artifacts byte-identical across "
                   "repeated runs")
