"""Independent oracles against the closed-form pipeline.

Three cross-checks that share no code path with the dual solver:

* a linear program maximizing the expectation over the discretized
  constraint set (the sharp-limit optimum, the tent's center);
* a log-barrier Newton iteration minimizing the discretized smoothed
  functional itself, over unit-mass profiles under the hard slope bound;
* the mirror transform, which must commute with the whole pipeline.

The barrier oracle checks global minimality: the solved density is the
minimizer of the smoothed functional over unit-mass profiles, so the
discrete minimum lands on its energy up to the oracle's grid at
alpha = 1 and 4; that grid error has no sign in general.  At alpha = 0.5
the solved slope runs a third above the bound (criterion 02), and the
gap is the bound's own price: it does not close as the grid refines.
"""

import numpy as np

from monge1d.duality import assemble_density
from monge1d.energy import duality_gap
from monge1d.oracles import (
    discrete_expectation_optimizer,
    discrete_primal_minimizer,
    mirror_transform,
    tent_limit_density,
)
from monge1d.problem import uniform_spec

spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)

print("LP expectation optimizer vs the tent (n = 501):")
tent = tent_limit_density(spec)
lp = discrete_expectation_optimizer(spec, 501)
print(f"  optimal expectation {lp.objective:.6f} (tent center "
      f"{tent.center:.6f})")
print(f"  sup distance to the tent: "
      f"{np.max(np.abs(lp.density.values - tent(lp.density.nodes))):.4f}")

print()
print("log-barrier Newton on the smoothed functional (epsilon = 0.01, "
      "n = 401):")
for alpha in (0.5, 1.0, 4.0):
    case = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
    sol = assemble_density(case, 0.01, 801)
    run = discrete_primal_minimizer(case, 0.01, 401)
    report = duality_gap(sol)
    primal = report.primal + report.full_target_offset
    dist = np.max(np.abs(run.density.values - sol(run.density.nodes)))
    print(f"  alpha = {alpha}: barrier {run.objective:.8f} vs solved "
          f"{primal:.8f} (gap {run.objective - primal:+.2e}), sup "
          f"distance {dist:.1e}, {run.iterations} Newton steps")

print()
print("mirror transform commutes with the solve:")
mirrored = mirror_transform(spec)
a = assemble_density(spec, 1e-3, 801)
b = assemble_density(mirrored, 1e-3, 801)
print(f"  mirrored spec: source {mirrored.source_interval}, target "
      f"{mirrored.target_interval}, assumption {mirrored.assumption}")
print(f"  density mismatch after mirroring back: "
      f"{np.max(np.abs(b.values[::-1] - a.values)):.2e}")
print(f"  involution returns the original spec: "
      f"{mirror_transform(mirrored) == spec}")
