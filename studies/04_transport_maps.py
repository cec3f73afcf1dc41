"""Monotone transport maps out of the solved density.

Both maps come from composing the source CDF with the target quantile
function.  With disjoint ordered intervals x - s(x) has one sign, so
every map that pushes the source onto the density costs the gap between
the source and target means; `build_map` reports that closed form, and
the increasing and the decreasing rearrangement cost exactly the same.
What checks the maps is the pushforward residual.
"""

import numpy as np

from monge1d.duality import assemble_density
from monge1d.problem import uniform_spec
from monge1d.transport import build_map, pushforward_residual

spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
sol = assemble_density(spec, 1e-3, 1001)
increasing = build_map(spec, sol, "increasing")
decreasing = build_map(spec, sol, "decreasing")

print(f"support of the target density: [{sol.support[0]:.5f}, "
      f"{sol.support[1]:.5f}]")
print()
print(f"{'x':>6} {'s_inc(x)':>10} {'s_dec(x)':>10}")
for x in np.linspace(6.0, 8.0, 9):
    print(f"{x:>6.2f} {float(increasing.map(x)):>10.5f} "
          f"{float(decreasing.map(x)):>10.5f}")

print()
print(f"cost (increasing): {increasing.cost:.10f}")
print(f"cost (decreasing): {decreasing.cost:.10f}")
print(f"difference:        {increasing.cost - decreasing.cost:+.2e}")
print(f"source mean {spec.source_density.barycenter():.10f}, target mean "
      f"{sol.expectation / sol.mass:.10f}")

print()
print("pushforward residuals (how exactly the map carries the source "
      "density onto the solved one):")
print(f"  increasing: {pushforward_residual(increasing, sol, spec):.2e}")
print(f"  decreasing: {pushforward_residual(decreasing, sol, spec):.2e}")

# near the sharp limit the increasing map approaches the closed form
# obtained by matching CDFs against the exact tent
xs = np.linspace(6.0, 8.0, 401)
analytic = np.where(xs <= 7.0,
                    3.0 + np.sqrt(np.maximum(xs - 6.0, 0.0)),
                    5.0 - np.sqrt(np.maximum(8.0 - xs, 0.0)))
print()
print(f"sup distance to the sharp-limit closed form: "
      f"{np.max(np.abs(analytic - increasing.map(xs))):.2e} "
      f"(the smoothing distance, not solver error)")
