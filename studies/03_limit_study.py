"""Epsilon ladder: the sharp-limit study as a convergence table.

Runs the full pipeline down a descending epsilon ladder, prints the
sweep table, and condenses it into the observed convergence order.  The
sup-distance to the limiting tent shrinks like epsilon itself (observed
order close to 1), the support endpoint and the expectation approach
their tent values monotonically, and the duality gap stays at solver
precision on every rung.  The endpoint's shift per unit epsilon,
(p* - p_tent)/eps, tends to the closed form of its first-order term,
-orientation z0 (1 + ln(2 alpha^2))/(2 alpha^2) with z0 = 2/sqrt(alpha)
the tent's width, printed next to it.
"""

import math

from monge1d.problem import uniform_spec
from monge1d.sweep import convergence_report, epsilon_sweep, rows_to_csv

spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
ladder = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
rows = epsilon_sweep(spec, ladder, grid_n=1501)

alpha, z0 = spec.alpha, spec.sharp_width
p_tent = spec.anchor - spec.orientation * z0
first_order = (-spec.orientation * z0 * (1.0 + math.log(2.0 * alpha * alpha))
               / (2.0 * alpha * alpha))

print(f"{'epsilon':>9} {'p*':>10} {'expectation':>12} {'gap':>10} "
      f"{'dist to tent':>13} {'(p*-p_tent)/eps':>16} {'closed form':>12} "
      f"{'wall ms':>8}")
for row in rows:
    shift = (row.support_endpoint - p_tent) / row.epsilon
    print(f"{row.epsilon:>9g} {row.support_endpoint:>10.5f} "
          f"{row.expectation:>12.7f} {row.gap:>10.1e} "
          f"{row.dist_tent:>13.6f} {shift:>16.6f} {first_order:>12.6f} "
          f"{row.wall_ms:>8.1f}")

report = convergence_report(rows)
print()
print(f"observed order of the tent distance: {report.distance_order:.3f}")
print(f"support endpoint trend: {report.endpoint_trend}")
print(f"expectation trend:      {report.expectation_trend}")
print(f"largest duality gap:    {report.largest_gap:.2e}")

print()
print("sweep.csv head (the ms column stays empty so reruns are "
      "byte-identical):")
for line in rows_to_csv(rows).splitlines()[:3]:
    print(" ", line)
