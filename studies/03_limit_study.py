"""Epsilon ladder: the sharp-limit study as a convergence table.

Runs the full pipeline down a descending epsilon ladder, prints the
sweep table, and condenses it into the observed convergence order.  The
sup-distance to the limiting tent shrinks like epsilon itself (observed
order close to 1), the support endpoint and the expectation approach
their tent values monotonically, and the duality gap stays at solver
precision on every rung.  The study runs at alpha 1, where the tent's
width is z0 = 2.  The endpoint's shift per unit epsilon,
(p* - p_tent)/eps, tends to the closed form of its first-order term,
-orientation z0 (1 + ln 2)/2, printed next to it.  So does the
third-order remainder (p* - p_tent - eps p1 - eps^2 p2)/eps^3 to its
closed form p3: the endpoint is
p_tent - orientation z0 (eps v1 + eps^2 v2 + eps^3 v3) + O(eps^4), with
constants v_n in ln 2, pi^2 and zeta(3) (`duality._EXPANSION`, the
alpha = 1 series that the solve's start maps to every alpha).
"""

from monge1d.duality import _EXPANSION
from monge1d.problem import uniform_spec
from monge1d.sweep import convergence_report, epsilon_sweep, rows_to_csv

spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
ladder = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
rows = epsilon_sweep(spec, ladder)

z0 = spec.sharp_width
p_tent = spec.anchor - spec.orientation * z0
v1, v2, v3 = (v[0] for v in _EXPANSION)   # the z parts
first_order = -spec.orientation * z0 * v1
second_order = -spec.orientation * z0 * v2
third_order = -spec.orientation * z0 * v3

print(f"{'epsilon':>9} {'p*':>10} {'expectation':>12} {'gap':>10} "
      f"{'dist to tent':>13} {'(p*-p_tent)/eps':>16} {'closed form':>12} "
      f"{'3rd-order rem.':>15} {'closed form':>12}")
for row in rows:
    eps = row.epsilon
    shift = (row.support_endpoint - p_tent) / eps
    remainder = (shift - first_order - eps * second_order) / eps ** 2
    print(f"{eps:>9g} {row.support_endpoint:>10.5f} "
          f"{row.expectation:>12.7f} {row.gap:>10.1e} "
          f"{row.dist_tent:>13.6f} {shift:>16.6f} {first_order:>12.6f} "
          f"{remainder:>15.6f} {third_order:>12.6f}")

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
