"""Epsilon ladder: the sharp-limit study as a convergence table.

Runs the full pipeline down a descending epsilon ladder, prints the
sweep table, and condenses it into the observed convergence order.  The
sup-distance to the limiting tent shrinks like epsilon itself (observed
order close to 1), the support endpoint and the expectation approach
their tent values monotonically, and the duality gap stays at solver
precision on every rung.  The endpoint's shift per unit epsilon,
(p* - p_tent)/eps, tends to the closed form of its first-order term,
-orientation z0 (1 + ln(2 alpha^2))/(2 alpha^2) with z0 = 2/sqrt(alpha)
the tent's width, printed next to it.  So does the third-order remainder
(p* - p_tent - eps p1 - eps^2 p2)/eps^3 to its closed form p3: with
k = eps/alpha^2 and l = ln alpha the endpoint is
p_tent - orientation z0 (k v1 + k^2 v2 + k^3 v3) + O(eps^4), where v_n is
a polynomial of degree n in l with constants in ln 2, pi^2 and zeta(3)
(the zeros' expansion that starts the solve).
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
l, ln2, pi2, zeta3 = math.log(alpha), math.log(2.0), math.pi ** 2, 1.2020569031595942
v2 = (-1.0 / 8.0 + 0.75 * ln2 + 9.0 / 8.0 * ln2 ** 2 - pi2 / 48.0
      + (0.5 + 2.5 * ln2) * l + 2.5 * l * l)
v3 = ((-18.0 + 162.0 * ln2 + 54.0 * ln2 ** 2 + 258.0 * ln2 ** 3 - 5.0 * pi2
       - 13.0 * pi2 * ln2 - 99.0 * zeta3) / 96.0
      + (-34.0 + 28.0 * ln2 + 162.0 * ln2 ** 2 - 3.0 * pi2) / 16.0 * l
      + (-11.0 + 45.0 * ln2) / 4.0 * l * l + 7.5 * l ** 3)
second_order = -spec.orientation * z0 * v2 / alpha ** 4
third_order = -spec.orientation * z0 * v3 / alpha ** 6

print(f"{'epsilon':>9} {'p*':>10} {'expectation':>12} {'gap':>10} "
      f"{'dist to tent':>13} {'(p*-p_tent)/eps':>16} {'closed form':>12} "
      f"{'3rd-order rem.':>15} {'closed form':>12} {'wall ms':>8}")
for row in rows:
    eps = row.epsilon
    shift = (row.support_endpoint - p_tent) / eps
    remainder = (shift - first_order - eps * second_order) / eps ** 2
    print(f"{eps:>9g} {row.support_endpoint:>10.5f} "
          f"{row.expectation:>12.7f} {row.gap:>10.1e} "
          f"{row.dist_tent:>13.6f} {shift:>16.6f} {first_order:>12.6f} "
          f"{remainder:>15.6f} {third_order:>12.6f} {row.wall_ms:>8.1f}")

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
