"""The three energies of a solved pair and the zero-gap identity.

For every solved problem the primal energy of the density and the dual
energy of the scale field agree to quadrature precision.  The total
complementary functional of the pair is the primal energy itself: under
the locking identity its integrand is the primal's, node for node, so
its gap to the primal reads 0.  Detuning the scale field away
from the solved one can only lower the dual energy, which is the
pointwise concavity that makes the dual value a certificate.
"""

import numpy as np

from monge1d.duality import assemble_density
from monge1d.energy import duality_gap
from monge1d.problem import uniform_spec

for alpha in (0.5, 1.0, 2.0):
    spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
    sol = assemble_density(spec, 0.01, 1001)
    report = duality_gap(sol)
    print(f"alpha = {alpha}")
    print(f"  primal        {report.primal:+.12f}")
    print(f"  dual          {report.dual:+.12f}")
    print(f"  complementary {report.xi_total:+.12f}")
    print(f"  gaps          {report.gap_primal_dual:+.2e} "
          f"{report.gap_primal_xi:+.2e}")
    print(f"  residuals     mass {report.constraint_residuals.mass_error:.2e}"
          f", slope excess {report.constraint_residuals.slope_excess:+.4f}")
print()

# steep-slope case: the solved scale factor stays below 1, so shifted
# fields remain inside the admissible window
spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 4.0)
sol = assemble_density(spec, 0.01, 1001)
critical = duality_gap(sol).dual
a2, eps = spec.alpha ** 2, sol.epsilon


def detuned(l, g, shift):
    """The dual integrand under the scale factor lam e^shift: by the
    locking identity th^2 = lam^2 g^2, so th^2/(lam e^shift) is
    lam g^2 e^-shift."""
    lam = np.exp(l)
    return -0.5 * lam * (g * g * np.exp(-shift)
                         + np.exp(shift) * (a2 + 2.0 * eps * (l + shift - 1.0)))


print("detuning the scale field at alpha = 4 (log shift applied everywhere):")
print(f"{'shift':>8} {'dual energy':>16} {'drop':>12}")
for shift in (-0.1, -0.03, -0.01, -0.003, 0.0):
    # one row pass over the support in l = ln lambda, the probes' pass
    # (`DensitySolution.integrate`), plus the multiplier that prices mass
    detuned_dual = float(sol.integrate(
        lambda y, l, g: detuned(l, g, shift)) + sol.dual.multiplier)
    print(f"{shift:>8} {detuned_dual:>16.10f} {detuned_dual - critical:>+12.2e}")
print()
print("the solved field maximizes the dual: every shifted field lands below")
