"""Plain-quadrature energies of any profile and log scale factor, for the
duality facts the solve's energies are held to.  The package reads a
solved pair's energies off its last Newton pass (`energy.duality_gap`);
these integrate them afresh.  A profile is given by its value and its
slope, vectorized functions of y, over its support; a log scale factor
is a function of y.  Also the closed-form remainder of the squared
stress's cubic expansion (`taylor_remainder_check`), which criterion 04
holds to epsilon."""

import numpy as np

from reference_quadrature import integrate
from reference_solves import stress_at

TOL = 1e-10


def primal(value, slope, support, alpha, eps):
    """Integral of H(u_y) - |y| u over the support."""
    def f(y):
        g = slope(y)
        return (eps * np.exp((g * g - alpha * alpha) / (2.0 * eps))
                - np.abs(y) * value(y))

    return integrate(f, *support, tol=TOL)


def mixed(value, slope, support, alpha, eps, log_lam):
    """Integral of lam ((u_y^2 - a^2)/2 - eps (ln lam - 1)) - |y| u over the
    support."""
    def f(y):
        g, l = slope(y), log_lam(y)
        return (np.exp(l) * (0.5 * (g * g - alpha * alpha) - eps * (l - 1.0))
                - np.abs(y) * value(y))

    return integrate(f, *support, tol=TOL)


def dual(sol, log_lam):
    """-(1/2) integral of th^2/lam + a^2 lam + 2 eps lam (ln lam - 1) over a
    solution's support, by its row pass, plus the multiplier."""
    field, a2, eps = sol.dual, sol.spec.alpha ** 2, sol.epsilon

    def f(y, l, g):
        th, lt = stress_at(field, y), log_lam(y)
        # th^2/lam as a square, and exactly 0 where th is: a node can round
        # onto a stress zero, where 1/lam alone can overflow.
        root = th * np.exp(-0.5 * np.where(th == 0.0, 0.0, lt))
        return -0.5 * (root * root + np.exp(lt) * (a2 + 2.0 * eps * (lt - 1.0)))

    return sol.integrate(f) + field.multiplier


def taylor_remainder_check(alpha, epsilon):
    """Largest deviation of the squared stress from its cubic expansion,
    max |E(lam) - (a^2 - 2 eps) lam^2 - 2 eps lam^3| over the classical
    window [e^{-a^2/(2 eps)}, 1]; the expansion claim is that this never
    exceeds eps.

    The deviation is 2 eps lam^2 (ln lam + 1 - lam).  Its magnitude peaks
    where 2 eps lam (2 ln lam + 3 - 3 lam) vanishes, at lam* =
    0.4171883561341886, which lies inside the window whenever eps < a^2/2
    (the lower end is then below e^{-1} < lam*): the maximum is
    2 lam*^2 |ln lam* + 1 - lam*| eps = 0.10143610792479067 eps.
    """
    if not 0.0 < epsilon < 0.5 * alpha * alpha:
        raise ValueError("need epsilon in (0, alpha^2/2) for a nondegenerate window")
    return 0.10143610792479067 * epsilon
