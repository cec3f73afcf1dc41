"""Plain-quadrature energies of any profile and log scale factor, for the
duality facts the solve's energies are held to.  The package reads a
solved pair's energies off its last Newton pass (`energy.duality_gap`);
these integrate them afresh.  A profile has a `support` and vectorized
`__call__(y)` and `slope(y)`; a log scale factor is a function of y."""

import numpy as np

from reference_quadrature import integrate

TOL = 1e-10


def primal(profile, alpha, eps):
    """Integral of H(u_y) - |y| u over the profile's support."""
    def f(y):
        g = profile.slope(y)
        return (eps * np.exp((g * g - alpha * alpha) / (2.0 * eps))
                - np.abs(y) * profile(y))

    return integrate(f, *profile.support, tol=TOL)


def mixed(profile, alpha, eps, log_lam):
    """Integral of lam ((u_y^2 - a^2)/2 - eps (ln lam - 1)) - |y| u over the
    profile's support."""
    def f(y):
        g, l = profile.slope(y), log_lam(y)
        return (np.exp(l) * (0.5 * (g * g - alpha * alpha) - eps * (l - 1.0))
                - np.abs(y) * profile(y))

    return integrate(f, *profile.support, tol=TOL)


def dual(field, log_lam):
    """-(1/2) integral of th^2/lam + a^2 lam + 2 eps lam (ln lam - 1) on the
    field's depth panels, plus the multiplier."""
    a2, eps = field.alpha ** 2, field.epsilon

    def f(y, l, g):
        th, lt = field.theta(y), log_lam(y)
        # th^2/lam as a square, and exactly 0 where th is: a node can round
        # onto a stress zero, where 1/lam alone can overflow.
        root = th * np.exp(-0.5 * np.where(th == 0.0, 0.0, lt))
        return -0.5 * (root * root + np.exp(lt) * (a2 + 2.0 * eps * (lt - 1.0)))

    return field.integrate(f, TOL) + field.multiplier
