"""Primal, dual, and mixed energy evaluation, gap verification, probes.

Three functionals share one critical point:

* primal:  integral of H(u_y) - |y| u,  H(g) = eps e^{(g^2 - a^2)/(2 eps)},
* dual:    -(1/2) integral of th^2/lam + a^2 lam + 2 eps lam (ln lam - 1)
           + mu * 1,
* mixed:   integral of (u_y^2 - a^2)/2 * lam - eps lam (ln lam - 1) - |y| u,

where a is the slope bound, lam the scale factor of the dual field, th
its stress and mu the multiplier of the unit-mass constraint (the stress
equation is th_y = -|y| - mu).  At a solved density the three agree
exactly (the Fenchel-Young inequality in the mixed form holds with
equality when the slope and scale factor are algebraically locked), so
the observed gaps measure nothing but quadrature and root-solve error.

Every integrand is written in (log_lambda, slope) variables: factors
like th^2/lam are evaluated as lam * slope^2 via the locking identity,
which survives scale factors that underflow near the stress zero, and
difference probes use expm1 so that O(t) perturbations are resolved
without cancellation.

Profile protocol: evaluators accept any object with a `support` tuple,
a slope bound (`alpha`, or `spec.alpha` on a DensitySolution), value
evaluation via `__call__(y)` and a `slope(y)` method (vectorized).
On a solution and its own field no quadrature runs: the H-term, dual and
mixed integrals are the solve's (`DualField.energy_integrals`), and the
moment term is its `expectation`.  They hold at the solve's epsilon only:
read at another, the field's own scale factor raises ValueError.  Other
pairings integrate on the field's depth panels (`DualField.integrate`),
or without a field by `numerics.integrate`.  The variational
probes perturb a solution along any object with vectorized `__call__`
and `slope` that vanishes at the support ends, such as
`SinePerturbation`; all their deltas are the rows of one pass, cut
where the dual bump's clip kinks, at the caller's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import DensitySolution, DualField
from .errors import DomainError, InvalidPerturbation
from .numerics import integrate

_DEFAULT_QUAD_TOL = 1e-10


# -- perturbations ------------------------------------------------------------

@dataclass(frozen=True)
class SinePerturbation:
    """amplitude * sin(k pi (y - lo)/width): vanishes at both ends, with
    an exact derivative; mass-neutral for even k."""

    support: tuple[float, float]
    k: int = 1
    amplitude: float = 1.0

    def __call__(self, y):
        lo, hi = self.support
        s = math.pi * self.k / (hi - lo)
        out = self.amplitude * np.sin(s * (np.asarray(y, dtype=float) - lo))
        return out if np.ndim(y) else float(out)

    def slope(self, y):
        lo, hi = self.support
        s = math.pi * self.k / (hi - lo)
        out = self.amplitude * s * np.cos(s * (np.asarray(y, dtype=float) - lo))
        return out if np.ndim(y) else float(out)


def _profile_alpha(profile) -> float:
    if hasattr(profile, "alpha"):
        return float(profile.alpha)
    return float(profile.spec.alpha)


# -- the three energies -------------------------------------------------------

def _own_epsilon(dual: DualField, epsilon):
    """The field's scale factor with another epsilon mixes two smoothings."""
    if epsilon != dual.epsilon:
        raise ValueError(f"the field's scale factor is solved at epsilon "
                         f"{dual.epsilon!r}, not at epsilon {epsilon!r}")


def _own_integrals(dual: DualField, epsilon):
    _own_epsilon(dual, epsilon)
    if dual.energy_integrals is None:
        raise ValueError("only a solve's own field carries energy integrals")
    return dual.energy_integrals


def primal_energy(profile, epsilon, domain_convention="support") -> float:
    """Smoothed transport energy of a profile.

    Under the "support" convention the integral runs over the profile's
    support; "full_target" adds the flat contribution of the zero
    extension, eps e^{-a^2/(2 eps)} per unit length, which needs a
    `target` or `spec.target_interval` on the profile.  On a solution
    epsilon must be the solution's (ValueError otherwise).
    """
    if domain_convention not in ("support", "full_target"):
        raise ValueError(f"unknown domain convention {domain_convention!r}")
    alpha = _profile_alpha(profile)
    lo, hi = profile.support
    solution = isinstance(profile, DensitySolution)
    if solution:
        # The target sits on one side of the origin, so the moment of |y|
        # is the expectation up to sign.
        h_term = _own_integrals(profile.dual, epsilon)[0]
        moment = abs(profile.expectation)
    else:
        def h_of_slope(y):
            g = np.asarray(profile.slope(y), dtype=float)
            expo = (g * g - alpha * alpha) / (2.0 * epsilon)
            return epsilon * np.exp(np.minimum(expo, 700.0))

        h_term = integrate(h_of_slope, lo, hi, tol=_DEFAULT_QUAD_TOL)
        moment = integrate(lambda y: np.abs(y) * np.asarray(profile(y), dtype=float),
                           lo, hi, tol=_DEFAULT_QUAD_TOL)
    out = h_term - moment
    if domain_convention == "full_target":
        target = profile.spec.target_interval if solution else profile.target
        rest = (target[1] - target[0]) - (hi - lo)
        out += epsilon * math.exp(-alpha * alpha / (2.0 * epsilon)) * rest
    return float(out)


def _override_at(log_lambda_override, y):
    """The override's log scale factors at y, inside the window (-inf, 0]."""
    lt = np.broadcast_to(np.asarray(log_lambda_override(y), dtype=float),
                         np.shape(y))
    if np.any(~np.isfinite(lt)):
        raise DomainError("scale-factor profile must be finite")
    if np.any(lt > 1e-12):
        raise DomainError(
            f"scale-factor profile exceeds 1: max log is {float(np.max(lt)):.3e}")
    return lt


def dual_energy(dual: DualField, epsilon, *, log_lambda_override=None) -> float:
    """Dual energy of the stress field, multiplier term included.

    The integral of -H*(theta) over the support plus multiplier * 1, the
    unit mass the multiplier prices.  With no override the field's own
    scale factor is used; the locking identity
    th^2/lam = lam g^2, g^2 = a^2 + 2 eps l, then collapses the integrand
    to -lam (g^2 - eps), which is exact and free of the 1/lam blow-up
    near the stress zero; the solve integrated it, at the field's epsilon
    only (ValueError otherwise).  An override must map y to a log scale
    factor in (-inf, 0] (the classical window; DomainError otherwise),
    integrated on the field's depth panels; the solved field itself runs
    on its own algebra, which can go above the window (see the solver's
    module docstring).
    """
    if log_lambda_override is None:
        return float(_own_integrals(dual, epsilon)[1] + dual.multiplier)
    a2 = dual.alpha * dual.alpha

    def integrand(y, l, g):
        th = np.asarray(dual.theta(y), dtype=float)
        lt = _override_at(log_lambda_override, y)
        # th^2/lam as a square, and exactly 0 where th is: a node can
        # round onto a stress zero, where 1/lam alone can overflow.
        inv_root = np.exp(-0.5 * np.where(th == 0.0, 0.0, lt))
        return -0.5 * (np.square(th * inv_root)
                       + np.exp(lt) * (a2 + 2.0 * epsilon * (lt - 1.0)))

    return float(dual.integrate(integrand, _DEFAULT_QUAD_TOL) + dual.multiplier)


def total_complementary(profile, dual: DualField | None, epsilon, *,
                        log_lambda_override=None) -> float:
    """Mixed energy pairing a profile with a scale-factor field.

    The scale factor comes from `log_lambda_override` when given, else
    from the dual field's own algebra (one of the two must be present).
    With a dual field the integral runs over the field's support on its
    depth panels (`DualField.integrate`); with an override alone, over
    the profile's support.  For a fixed profile this functional is
    maximized over admissible scale factors exactly when the
    Fenchel-Young inequality is tight, which is the locking identity;
    paired with its own field a solution gives the solve's mixed row,
    which `duality_gap` reports.  Without an override, epsilon must be the
    field's (ValueError otherwise).
    """
    if dual is None and log_lambda_override is None:
        raise ValueError("need a dual field or an explicit scale-factor profile")
    solution = isinstance(profile, DensitySolution)
    if log_lambda_override is None:
        _own_epsilon(dual, epsilon)
        if solution and dual == profile.dual:
            return float(_own_integrals(profile.dual, epsilon)[2]
                         - abs(profile.expectation))
    a2 = _profile_alpha(profile) ** 2

    def integrand(y, l=None, g=None):
        if log_lambda_override is not None:
            l = _override_at(log_lambda_override, y)
        g = np.asarray(profile.slope(y), dtype=float)
        out = np.exp(l) * (0.5 * (g * g - a2) - epsilon * (l - 1.0))
        if not solution:
            out = out - np.abs(y) * np.asarray(profile(y), dtype=float)
        return out

    out = (integrate(integrand, *profile.support, tol=_DEFAULT_QUAD_TOL)
           if dual is None else dual.integrate(integrand, _DEFAULT_QUAD_TOL))
    return float(out - abs(profile.expectation) if solution else out)


# -- reports ------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintResiduals:
    """How far an assembled solution sits from the hard constraints."""

    mass_error: float
    slope_excess: float
    negativity: float


@dataclass(frozen=True)
class EnergyReport:
    """The three energies of a solved problem and their pairwise gaps."""

    primal: float
    dual: float
    xi_total: float
    gap_primal_dual: float
    gap_primal_xi: float
    gap_xi_dual: float
    domain_convention: str
    full_target_offset: float
    constraint_residuals: ConstraintResiduals


def duality_gap(solution: DensitySolution) -> EnergyReport:
    """All three energies at the solved critical pair, read off the solve's
    last Newton pass with no quadrature (`DualField.energy_integrals`):
    `primal` and `dual` are the bits of `primal_energy` and `dual_energy`.

    Uses the "support" convention (the zero-extension contribution is
    reported separately as `full_target_offset`).
    """
    eps, alpha = solution.epsilon, solution.spec.alpha
    h_term, dual_term, xi_term = _own_integrals(solution.dual, eps)
    primal, xi = (float(t - abs(solution.expectation)) for t in (h_term, xi_term))
    dual_val = float(dual_term + solution.dual.multiplier)
    tl, tr = solution.spec.target_interval
    lo, hi = solution.support
    offset = eps * math.exp(-alpha * alpha / (2.0 * eps)) * ((tr - tl) - (hi - lo))
    residuals = ConstraintResiduals(
        mass_error=abs(solution.mass - 1.0),
        slope_excess=max(0.0, solution.max_abs_slope - alpha),
        negativity=solution.clip_depth)
    return EnergyReport(
        primal=primal, dual=dual_val, xi_total=xi, gap_primal_dual=primal - dual_val,
        gap_primal_xi=primal - xi, gap_xi_dual=xi - dual_val,
        domain_convention="support", full_target_offset=offset,
        constraint_residuals=residuals)


# -- variational probes -------------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    """First-difference probes around the critical pair.

    primal_deltas[i] is the primal energy change under the profile bump
    scaled by t_values[i] (convexity: expected >= 0 up to quadrature
    noise); dual_deltas[i] the dual energy change under the log-scale
    bump (concavity: expected <= 0).
    """

    t_values: tuple[float, ...]
    primal_deltas: tuple[float, ...]
    dual_deltas: tuple[float, ...]

    @property
    def min_primal_delta(self) -> float:
        return min(self.primal_deltas) if self.primal_deltas else 0.0

    @property
    def max_dual_delta(self) -> float:
        return max(self.dual_deltas) if self.dual_deltas else 0.0


def second_variation_probe(solution: DensitySolution, perturbation, t_values, *,
                           dual_perturbation=None,
                           quad_tol=_DEFAULT_QUAD_TOL) -> ProbeReport:
    """Probe the sign structure around the critical pair.

    The primal side compares the Lagrangian of (density + t *
    perturbation) against the density's, folded into one quadrature of
    the difference integrand (so t = 0 gives exactly zero).  The
    Lagrangian prices mass with the field's multiplier, so its forcing is
    |y| + mu = -theta_y: a perturbation that changes the mass then has no
    first variation either, and the delta is the second-order term.  The
    perturbation must vanish at the support endpoints to 1e-12
    (InvalidPerturbation otherwise).

    The dual side bumps the log scale factor by t * psi(y) with
    psi = dual_perturbation (default: the same perturbation), clipped so
    the factor never exceeds max(1, its critical value); additive moves
    in log form keep the factor positive automatically.

    Every delta is a row of one pass over the field: the primal rows for
    the nonzero t, in input order, then the dual rows, each refined to
    the tolerance relative to its own total.  The perturbation, psi and
    the field are evaluated once per node for all of them.  A t of 0
    costs no row and reads exactly 0.0; when every t is 0 no pass runs.
    A non-finite t raises ValueError.

    Where t psi > 0 the clip kinks at l = 0 (|theta| = alpha) and at
    l = -t psi (|theta| = e^{-t psi} sqrt(alpha^2 - 2 eps t psi), when
    t psi < alpha^2/(2 eps)).  The pass is cut at these stress levels,
    taken with psi's value at the support's midpoint, wherever psi has
    that value, which is where the cut sits on its kink: a constant psi
    is cut at every kink, so no round of the pass hunts one by bisection;
    a varying psi's kinks are left to refinement.
    """
    lo, hi = solution.support
    for endpoint in (lo, hi):
        v = float(perturbation(endpoint))
        if abs(v) > 1e-12:
            raise InvalidPerturbation(
                f"perturbation is {v:.3e} at support endpoint {endpoint}")
    ts = tuple(float(t) for t in t_values)
    if not all(math.isfinite(t) for t in ts):
        raise ValueError(f"probe amplitudes must be finite, got {ts}")
    live = np.array([[t] for t in ts if t != 0.0])
    if not live.size:
        return ProbeReport(t_values=ts, primal_deltas=(0.0,) * len(ts),
                           dual_deltas=(0.0,) * len(ts))
    eps = solution.epsilon
    alpha = solution.spec.alpha
    a2 = alpha ** 2
    dual = solution.dual
    psi = dual_perturbation if dual_perturbation is not None else perturbation
    psi_bar = float(np.ravel(psi(np.array([0.5 * (lo + hi)])))[0])
    up = live.ravel() * psi_bar
    up = up[up > 0.0]
    below = up[up < a2 / (2.0 * eps)]
    levels = np.concatenate([[alpha] if up.size else [],
                             np.exp(-below) * np.sqrt(a2 - 2.0 * eps * below)])

    def rows(y, l, g):
        """The primal difference integrands for the nonzero t, in input
        order, then the dual ones."""
        bump = np.asarray(perturbation(y), dtype=float)
        dg = np.asarray(perturbation.slope(y), dtype=float)
        forcing = -dual.theta_y(y)
        lam = np.exp(l)
        # H(g + t dg) - H(g) = eps lam expm1(t dg (2 g + t dg)/(2 eps));
        # the exponent is clipped only to keep wild probes finite.
        expo = np.minimum(live * dg * (2.0 * g + live * dg) / (2.0 * eps), 700.0)
        primal = eps * lam * np.expm1(expo) - live * forcing * bump
        shift = np.minimum(live * np.asarray(psi(y), dtype=float),
                           np.maximum(-l, 0.0))
        # th^2/lam = lam (a2 + 2 eps l) via the locking identity, so
        # the ratio term under the shifted factor stays representable.
        ratio_diff = lam * (a2 + 2.0 * eps * l) * np.expm1(-shift)
        rest_diff = lam * ((a2 + 2.0 * eps * (l - 1.0)) * np.expm1(shift)
                           + np.exp(shift) * 2.0 * eps * shift)
        return np.concatenate([primal, -0.5 * (ratio_diff + rest_diff)])

    sums = dual.integrate(rows, quad_tol, levels,
                          keep=lambda y: np.asarray(psi(y), dtype=float) == psi_bar)

    def deltas(side):
        """One delta per t, in input order: t = 0 reads exactly 0."""
        side = iter(side)
        return tuple(float(next(side)) if t != 0.0 else 0.0 for t in ts)

    return ProbeReport(t_values=ts, primal_deltas=deltas(sums[:live.size]),
                       dual_deltas=deltas(sums[live.size:]))


# -- expansion remainder ------------------------------------------------------

def taylor_remainder_check(alpha, epsilon, n_grid=2001) -> float:
    """Largest deviation of the squared stress from its cubic expansion.

    Scans a log-spaced scale-factor grid over the classical window and
    returns max |E(lam) - (a^2 - 2 eps) lam^2 - 2 eps lam^3|; the
    expansion claim is that this never exceeds eps.
    """
    a2 = alpha * alpha
    if not 0.0 < epsilon < 0.5 * a2:
        raise ValueError("need epsilon in (0, alpha^2/2) for a nondegenerate window")
    ls = np.linspace(-a2 / (2.0 * epsilon), 0.0, int(n_grid))
    lam2 = np.exp(2.0 * ls)
    exact = lam2 * (a2 + 2.0 * epsilon * ls)
    expansion = (a2 - 2.0 * epsilon) * lam2 + 2.0 * epsilon * np.exp(3.0 * ls)
    return float(np.max(np.abs(exact - expansion)))
