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
Assembled DensitySolution objects also expose an exact first moment and
an exact per-node slope; the evaluators use those fast paths when
present.  The variational probes perturb a solution along any object
with vectorized `__call__` and `slope` that vanishes at the support
ends, such as `SinePerturbation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import DensitySolution, DualField
from .errors import DomainError, InvalidPerturbation, NotADensity
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


def _is_solution(profile) -> bool:
    return isinstance(profile, DensitySolution)


def _abs_moment(profile, quad_tol) -> float:
    """Integral of |y| u(y) over the support.

    For an assembled solution the stored expectation is exact (computed
    by the one-quadrature reduction) and the target sits on one side of
    the origin, so |y|-weighting is a sign flip at most.
    """
    if _is_solution(profile):
        return abs(profile.expectation)
    lo, hi = profile.support
    return integrate(lambda y: np.abs(y) * np.asarray(profile(y), dtype=float),
                     lo, hi, tol=quad_tol)


# -- the three energies -------------------------------------------------------

def primal_energy(profile, epsilon, domain_convention="support", *,
                  quad_tol=_DEFAULT_QUAD_TOL) -> float:
    """Smoothed transport energy of a profile.

    Under the "support" convention the integral runs over the profile's
    support; "full_target" adds the flat contribution of the zero
    extension, eps e^{-a^2/(2 eps)} per unit length, which needs a
    `target` or `spec.target_interval` on the profile.
    """
    if domain_convention not in ("support", "full_target"):
        raise ValueError(f"unknown domain convention {domain_convention!r}")
    alpha = _profile_alpha(profile)
    lo, hi = profile.support
    if _is_solution(profile):
        dual = profile.dual
        h_term = epsilon * integrate(
            lambda y: np.exp(dual.log_lambda(y)), lo, hi, tol=quad_tol,
            breakpoints=(profile.crossing,))
    else:
        def h_of_slope(y):
            g = np.asarray(profile.slope(y), dtype=float)
            expo = (g * g - alpha * alpha) / (2.0 * epsilon)
            return epsilon * np.exp(np.minimum(expo, 700.0))

        h_term = integrate(h_of_slope, lo, hi, tol=quad_tol)
    out = h_term - _abs_moment(profile, quad_tol)
    if domain_convention == "full_target":
        target = (profile.spec.target_interval if _is_solution(profile)
                  else profile.target)
        rest = (target[1] - target[0]) - (hi - lo)
        out += epsilon * math.exp(-alpha * alpha / (2.0 * epsilon)) * rest
    return float(out)


def _check_override_window(log_lam):
    if np.any(~np.isfinite(log_lam)):
        raise DomainError("scale-factor profile must be finite")
    if np.any(log_lam > 1e-12):
        raise DomainError(
            f"scale-factor profile exceeds 1: max log is "
            f"{float(np.max(log_lam)):.3e}")


def dual_energy(dual: DualField, epsilon, *, log_lambda_override=None,
                quad_tol=_DEFAULT_QUAD_TOL) -> float:
    """Dual energy of the stress field, multiplier term included.

    The integral of -H*(theta) over the support plus multiplier * 1, the
    unit mass the multiplier prices.  With no override the field's own
    scale factor is used; the locking identity
    th^2/lam = lam (a^2 + 2 eps l) then collapses the integrand to
    -lam (a^2 + 2 eps l - eps), which is exact and free of the 1/lam
    blow-up near the stress zero.  An override must map y to a
    log scale factor in (-inf, 0] (the classical window; DomainError
    otherwise); the solved field itself is evaluated on its own algebra,
    which can run above the window (see the solver's module docstring).
    """
    a2 = dual.alpha * dual.alpha
    lo, hi = dual.support
    if log_lambda_override is None:
        def integrand(y):
            _, l, _ = dual.fields_at(y)
            return -np.exp(l) * (a2 + 2.0 * epsilon * l - epsilon)
    else:
        def integrand(y):
            th = np.asarray(dual.theta(y), dtype=float)
            lt = np.asarray(log_lambda_override(y), dtype=float)
            lt = np.broadcast_to(lt, th.shape)
            _check_override_window(lt)
            return -0.5 * (th * th * np.exp(-lt)
                           + np.exp(lt) * (a2 + 2.0 * epsilon * (lt - 1.0)))

    return float(integrate(integrand, lo, hi, tol=quad_tol,
                           breakpoints=(dual.crossing,)) + dual.multiplier)


def total_complementary(profile, dual: DualField | None, epsilon, *,
                        log_lambda_override=None,
                        quad_tol=_DEFAULT_QUAD_TOL) -> float:
    """Mixed energy pairing a profile with a scale-factor field.

    The scale factor comes from `log_lambda_override` when given, else
    from the dual field's own algebra (one of the two must be present).
    Integration runs over the profile's support.  For a fixed profile
    this functional is maximized over admissible scale factors exactly
    when the Fenchel-Young inequality is tight, which is the locking
    identity; paired with the solved field it reproduces the primal
    energy up to rounding.
    """
    if dual is None and log_lambda_override is None:
        raise ValueError("need a dual field or an explicit scale-factor profile")
    alpha = _profile_alpha(profile)
    a2 = alpha * alpha
    lo, hi = profile.support
    if log_lambda_override is not None:
        def log_lam_at(y):
            lt = np.asarray(log_lambda_override(y), dtype=float)
            lt = np.broadcast_to(lt, np.shape(y))
            _check_override_window(lt)
            return lt
    else:
        def log_lam_at(y):
            return np.asarray(dual.log_lambda(y), dtype=float)

    exact_moment = _is_solution(profile)

    def integrand(y):
        l = log_lam_at(y)
        lam = np.exp(l)
        g = np.asarray(profile.slope(y), dtype=float)
        out = lam * (0.5 * (g * g - a2) - epsilon * (l - 1.0))
        if not exact_moment:
            out = out - np.abs(y) * np.asarray(profile(y), dtype=float)
        return out

    breakpoints = (dual.crossing,) if dual is not None else ()
    out = integrate(integrand, lo, hi, tol=quad_tol, breakpoints=breakpoints)
    if exact_moment:
        out -= abs(profile.expectation)
    return float(out)


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


def duality_gap(solution: DensitySolution, *,
                quad_tol=_DEFAULT_QUAD_TOL) -> EnergyReport:
    """Evaluate all three energies at the solved critical pair.

    Uses the "support" convention (the zero-extension contribution is
    reported separately as `full_target_offset`).
    """
    eps = solution.epsilon
    alpha = solution.spec.alpha
    primal = primal_energy(solution, eps, "support", quad_tol=quad_tol)
    dual_val = dual_energy(solution.dual, eps, quad_tol=quad_tol)
    xi = total_complementary(solution, solution.dual, eps, quad_tol=quad_tol)
    tl, tr = solution.spec.target_interval
    lo, hi = solution.support
    offset = eps * math.exp(-alpha * alpha / (2.0 * eps)) * ((tr - tl) - (hi - lo))
    residuals = ConstraintResiduals(
        mass_error=abs(solution.mass - 1.0),
        slope_excess=max(0.0, solution.max_abs_slope - alpha),
        negativity=solution.clip_depth,
    )
    return EnergyReport(
        primal=primal, dual=dual_val, xi_total=xi,
        gap_primal_dual=primal - dual_val,
        gap_primal_xi=primal - xi,
        gap_xi_dual=xi - dual_val,
        domain_convention="support",
        full_target_offset=offset,
        constraint_residuals=residuals,
    )


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
    """
    lo, hi = solution.support
    for endpoint in (lo, hi):
        v = float(perturbation(endpoint))
        if abs(v) > 1e-12:
            raise InvalidPerturbation(
                f"perturbation is {v:.3e} at support endpoint {endpoint}")
    eps = solution.epsilon
    alpha = solution.spec.alpha
    a2 = alpha * alpha
    dual = solution.dual
    psi = dual_perturbation if dual_perturbation is not None else perturbation
    crossing = solution.crossing

    def primal_delta(t):
        if t == 0.0:
            return 0.0

        def diff(y):
            th, l, g = dual.fields_at(y)
            dg = np.asarray(perturbation.slope(y), dtype=float)
            # H(g + t dg) - H(g) = eps lam expm1(t dg (2 g + t dg)/(2 eps));
            # the exponent is clipped only to keep wild probes finite.
            expo = np.minimum(t * dg * (2.0 * g + t * dg) / (2.0 * eps), 700.0)
            h_diff = eps * np.exp(l) * np.expm1(expo)
            forcing = -dual.theta_y(y)
            return h_diff - t * forcing * np.asarray(perturbation(y), dtype=float)

        return integrate(diff, lo, hi, tol=quad_tol, breakpoints=(crossing,))

    def dual_delta(t):
        if t == 0.0:
            return 0.0

        def diff(y):
            th, l, g = dual.fields_at(y)
            shift = np.minimum(t * np.asarray(psi(y), dtype=float),
                               np.maximum(-l, 0.0))
            lam = np.exp(l)
            # th^2/lam = lam (a2 + 2 eps l) via the locking identity, so
            # the ratio term under the shifted factor stays representable.
            ratio_diff = lam * (a2 + 2.0 * eps * l) * np.expm1(-shift)
            rest_diff = lam * ((a2 + 2.0 * eps * (l - 1.0)) * np.expm1(shift)
                               + np.exp(shift) * 2.0 * eps * shift)
            return -0.5 * (ratio_diff + rest_diff)

        return integrate(diff, lo, hi, tol=quad_tol, breakpoints=(crossing,))

    ts = tuple(float(t) for t in t_values)
    return ProbeReport(
        t_values=ts,
        primal_deltas=tuple(float(primal_delta(t)) for t in ts),
        dual_deltas=tuple(float(dual_delta(t)) for t in ts),
    )


# -- expansion remainder and expectation --------------------------------------

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


def expectation(profile, *, quad_tol=_DEFAULT_QUAD_TOL) -> float:
    """Mean position of a unit-mass profile: integral of y u(y).

    Raises NotADensity when the mass deviates from 1 by more than 1e-6.
    """
    if _is_solution(profile):
        mass = profile.mass
        if abs(mass - 1.0) > 1e-6:
            raise NotADensity(f"mass is {mass:.9g}, not 1")
        return float(profile.expectation)
    lo, hi = profile.support
    mass = integrate(lambda y: np.asarray(profile(y), dtype=float), lo, hi,
                     tol=quad_tol)
    if abs(mass - 1.0) > 1e-6:
        raise NotADensity(f"mass is {mass:.9g}, not 1")
    return float(integrate(lambda y: y * np.asarray(profile(y), dtype=float),
                           lo, hi, tol=quad_tol))
