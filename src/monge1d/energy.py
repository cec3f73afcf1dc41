"""Primal, dual and mixed energies of a solved pair, their gaps, probes.

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
the observed primal-dual gap measures nothing but quadrature and
root-solve error.  The mixed form's equality is pointwise: under the
locking identity (u_y^2 - a^2)/2 = eps ln lam its integrand is
eps lam - |y| u, the primal's, so at the solved pair the complementary
energy is the primal energy itself.  Of the report's two gaps only
primal - dual can vary; primal - mixed is 0.0 by construction.

Every integrand is written in (log_lambda, slope) variables: factors
like th^2/lam are evaluated as lam * slope^2 via the locking identity,
which survives scale factors that underflow near the stress zero, and
difference probes use expm1 so that O(t) perturbations are resolved
without cancellation.

`duality_gap` is the one energy reader, and it runs no quadrature: the
H-term and dual integrals are rows of the solve's last Newton pass
(`DensitySolution.energy_integrals`), and the moment term is the
solution's `expectation`, a row of the same pass.  The variational
probes perturb a solution along any object with vectorized `__call__`
and `slope` that vanishes at the support ends, such as
`SinePerturbation`; all their deltas are the rows of one pass in
l = ln lambda (`DualField.integrate`), cut at the l where the dual bump's
clip kinks, at one tolerance, `_PROBE_QUAD_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import DensitySolution
from .errors import InvalidPerturbation

_PROBE_QUAD_TOL = 1e-10


# -- perturbations ------------------------------------------------------------

@dataclass(frozen=True)
class SinePerturbation:
    """sin(k pi (y - lo)/width): vanishes at both ends, with an exact
    derivative; mass-neutral for even k."""

    support: tuple[float, float]
    k: int = 1

    def __call__(self, y):
        lo, hi = self.support
        s = math.pi * self.k / (hi - lo)
        out = np.sin(s * (np.asarray(y, dtype=float) - lo))
        return out if np.ndim(y) else float(out)

    def slope(self, y):
        lo, hi = self.support
        s = math.pi * self.k / (hi - lo)
        out = s * np.cos(s * (np.asarray(y, dtype=float) - lo))
        return out if np.ndim(y) else float(out)


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
    full_target_offset: float
    constraint_residuals: ConstraintResiduals


def duality_gap(solution: DensitySolution) -> EnergyReport:
    """All three energies at the solved critical pair, read off the solve's
    last Newton pass with no quadrature (`DensitySolution.energy_integrals`).

    The target sits on one side of the origin, so the moment of |y| in
    the primal energy is the expectation up to sign; the dual energy adds
    multiplier * 1, the unit mass the multiplier prices.  The mixed
    energy's integrand is the primal's at the locked pair (see the module
    docstring), so `xi_total` is the primal and `gap_primal_xi` reads 0.0:
    `gap_primal_dual` is the one gap that can vary, and it reads the
    quadrature and root-solve error.  The energies integrate over the
    support: the zero extension's flat contribution, eps e^{-a^2/(2 eps)}
    per unit length of target outside the support, is reported separately
    as `full_target_offset`.
    """
    eps, alpha = solution.epsilon, solution.spec.alpha
    h_term, dual_term = solution.energy_integrals
    primal = float(h_term - abs(solution.expectation))
    dual_val = float(dual_term + solution.dual.multiplier)
    tl, tr = solution.spec.target_interval
    lo, hi = solution.support
    offset = eps * math.exp(-alpha * alpha / (2.0 * eps)) * ((tr - tl) - (hi - lo))
    residuals = ConstraintResiduals(
        mass_error=abs(solution.mass - 1.0),
        slope_excess=max(0.0, solution.max_abs_slope - alpha),
        negativity=solution.clip_depth)
    return EnergyReport(
        primal=primal, dual=dual_val, xi_total=primal, gap_primal_dual=primal - dual_val,
        gap_primal_xi=0.0, full_target_offset=offset, constraint_residuals=residuals)


# -- variational probes -------------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    """First-difference probes around the critical pair.

    primal_deltas[i] is the primal energy change under the profile bump
    scaled by the probe's i-th t (convexity: expected >= 0 up to
    quadrature noise); dual_deltas[i] the dual energy change under the
    log-scale bump (concavity: expected <= 0).
    """

    primal_deltas: tuple[float, ...]
    dual_deltas: tuple[float, ...]

    @property
    def min_primal_delta(self) -> float:
        return min(self.primal_deltas)

    @property
    def max_dual_delta(self) -> float:
        return max(self.dual_deltas)


def second_variation_probe(solution: DensitySolution, perturbation, t_values, *,
                           dual_perturbation=None) -> ProbeReport:
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

    Every delta is a row of one pass over the field: the primal rows, in
    input order, then the dual rows, each refined to `_PROBE_QUAD_TOL`
    relative to its own total.  The perturbation, psi and the field are
    evaluated once per node for all of them.  A t of 0 gives rows that
    vanish identically: they read exactly 0.0 and never drive refinement.
    An empty or non-finite t raises ValueError.

    The pass is the field's row pass (`DualField.integrate`), not the
    solve's: the deltas deliver no density, so the pass runs in
    l = ln lambda, where depth, slope and Jacobian are closed forms and no
    node is inverted; the deltas therefore do not depend on the array
    inversion's collective stop.  Its first panels read the field alone,
    not the t values, and are graded toward the anchored edge, where the
    t > 0 primal rows peak, so the stacked rows and each row's own pass
    share panels.  The exponent of the primal rows is clipped at 700, and
    that clip's kinks are not cut: a row that reaches the clip is resolved
    only as far as its error estimate sees the kinks.

    Where t psi > 0 the dual clip kinks at l = 0 (|theta| = alpha) and at
    l = -t psi.  For a constant psi, the one `verify` probes with, these
    are fixed values of l, the levels the pass is cut at, so no round of
    it hunts one by bisection.  A psi that varies over the edges of the
    solve's last pass, mapped to y, gets no cut and leaves its kinks to
    refinement: the second kink then lies at no fixed l, and a cut next to
    a kink, not on it, can leave the kink in a panel whose two embedded
    rules err alike, which hides it from the error estimate.
    """
    lo, hi = solution.support
    for endpoint in (lo, hi):
        v = float(perturbation(endpoint))
        if abs(v) > 1e-12:
            raise InvalidPerturbation(
                f"perturbation is {v:.3e} at support endpoint {endpoint}")
    ts = tuple(float(t) for t in t_values)
    if not ts or not all(math.isfinite(t) for t in ts):
        raise ValueError(f"probe amplitudes must be one or more finite numbers, got {ts}")
    live = np.array(ts)[:, None]
    eps = solution.epsilon
    alpha = solution.spec.alpha
    a2 = alpha ** 2
    dual = solution.dual
    psi = dual_perturbation if dual_perturbation is not None else perturbation
    psi_bar = float(np.ravel(psi(np.array([0.5 * (lo + hi)])))[0])
    edges = solution.spec.anchor - solution.spec.orientation * solution.profile.edges
    constant = np.all(np.asarray(psi(edges), dtype=float) == psi_bar)
    up = live.ravel() * psi_bar
    up = up[(up > 0.0) & constant]
    levels = np.concatenate([[0.0], -up]) if up.size else ()

    def rows(y, l, g):
        """The primal difference integrands, in input order, then the
        dual ones."""
        bump = np.asarray(perturbation(y), dtype=float)
        step = live * np.asarray(perturbation.slope(y), dtype=float)
        lam = np.exp(l)
        # H(g + t dg) - H(g) = eps lam expm1(t dg (2 g + t dg)/(2 eps));
        # the exponent is clipped only to keep wild probes finite.  The
        # forcing is -theta_y.
        expo = np.minimum(step * (2.0 * g + step) / (2.0 * eps), 700.0)
        primal = eps * lam * np.expm1(expo) + live * (dual.theta_y(y) * bump)
        shift = np.minimum(live * np.asarray(psi(y), dtype=float),
                           np.maximum(-l, 0.0))
        grow = np.expm1(shift)
        # th^2/lam = lam (a2 + 2 eps l) via the locking identity, so
        # the ratio term under the shifted factor stays representable.
        ratio_diff = lam * (a2 + 2.0 * eps * l) * np.expm1(-shift)
        rest_diff = lam * ((a2 + 2.0 * eps * (l - 1.0)) * grow
                           + (grow + 1.0) * 2.0 * eps * shift)
        return np.concatenate([primal, -0.5 * (ratio_diff + rest_diff)])

    sums = dual.integrate(rows, _PROBE_QUAD_TOL, levels).tolist()
    return ProbeReport(primal_deltas=tuple(sums[:len(ts)]),
                       dual_deltas=tuple(sums[len(ts):]))

