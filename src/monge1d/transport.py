"""Monotone transport maps from the solved densities.

Both monotone rearrangements of the source onto a solved density are
built as quantile couplings: the increasing map is Q^{-1}(F(x)) with F
the source cumulative and Q the target cumulative, the decreasing map
flips F to 1 - F.  With supports on opposite sides of the source the
transport cost |x - s(x)| is effectively linear, so every rearrangement
of the same pair of marginals has equal cost; the two variants exist
because the anchoring convention admits either, and nothing here ranks
them.

Maps evaluate lazily: each call composes the exact closed-form source
CDF (`SourceDensity.cdf`) with the cell-by-cell inverse of the target
cumulative's monotone cubic (`MonotoneProfile.invert_many`), which keeps
the pushforward residual at rounding level instead of map-interpolation
precision.  The target cumulative is the running sum of the assembly's
exact cell masses.  The cost is a quadrature of |x - s(x)| against the
source density, on panels graded toward both source ends, where the map
has square-root ends; with the source wholly on one side of the target
it must equal the source barycenter minus the target expectation, which
makes it a check on the whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import DensitySolution
from .numerics import MonotoneProfile, _graded_edges, integrate
from .problem import MongeProblemSpec

_COST_QUAD_TOL = 1e-10


def chebyshev_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev points on [lo, hi], endpoints included, ascending.

    Clusters quadratically near the ends, where the quantile maps have
    square-root behavior and uniform grids sample worst.
    """
    k = np.arange(n, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid - half * np.cos(np.pi * k / (n - 1))


def target_cdf(solution: DensitySolution) -> MonotoneProfile:
    """Cumulative mass of a solved density over its support, scaled to
    end exactly at 1 so quantile lookups cover the full unit interval.

    Node values are running sums of the solution's exact cell masses, so
    no interpolant of the density enters them (near the free endpoint u'
    carries a logarithmic term no interpolant follows).
    """
    cdf = np.concatenate([[0.0], np.cumsum(solution.cell_masses)])
    return MonotoneProfile(nodes=solution.support_nodes, values=cdf / cdf[-1])


@dataclass(frozen=True)
class QuantileMap:
    """x -> Q^{-1}(F(x)) (or Q^{-1}(1 - F(x)) for the decreasing variant),
    evaluated on demand."""

    source_density: object
    target_profile: MonotoneProfile
    decreasing: bool = False

    def __call__(self, x):
        v = np.asarray(self.source_density.cdf(x), dtype=float)
        if self.decreasing:
            v = 1.0 - v
        out = self.target_profile.invert_many(np.clip(v, 0.0, 1.0))
        return out if np.ndim(x) else float(out)


@dataclass(frozen=True)
class TransportMapSolution:
    """A monotone transport map with the target CDF it inverts and its
    evaluated cost."""

    variant: str
    map: QuantileMap
    target_cdf: MonotoneProfile
    cost: float


def build_map(spec: MongeProblemSpec, solution: DensitySolution,
              variant: str = "increasing") -> TransportMapSolution:
    """Construct one monotone rearrangement of the source onto a solved
    density.

    The increasing variant sends the source's left edge to the support's
    left edge; the decreasing variant reverses.  Both push the source
    forward onto the density (same marginals, same cost).
    """
    if variant not in ("increasing", "decreasing"):
        raise ValueError(f"unknown variant {variant!r}")
    q = target_cdf(solution)
    mapping = QuantileMap(source_density=spec.source_density,
                          target_profile=q,
                          decreasing=(variant == "decreasing"))
    cost = _evaluate_cost(mapping, spec, solution.crossing)
    return TransportMapSolution(variant=variant, map=mapping, target_cdf=q,
                                cost=cost)


def _evaluate_cost(mapping, spec: MongeProblemSpec, crossing: float) -> float:
    a, b = spec.source_interval
    density = spec.source_density

    def integrand(x):
        return np.abs(x - mapping(x)) * np.asarray(density(x), dtype=float)

    # The map's slope kinks wherever the source density does, and where
    # the map passes the crossing, the density's peak, whose slope turns
    # within a layer far thinner than any panel.  At both source ends the
    # map leaves the support's flat ends like a square root, so the panels
    # are graded toward them.
    q = float(mapping.target_profile(crossing))
    peak = density.quantile(1.0 - q if mapping.decreasing else q)
    edges = np.concatenate([density.nodes or (), [peak],
                            _graded_edges((a, b), (a, b))])
    return float(integrate(integrand, a, b, tol=_COST_QUAD_TOL, breakpoints=edges))


def pushforward_residual(map_solution: TransportMapSolution,
                         solution: DensitySolution,
                         spec: MongeProblemSpec,
                         n_probe: int = 1000) -> float:
    """Largest CDF-composition defect over a Chebyshev probe grid.

    For the increasing variant this is sup |Q(s(x)) - F(x)|, the
    integrated form of the pushforward equation u(s) s' = f+; the
    decreasing variant compares against 1 - F.
    """
    a, b = spec.source_interval
    xs = chebyshev_nodes(a, b, n_probe)
    f = spec.source_density.cdf(xs)
    if map_solution.variant == "decreasing":
        f = 1.0 - f
    q = map_solution.target_cdf(map_solution.map(xs))
    return float(np.max(np.abs(q - f)))
