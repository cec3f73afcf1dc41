"""Monotone transport maps from the solved densities.

Both monotone rearrangements of the source onto a solved density are
built as quantile couplings: the increasing map is Q^{-1}(F(x)) with F
the source cumulative and Q the target cumulative, the decreasing map
flips F to 1 - F.  The two variants exist because the anchoring
convention admits either, and nothing here ranks them.

Maps evaluate lazily: each call of `TransportMap.map` composes the exact
closed-form source CDF (`SourceDensity.cdf`) with the solution's
quantile (`DensitySolution.quantile`), the panel-by-panel inverse of its
CDF, which keeps the pushforward residual at rounding level instead of
map-interpolation precision.  That CDF is the solve's last pass read in
closed form, the same reading that gives the delivered density, so no
interpolant enters the maps.

The source and the target lie on disjoint intervals, so x - s(x) has
one sign for every map s that pushes the source density f onto the
normalized target density u/M, and its cost, the integral of
|x - s(x)| f(x), is |integral of x f - integral of y u / M|: the gap
between the source barycenter and the target mean.  `build_map` reads
the cost off that identity, so both variants carry the same cost, bit
for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .duality import DensitySolution
from .problem import MongeProblemSpec

# Chebyshev points `pushforward_residual` probes the source with.
_PUSHFORWARD_PROBE_N = 1000


def chebyshev_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev points on [lo, hi], endpoints included, ascending.

    Clusters quadratically near the ends, where the quantile maps have
    square-root behavior and uniform grids sample worst.  Raises
    ValueError for n < 2, which leaves no room for both endpoints.
    """
    if n < 2:
        raise ValueError("chebyshev_nodes needs n >= 2 to hold both "
                         f"endpoints, got {n!r}")
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid - half * np.cos(np.pi * np.arange(n, dtype=float) / (n - 1))


@functools.lru_cache(maxsize=32)
def _probe_fractions(source, interval) -> np.ndarray:
    """The source CDF at `pushforward_residual`'s Chebyshev probes on
    `interval`, read-only.  A frozen `SourceDensity` and an interval key it
    by value, so equal densities share it; 32 are kept, 8 kB each."""
    fractions = source.cdf(chebyshev_nodes(*interval, _PUSHFORWARD_PROBE_N))
    fractions.flags.writeable = False
    return fractions


@dataclass(frozen=True)
class TransportMap:
    """A monotone transport map x -> Q^{-1}(F(x)) (Q^{-1}(1 - F(x)) for the
    decreasing variant), evaluated on demand by `map`, with the solved
    density `target` whose quantile Q^{-1} it reads and its cost, the gap
    between the source barycenter and the target mean."""

    variant: str
    source_density: object
    target: DensitySolution
    cost: float

    def map(self, x):
        v = np.asarray(self.source_density.cdf(x), dtype=float)
        return self.target.quantile(1.0 - v if self.variant == "decreasing" else v)


def build_map(spec: MongeProblemSpec, solution: DensitySolution,
              variant: str = "increasing") -> TransportMap:
    """Construct one monotone rearrangement of the source onto a solved
    density.

    The increasing variant sends the source's left edge to the support's
    left edge; the decreasing variant reverses.  Both push the source
    forward onto the normalized density, so both cost
    |source barycenter - expectation / mass| (see the module docstring).
    """
    if variant not in ("increasing", "decreasing"):
        raise ValueError(f"unknown variant {variant!r}")
    cost = abs(spec.source_density.barycenter()
               - solution.expectation / solution.mass)
    return TransportMap(variant=variant, source_density=spec.source_density,
                        target=solution, cost=cost)


def pushforward_residual(map_solution: TransportMap,
                         solution: DensitySolution,
                         spec: MongeProblemSpec) -> float:
    """Largest CDF-composition defect over a Chebyshev probe grid.

    For the increasing variant this is sup |Q(s(x)) - F(x)|, with Q the
    CDF of `solution`, the integrated form of the pushforward equation
    u(s) s' = f+; the decreasing variant compares against 1 - F.  The
    source CDF is read once per source and probed interval, across calls
    (`_probe_fractions`): its fractions, flipped for the decreasing
    variant, go to the quantile of the map's own target, which is how
    `TransportMap.map` composes them, so s(x) is the map's value bit for
    bit and the residual checks the map's target against `solution`.
    """
    f = _probe_fractions(spec.source_density, spec.source_interval)
    if map_solution.variant == "decreasing":
        f = 1.0 - f
    q = solution.cdf(map_solution.target.quantile(f))
    return float(np.max(np.abs(q - f)))
