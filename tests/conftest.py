"""Shared fixtures: a session-wide cache of assembled solutions, the
quadrature reference for a transport map's cost, and a count of
adaptive quadrature passes.

Assembling a density costs a noticeable fraction of a second, and many
test modules study the same handful of (spec, epsilon) pairs, so solves
are cached for the whole session keyed by the hashable spec.
"""

import numpy as np
import pytest

from monge1d import duality, numerics
from monge1d.duality import assemble_density
from monge1d.numerics import _graded_edges
from monge1d.oracles import discrete_primal_minimizer
from reference_quadrature import integrate


@pytest.fixture(scope="session")
def solved():
    cache = {}

    def get(spec, epsilon, grid_n=2001, **kwargs):
        key = (spec, float(epsilon), int(grid_n), tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = assemble_density(spec, epsilon, grid_n, **kwargs)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def primal_oracle():
    """Cached log-barrier Newton runs, a few hundredths of a second each at
    401 nodes once scipy is imported."""
    cache = {}

    def get(spec, epsilon, n):
        key = (spec, float(epsilon), int(n))
        if key not in cache:
            cache[key] = discrete_primal_minimizer(spec, epsilon, n)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def reference_cost():
    """The integral of |x - s(x)| f(x) over the source by adaptive
    quadrature, independent of the closed form `build_map` reports.

    The map's slope kinks wherever the source density does, so the
    source's nodes are breakpoints; at both source ends the map leaves
    the support's flat ends like a square root, so the panels are graded
    toward them.  Each node inverts the target CDF.
    """

    def cost(map_solution, spec, tol=1e-10):
        a, b = spec.source_interval
        density = spec.source_density
        xs, values = density._x, density._v

        def integrand(x):
            return np.abs(x - map_solution.map(x)) * np.interp(x, xs, values)

        edges = np.concatenate([density.nodes or (),
                                _graded_edges((a, b), (a, b))])
        return float(integrate(integrand, a, b, tol=tol, breakpoints=edges))

    return cost


@pytest.fixture
def adaptive_passes(monkeypatch):
    """A list that gains one entry per `_adaptive` pass for the rest of
    the test, whether the pass is a depth pass (`duality`) or a test
    quadrature's (`numerics`).  Clear it to count from a point on."""
    passes = []
    plain = numerics._adaptive

    def counted(*args, **kwargs):
        passes.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(numerics, "_adaptive", counted)
    monkeypatch.setattr(duality, "_adaptive", counted)
    return passes
