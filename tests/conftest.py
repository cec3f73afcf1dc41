"""Shared fixtures: a session-wide cache of assembled solutions, the
quadrature reference for a transport map's cost, and a count of
adaptive quadrature passes; the package's real traffic, run once; the
problem a given number of sharp widths wide, and the target's points
past a solution's support.

Assembling a density costs a noticeable fraction of a second, and many
test modules study the same handful of (spec, epsilon) pairs, so solves
are cached for the whole session keyed by the hashable spec.
"""

import contextlib
import importlib
import inspect
import io
import json
import math
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from monge1d import cli, duality, numerics
from monge1d.duality import assemble_density
from monge1d.numerics import _graded_edges
from monge1d.oracles import discrete_primal_minimizer, mirror_transform
from monge1d.problem import uniform_spec
from reference_quadrature import integrate

ROOT = Path(__file__).resolve().parents[1]
STUDIES = sorted((ROOT / "studies").glob("*.py"))


def regime_spec(alpha, factor, offset=0.0, assumption="I"):
    """Target [offset, offset + factor * 2/sqrt(alpha)], `factor` sharp
    widths, with the uniform source from 0.5 to 2.5 beyond it; mirrored
    through the origin under II."""
    w = factor * 2.0 / math.sqrt(alpha)
    spec = uniform_spec((offset + w + 0.5, offset + w + 2.5), (offset, offset + w),
                        "I", alpha)
    return mirror_transform(spec) if assumption == "II" else spec


def off_support(sol):
    """The target's points past the support's closing end, at the support
    grid's spacing, where the delivered density is zero; none when the
    support fills the target."""
    tl, tr = sol.spec.target_interval
    m, far = sol.support_endpoint, tl if sol.spec.orientation > 0 else tr
    lo, hi = sol.support
    n = math.ceil(abs(far - m) / ((hi - lo) / (sol.grid_n - 1)))
    return np.linspace(m, far, n + 1)[1:]


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


@contextlib.contextmanager
def counted_passes():
    """A list that gains one entry per `_adaptive` pass inside the block,
    whether the pass is a depth pass (`duality`) or a test quadrature's
    (`numerics`)."""
    passes = []
    plain = numerics._adaptive

    def counted(*args, **kwargs):
        passes.append(1)
        return plain(*args, **kwargs)

    with mock.patch.object(numerics, "_adaptive", counted), \
            mock.patch.object(duality, "_adaptive", counted):
        yield passes


@pytest.fixture
def adaptive_passes():
    """`counted_passes` for the rest of the test.  Clear it to count from
    a point on."""
    with counted_passes() as passes:
        yield passes


@pytest.fixture(scope="session")
def real_traffic(tmp_path_factory):
    """The package's real traffic, run once for the session: each script
    under `studies/`, perfbench's operations on seed 1 and a `validate`
    of a config whose target overlaps the source.  A profile hook records
    the code of every call while the traffic runs, and only then: `ran`
    holds each code object's (file, first line).  `outcomes` holds
    perfbench's outcomes and `code` the invalid `validate`'s exit code.
    `studies` maps each study's file name to what it printed, whether its
    namespace holds a name from the package, and what it raised, if
    anything; a study that raises leaves the rest of the traffic running."""
    tmp = tmp_path_factory.mktemp("traffic")
    ran, studies = set(), {}

    def record(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                for path in STUDIES:
                    names, error = {}, None
                    with contextlib.redirect_stdout(io.StringIO()) as printed:
                        try:
                            names = runpy.run_path(str(path), run_name="__main__")
                        except Exception as raised:
                            error = raised
                    studies[path.name] = SimpleNamespace(
                        printed=printed.getvalue(), error=error, imports_package=any(
                            getattr(inspect.getmodule(v), "__name__", "").startswith("monge1d")
                            for v in names.values()))
                outcomes = [workloads.solve_op(point)
                            for point in workloads.solve_grid_inputs(1)[:4]]
                outcomes += [workloads.analysis_op(pair) for pair in
                             workloads.analyze_setup(workloads.analyze_inputs(1))[:4]]
                paths = workloads.cli_setup(workloads.cli_inputs(1), tmp)
                outcomes += [workloads.cli_inprocess_op(command, paths)
                             for command in workloads.CLI_COMMANDS]
                overlap = {**workloads.CANONICAL_CONFIG, "out": str(tmp / "overlap")}
                overlap["problem"] = {**overlap["problem"], "target": [0, 7]}
                config = tmp / "overlap.json"
                config.write_text(json.dumps(overlap))
                code = cli.main(["validate", "--config", str(config)])
        finally:
            sys.setprofile(previous)
    return SimpleNamespace(ran=ran, outcomes=outcomes, code=code, studies=studies)
