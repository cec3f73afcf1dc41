"""Self-checks of the benchmark: exact counts, tracing leaves results
unchanged, every traced layer is reached, and a checkout without the
package is refused.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.prepare_environment()

import tracer  # noqa: E402
import workloads  # noqa: E402
from monge1d import duality, problem  # noqa: E402

SEED = 7
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".evals", ".batches", ".points")


def _counts(stats):
    return {k: v for k, v in stats.items() if k.endswith(COUNT_SUFFIXES)}


# (alpha, eps) -> (total_mass calls, boundary_residual calls) per solve of
# the canonical spec: source [6, 8], target [0, 5], grid 2001.
CANONICAL_COUNTS = {
    (1.0, 1e-1): (13, 120), (1.0, 1e-2): (13, 119),
    (1.0, 1e-3): (13, 117), (1.0, 1e-4): (13, 115),
    (4.0, 1e-1): (15, 134), (4.0, 1e-2): (15, 133),
    (4.0, 1e-3): (15, 132), (4.0, 1e-4): (15, 123),
}


@pytest.mark.parametrize("alpha,eps", sorted(CANONICAL_COUNTS))
def test_root_solve_counts_on_canonical_points(alpha, eps):
    spec = problem.uniform_spec((6, 8), (0, 5), "I", alpha)
    t = tracer.Tracer()
    with t.installed():
        duality.assemble_density(spec, eps)
    counts = (t.stats["duality.total_mass.calls"],
              t.stats["duality.boundary_residual.calls"])
    assert counts == CANONICAL_COUNTS[(alpha, eps)]
    assert t.stats["duality.assemble_density.calls"] == 1


def test_counts_repeat_and_wrappers_are_removed():
    spec = problem.uniform_spec((6, 8), (0, 5), "I", 2.0)
    original = duality.integrate
    stats = []
    for _ in range(2):
        t = tracer.Tracer()
        with t.installed():
            duality.assemble_density(spec, 1e-2, 501)
        stats.append(_counts(t.stats))
    assert stats[0] == stats[1]
    assert stats[0]["numerics.integrate.batches"] > 0
    assert duality.integrate is original


@pytest.fixture(scope="module")
def cycles(tmp_path_factory):
    """Each workload's cycle run once untraced and once traced."""
    env = run.prepare_environment()
    out = {}
    for name in workloads.WORKLOADS:
        prepared = workloads.prepare(name, SEED, tmp_path_factory.mktemp(name), env)
        plain = [op() for op in prepared.traced_cycle]
        t = tracer.Tracer()
        with t.installed():
            traced = [op() for op in prepared.traced_cycle]
        out[name] = (plain, traced, dict(t.stats))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_its_checks(cycles, name):
    plain, traced, _ = cycles[name]
    assert [o.label for o in plain + traced if o.failed] == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_leaves_outputs_bitwise_identical(cycles, name):
    plain, traced, _ = cycles[name]
    assert [repr(o.outputs) for o in plain] == [repr(o.outputs) for o in traced]


def test_every_layer_metric_is_reached(cycles):
    seen = {}
    for _, _, stats in cycles.values():
        for key, value in stats.items():
            seen[key] = seen.get(key, 0) + value
    names = [m["name"] for m in BENCH["per_layer"] if m["name"] != "monge1d.import_s"]
    assert [n for n in names if not seen.get(n)] == []
    for layer in tracer.LAYERS:
        assert any(k.startswith(layer + ".") and k.endswith(".calls") and v
                   for k, v in seen.items()), layer


def test_per_layer_metrics_name_traced_functions():
    traced = set(tracer.traced_names())
    for m in BENCH["per_layer"]:
        if m["name"] != "monge1d.import_s":
            assert m["name"].rsplit(".", 1)[0] in traced, m["name"]


def test_verify_fails_exactly_the_recorded_checks(cycles):
    plain, traced, _ = cycles["cli_commands"]
    for outcome in (plain[-1], traced[-1]):
        found = {tuple(f) for f in outcome.diagnostics["verify_failures"]}
        assert found == workloads.EXPECTED_VERIFY_FAILURES


@pytest.mark.xfail(strict=True, reason="the map-cost quadrature ignores the "
                   "source density's kinks; see NOTES.md")
def test_map_cost_on_unequally_spaced_source():
    spec = problem.uniform_spec((6, 8), (0, 5), "I", 1.0)
    solution = duality.assemble_density(spec, 1e-3)
    source = problem.normalize_density(problem.SourceDensity(
        interval=(6.0, 8.0), kind="piecewise-linear",
        nodes=(6.0, 6.1475, 6.1877, 6.7828, 6.8475, 6.8571, 6.9523, 7.1414, 8.0),
        values=(1.26, 0.42, 1.88, 1.43, 1.68, 1.81, 1.25, 0.27, 1.48)))
    outcome = workloads.analysis_op(
        (solution, dataclasses.replace(spec, source_density=source)))
    assert outcome.failed == 0, outcome.label


def test_checkout_without_package_is_refused(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_work").exists()


def test_an_operation_that_raises_counts_as_one_failure():
    def broken():
        raise ArithmeticError("no root")
    outcome = workloads.attempt(broken)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert outcome.label == "ArithmeticError: no root"


def test_quantile_estimates():
    assert run._tail_percentile(30) == 100.0 * 20 / 30
    assert run._tail_percentile(20) == 50.0
    samples = list(range(1, 32))
    assert abs(run._quantile(samples, 0.5) - 16.0) < 1e-9
    assert 20.0 < run._quantile(samples, 0.7) < 23.0
