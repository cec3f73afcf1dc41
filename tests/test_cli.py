"""CLI driver: config parsing, artifact files, exit codes, determinism."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monge1d
from conftest import off_support
from monge1d import cli, duality
from monge1d.cli import load_run_config, main, parse_run_config
from monge1d.duality import assemble_density
from monge1d.errors import CapacityError, ConfigError, MaxIterations
from monge1d.oracles import (GridDensity, OracleRun, load_fixture, save_fixture,
                             tent_limit_density)
from monge1d.problem import spec_from_document

TENT_DOC = {
    "problem": {
        "assumption": "I",
        "source": {"interval": [6, 8], "density": {"kind": "uniform"}},
        "target": [0, 5],
        "alpha": 1.0,
    },
    "epsilons": [0.01],
}

MIRROR_DOC = {
    "problem": {
        "assumption": "II",
        "source": {"interval": [-8, -6], "density": {"kind": "uniform"}},
        "target": [-5, 0],
        "alpha": 1.0,
    },
    "epsilons": [0.01],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tent_config(tmp_path, **extra):
    doc = json.loads(json.dumps(TENT_DOC))
    doc.update(extra)
    return write_config(tmp_path, doc)


def read_csv(path):
    lines = path.read_text().splitlines()
    data = np.array([[float(c) if c else np.nan for c in line.split(",")[:10]]
                     for line in lines[1:]])
    return lines[0].split(","), data


class TestConfigParsing:
    def test_defaults(self, tmp_path):
        config = load_run_config(tent_config(tmp_path))
        assert config.grid_n == 2001
        assert str(config.out_dir) == "out"
        assert config.epsilons == (0.01,)

    def test_explicit_fields(self, tmp_path):
        path = tent_config(tmp_path, grid_n=501,
                           tolerances={"root": 1e-10, "quad": 1e-8},
                           out="elsewhere")
        config = load_run_config(path)
        assert config.grid_n == 501
        assert str(config.out_dir) == "elsewhere"

    def test_flags_beat_file(self, tmp_path):
        path = tent_config(tmp_path, grid_n=501, out="from_file")
        config = load_run_config(path, overrides={
            "epsilons": (0.1,), "grid_n": 701, "out": "from_flag"})
        assert config.epsilons == (0.1,)
        assert config.grid_n == 701
        assert str(config.out_dir) == "from_flag"

    def test_unknown_key_rejected(self):
        doc = json.loads(json.dumps(TENT_DOC))
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*extra"):
            parse_run_config(doc)

    def test_unknown_tolerance_rejected(self):
        doc = json.loads(json.dumps(TENT_DOC))
        doc["tolerances"] = {"root": 1e-12, "newton": 1e-3}
        with pytest.raises(ConfigError, match="newton"):
            parse_run_config(doc)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match=r"missing keys \['epsilons'\]"):
            parse_run_config({"problem": TENT_DOC["problem"]})
        with pytest.raises(ConfigError, match=r"missing keys \['problem'\]"):
            parse_run_config({"epsilons": [0.01]})

    def test_empty_epsilons(self):
        doc = json.loads(json.dumps(TENT_DOC))
        doc["epsilons"] = []
        with pytest.raises(ConfigError, match="nonempty"):
            parse_run_config(doc)

    def test_bad_grid(self):
        doc = json.loads(json.dumps(TENT_DOC))
        doc["grid_n"] = 8
        with pytest.raises(ConfigError, match="at least 33"):
            parse_run_config(doc)
        doc["grid_n"] = True
        with pytest.raises(ConfigError, match="integer"):
            parse_run_config(doc)

    def test_malformed_json_names_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"problem": {\n  ???')
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config:2:" in err

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_missing_alpha(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TENT_DOC))
        del doc["problem"]["alpha"]
        assert main(["validate", "--config",
                     write_config(tmp_path, doc)]) == 2
        assert "alpha" in capsys.readouterr().err


class TestValidate:
    def test_tent_ok(self, tmp_path, capsys):
        assert main(["validate", "--config", tent_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "spec: ok" in out and "capacity: ok" in out

    def test_quiet_silences_success(self, tmp_path, capsys):
        code = main(["validate", "--config", tent_config(tmp_path),
                     "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_capacity_failure_names_width(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TENT_DOC))
        doc["problem"]["target"] = [0, 1]
        assert main(["validate", "--config",
                     write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert "2/sqrt(alpha) = 2.0" in err

    def test_semantic_failure(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TENT_DOC))
        doc["problem"]["target"] = [0, 7]  # overlaps the source
        assert main(["validate", "--config",
                     write_config(tmp_path, doc)]) == 2
        assert "target_right < source_left" in capsys.readouterr().err

    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_non_finite_level_is_a_config_error(self, tmp_path, capsys, level):
        # Python's JSON reader accepts NaN and Infinity; a uniform level
        # of either must stop every command before any solve.
        doc = json.loads(json.dumps(TENT_DOC))
        doc["problem"]["source"]["density"]["level"] = level
        config = write_config(tmp_path, doc)
        for command in ("validate", "map"):
            assert main([command, "--config", config, "--quiet",
                         "--out", str(tmp_path / "art")]) == 2
            err = capsys.readouterr().err
            assert "problem.source.density" in err and "not finite" in err
        assert not (tmp_path / "art").exists()


@pytest.fixture(scope="module")
def solve_artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    out = tmp / "art"
    code = main(["solve", "--config", tent_config(tmp), "--quiet",
                 "--out", str(out), "--grid", "801"])
    return code, out / "eps_0.01"


class TestSolve:
    def test_newton_failure_names_its_stage(self, tmp_path, monkeypatch,
                                            capsys):
        # The solve's own raise is held in `TestCoupledSolve`; here only the
        # stage the CLI names for it.
        def fail(*args):
            raise MaxIterations("coupled zero solve did not meet its contracts")

        monkeypatch.setattr(cli, "assemble_density", fail)
        code = main(["solve", "--config", tent_config(tmp_path), "--quiet",
                     "--out", str(tmp_path / "art"), "--grid", "101"])
        assert code == 4
        err = capsys.readouterr().err
        assert ("solve failed at epsilon=0.01 in Newton iteration: coupled "
                "zero solve did not meet its contracts") in err

    def test_large_epsilon_solves(self, tmp_path):
        # alpha 2, eps 10 on five sharp widths: eps-hat lies above the
        # table's top, and the solve starts at the zeros read at the top.
        # From the sharp-limit tent it exited 4 after 40 Newton steps.
        doc = _capacity_doc(2.0, 5.0, 0.0, "I", 10.0)
        out = tmp_path / "art"
        assert main(["solve", "--config", write_config(tmp_path, doc), "--quiet",
                     "--out", str(out), "--grid", "101"]) == 0
        assert (out / "eps_10.0" / "density.csv").exists()

    def test_exit_and_files(self, solve_artifacts):
        code, target = solve_artifacts
        assert code == 0
        assert (target / "density.csv").exists()
        assert (target / "energy.json").exists()
        assert not list(target.glob("*.tmp"))

    def test_density_boundary_rows(self, solve_artifacts):
        # The rows run over the support alone, from the closing end to the
        # anchor, both zero; the density the solve delivers is zero past
        # the closing end.
        _, target = solve_artifacts
        header, data = read_csv(target / "density.csv")
        assert header == ["y", "u"]
        doc = json.loads((target / "energy.json").read_text())
        y, u = data[:, 0], data[:, 1]
        assert [y[0], y[-1]] == doc["support"] == [doc["support_endpoint"], 5.0]
        assert u[0] == u[-1] == 0.0
        sol = assemble_density(spec_from_document(TENT_DOC["problem"]), 0.01, 801)
        assert np.array_equal(y, sol.nodes) and np.array_equal(u, sol.values)
        outside = off_support(sol)
        assert outside.size > 0 and np.all(sol(outside) == 0.0)

    def test_energy_gap_field(self, solve_artifacts):
        _, target = solve_artifacts
        doc = json.loads((target / "energy.json").read_text())
        assert abs(doc["gap_primal_dual"]) <= 1e-6
        assert doc["epsilon"] == 0.01
        assert doc["constraint_residuals"]["mass_error"] <= 1e-8

    def test_deterministic_bytes(self, solve_artifacts, tmp_path):
        _, target = solve_artifacts
        out2 = tmp_path / "again"
        assert main(["solve", "--config", tent_config(tmp_path), "--quiet",
                     "--out", str(out2), "--grid", "801"]) == 0
        first = (target / "density.csv").read_bytes()
        second = (out2 / "eps_0.01" / "density.csv").read_bytes()
        assert first == second

    def test_mirror_equal(self, solve_artifacts, tmp_path):
        _, target = solve_artifacts
        out2 = tmp_path / "mirror"
        assert main(["solve", "--config",
                     write_config(tmp_path, MIRROR_DOC), "--quiet",
                     "--out", str(out2), "--grid", "801"]) == 0
        _, straight = read_csv(target / "density.csv")
        _, mirrored = read_csv(out2 / "eps_0.01" / "density.csv")
        assert np.max(np.abs(mirrored[::-1, 0] + straight[:, 0])) <= 1e-10
        assert np.max(np.abs(mirrored[::-1, 1] - straight[:, 1])) <= 1e-10

    def test_subfloor_epsilon_is_config_error(self, tmp_path, capsys):
        assert main(["solve", "--config", tent_config(tmp_path),
                     "--epsilon", "1e-8"]) == 2
        assert "floor" in capsys.readouterr().err


@pytest.fixture(scope="module")
def map_artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("map")
    out = tmp / "art"
    code = main(["map", "--config", tent_config(tmp), "--quiet",
                 "--out", str(out), "--epsilon", "0.001",
                 "--grid", "801"])
    return code, out / "eps_0.001"


class TestMap:
    def test_exit_and_files(self, map_artifacts):
        code, target = map_artifacts
        assert code == 0
        assert (target / "map.csv").exists()
        assert (target / "cost.json").exists()

    def test_endpoint_rows(self, map_artifacts):
        _, target = map_artifacts
        header, data = read_csv(target / "map.csv")
        assert header == ["x", "s_increasing", "s_decreasing"]
        first, last = data[0], data[-1]
        endpoint = first[1]
        assert first[0] == 6.0 and last[0] == 8.0
        assert endpoint == pytest.approx(3.0, abs=0.05)
        assert first[2] == 5.0
        assert last[1] == 5.0
        assert last[2] == endpoint

    def test_cost_document(self, map_artifacts):
        _, target = map_artifacts
        doc = json.loads((target / "cost.json").read_text())
        assert doc["cost_increasing"] == doc["cost_decreasing"]
        assert doc["cost_increasing"] == pytest.approx(3.0, abs=0.05)
        assert doc["residual_increasing"] <= 1e-6
        assert doc["residual_decreasing"] <= 1e-6


@pytest.fixture(scope="module")
def sweep_artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    out = tmp / "art"
    code = main(["sweep", "--config", tent_config(tmp), "--quiet",
                 "--out", str(out), "--epsilon", "0.1",
                 "--epsilon", "0.01", "--epsilon", "0.001",
                 "--grid", "1001"])
    return code, out


class TestSweep:
    def test_exit_and_files(self, sweep_artifacts):
        code, out = sweep_artifacts
        assert code == 0
        assert (out / "sweep.csv").exists()
        assert (out / "report.json").exists()

    def test_rows_and_distance_trend(self, sweep_artifacts):
        _, out = sweep_artifacts
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        dist = [float(line.split(",")[9]) for line in lines[1:]]
        assert dist[0] > dist[1] > dist[2]

    def test_report_contents(self, sweep_artifacts):
        _, out = sweep_artifacts
        doc = json.loads((out / "report.json").read_text())
        assert doc["n_success"] == 3
        assert doc["distance_order"] > 0.0
        assert doc["largest_gap"] <= 1e-6

    def test_empty_epsilons_config_error(self, tmp_path, capsys):
        assert main(["sweep", "--config",
                     tent_config(tmp_path, epsilons=[])]) == 2
        assert "nonempty" in capsys.readouterr().err

    def test_subfloor_row_flagged(self, tmp_path, capsys):
        out = tmp_path / "art"
        code = main(["sweep", "--config", tent_config(tmp_path), "--quiet",
                     "--out", str(out), "--epsilon", "0.01",
                     "--epsilon", "0.001", "--epsilon", "1e-8",
                     "--grid", "801"])
        assert code == 4
        assert "floor" in capsys.readouterr().err
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[3].startswith("1e-08,,")
        assert "floor" in lines[3]
        doc = json.loads((out / "report.json").read_text())
        assert doc["n_success"] == 2

    def test_insufficient_rows_reported(self, tmp_path):
        out = tmp_path / "art"
        code = main(["sweep", "--config", tent_config(tmp_path), "--quiet",
                     "--out", str(out), "--epsilon", "0.01",
                     "--epsilon", "1e-8", "--grid", "801"])
        assert code == 4
        doc = json.loads((out / "report.json").read_text())
        assert "InsufficientRows" in doc["error"]


def _artifact_bytes(folder):
    return {path.relative_to(folder): path.read_bytes()
            for path in sorted(folder.rglob("*")) if path.is_file()}


def test_tolerances_are_inert(tmp_path, capsys):
    # The `tolerances` key parses and changes nothing: loose values and no
    # key at all write the artifacts and print the verify table of the
    # documented defaults, byte for byte.  A sweep row holds the numbers
    # `solve` writes for the same config.
    runs = {}
    for name, extra in (("defaults", {"tolerances": {"root": 1e-12, "quad": 1e-10}}),
                        ("loose", {"tolerances": {"root": 1e-6, "quad": 1e-6}}),
                        ("absent", {})):
        folder = tmp_path / name
        folder.mkdir()
        config = tent_config(folder, **extra)
        assert main(["solve", "--config", config, "--quiet",
                     "--out", str(folder / "solve"), "--grid", "801"]) == 0
        assert main(["sweep", "--config", config, "--quiet",
                     "--out", str(folder / "sweep"), "--grid", "801"]) == 0
        capsys.readouterr()
        code = main(["verify", "--config", config, "--grid", "801"])
        runs[name] = (code, capsys.readouterr().out,
                      _artifact_bytes(folder / "solve"),
                      _artifact_bytes(folder / "sweep"))
    assert runs["loose"] == runs["defaults"] == runs["absent"]
    energy = json.loads(runs["defaults"][2][Path("eps_0.01", "energy.json")])
    header, row = runs["defaults"][3][Path("sweep.csv")].decode().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["primal"]) == energy["primal"]
    assert float(cells["dual"]) == energy["dual"]
    assert float(cells["gap"]) == energy["gap_primal_dual"]


@pytest.mark.parametrize("tolerances", [
    {"root": 1e-12, "newton": 1e-3}, {"root": 0.0}, {"quad": -1e-10},
    {"root": math.inf}, {"quad": "1e-10"}, {"root": True}, [1e-12], None,
], ids=["unknown_key", "zero", "negative", "infinite", "string", "bool",
        "list", "null"])
def test_bad_tolerances_exit_2(tmp_path, capsys, tolerances):
    config = tent_config(tmp_path, tolerances=tolerances)
    assert main(["validate", "--config", config]) == 2
    assert "config.tolerances" in capsys.readouterr().err


@pytest.mark.parametrize("target,code,message", [
    ([0, 6.5], 2, "target_right < source_left"),
    ([0, 1], 3, "2/sqrt(alpha) = 2.0"),
], ids=["invalid_spec", "below_sharp_width"])
def test_verdicts_come_before_any_solve(tmp_path, capsys, target, code,
                                        message):
    # Every command reaches validate's verdict, with its exit code and its
    # message, and writes nothing.
    doc = json.loads(json.dumps(TENT_DOC))
    doc["problem"]["target"] = target
    config = write_config(tmp_path, doc)
    assert main(["validate", "--config", config]) == code
    expected = capsys.readouterr().err
    assert message in expected
    for command in ("solve", "map", "sweep", "verify"):
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == expected
        assert captured.out == ""
        assert not out.exists()


class TestVerify:
    def test_tent_defaults_fail_slope_bound(self, tmp_path, capsys):
        # at this width the solved scale factor runs above 1 and the
        # density slope exceeds alpha by O(epsilon); the battery reports
        # that honestly instead of clipping it away
        assert main(["verify", "--config", tent_config(tmp_path),
                     "--grid", "801"]) == 5
        captured = capsys.readouterr()
        assert "verify: failed slope bound" in captured.err
        assert "fail" in captured.out

    def test_readme_config_table(self, tmp_path, capsys):
        # The battery's rows on the README config, by name and status: the
        # printed numbers are left out, so any change to which checks run
        # shows here as an edit of this table.
        doc = json.loads(json.dumps(TENT_DOC))
        doc.update(epsilons=[0.1, 0.01, 0.001], grid_n=2001,
                   tolerances={"root": 1e-12, "quad": 1e-10},
                   out=str(tmp_path / "artifacts"))
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 5
        rows = [(line[line.index("[") + 1:line.index("]")],
                 line[9:line.index("[")].strip(), line[:8].strip())
                for line in capsys.readouterr().out.splitlines()]
        battery = [("nonnegative", "pass"), ("slope bound", "fail"),
                   ("zero gap", "pass"), ("variational probes", "pass")]
        assert rows == [(f"epsilon={eps!r}", *row) for eps in (0.1, 0.01, 0.001)
                        for row in battery] + [("fixtures", "oracle fixtures", "skipped")]

    def test_steep_regime_passes(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TENT_DOC))
        doc["problem"]["alpha"] = 4.0
        assert main(["verify", "--config", write_config(tmp_path, doc),
                     "--grid", "801"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "fail" not in out
        assert "skipped  oracle fixtures" in out

    def test_good_fixture_passes(self, tmp_path, capsys):
        from monge1d.oracles import discrete_expectation_optimizer
        from monge1d.problem import uniform_spec

        doc = json.loads(json.dumps(TENT_DOC))
        doc["problem"]["alpha"] = 4.0
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 4.0)
        run = discrete_expectation_optimizer(spec, 501)
        out = tmp_path / "art"
        out.mkdir()
        save_fixture(run, out / "oracle_lp.csv")
        code = main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--grid", "801"])
        assert code == 0
        assert "pass     oracle oracle_lp.csv" in capsys.readouterr().out

    def test_injected_slope_violation(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TENT_DOC))
        doc["problem"]["alpha"] = 4.0
        # trapezoid rising at 1.5*alpha: feasible mass and endpoints,
        # infeasible slope
        nodes = np.linspace(0.0, 5.0, 501)
        rate = 1.5 * 4.0
        values = np.minimum(np.minimum(rate * nodes, rate * (5.0 - nodes)),
                            0.2)
        values = values / np.trapezoid(values, nodes)
        density = GridDensity(nodes=nodes, values=values,
                              step=float(nodes[1] - nodes[0]), alpha=4.0)
        assert density.violations()
        out = tmp_path / "art"
        out.mkdir()
        save_fixture(OracleRun(density=density, objective=0.0, iterations=1),
                     out / "oracle_bad.csv")
        code = main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--grid", "801"])
        assert code == 5
        captured = capsys.readouterr()
        assert "slope" in captured.out
        assert "oracle oracle_bad.csv" in captured.err

    @staticmethod
    def _lp_fixture(out, alpha):
        from monge1d.oracles import discrete_expectation_optimizer
        from monge1d.problem import uniform_spec

        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", alpha)
        out.mkdir()
        return save_fixture(discrete_expectation_optimizer(spec, 201),
                            out / "oracle_lp.csv")

    @pytest.mark.parametrize("value", [1.001, 0.999], ids=["past", "inside"])
    @pytest.mark.parametrize("check", ["nonnegative", "zero gap", "oracle oracle_lp.csv"])
    def test_each_bound_reads_a_value_at_its_edge(self, tmp_path, capsys, monkeypatch,
                                                 check, value):
        # A value 0.1% past each bound fails its check and the command,
        # and one 0.1% inside passes, on the steep config, where every
        # other check passes: max(-u) against 1e-12 (the solution's clip
        # depth), the gap against 1e-6 max(1, |primal|) (the report's gap)
        # and the fixture's sup distance against 0.05 (the solution at the
        # fixture's epsilon read as the fixture shifted up by the value).
        # No other test reads these bounds: each could move by orders of
        # magnitude with the rest of the suite green.
        doc = json.loads(json.dumps(TENT_DOC))
        doc["problem"]["alpha"] = 4.0
        out = tmp_path / "art"
        solve, gap = cli.assemble_density, cli.duality_gap
        if check == "nonnegative":
            class Clipped(duality.DensitySolution):
                clip_depth = value * 1e-12      # in place of the read off the profile

            def clipped(*args):
                sol = solve(*args)
                return Clipped(**{f.name: getattr(sol, f.name)
                                  for f in dataclasses.fields(sol)})

            monkeypatch.setattr(cli, "assemble_density", clipped)
        elif check == "zero gap":
            def widened(sol):
                report = gap(sol)
                return dataclasses.replace(
                    report, gap_primal_dual=value * 1e-6 * max(1.0, abs(report.primal)))

            monkeypatch.setattr(cli, "duality_gap", widened)
        else:
            sidecar = self._lp_fixture(out, 4.0)
            sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                           "epsilon": 0.02}))
            fixture = load_fixture(sidecar.with_suffix(".csv")).density

            def shifted(spec, eps, grid_n):
                if eps != 0.02:
                    return solve(spec, eps, grid_n)
                return lambda y: np.interp(y, fixture.nodes, fixture.values) + 0.05 * value

            monkeypatch.setattr(cli, "assemble_density", shifted)
        code = main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--grid", "801"])
        statuses = {line[9:line.index("[")].strip(): line[:8].strip()
                    for line in capsys.readouterr().out.splitlines() if "[" in line}
        assert statuses[check] == ("fail" if value > 1.0 else "pass")
        assert code == (5 if value > 1.0 else 0)

    @pytest.mark.parametrize("edit, detail", [
        ({"epsilon": -0.1}, "fixture epsilon -0.1 is not a finite value"),
        ({"epsilon": 0.0}, "fixture epsilon 0.0 is not a finite value"),
        ({"iterations": None}, "missing key 'iterations'"),
        # A NaN bound passed every slope, and with it the fixture.
        ({"alpha": math.nan}, "oracle_lp.json: alpha nan is not finite"),
    ])
    def test_bad_sidecar_fails_its_check(self, tmp_path, capsys, edit,
                                         detail):
        # A sidecar comes from outside the program: a bad epsilon or alpha,
        # or a missing key, fails the fixture's check instead of the command.
        doc = json.loads(json.dumps(TENT_DOC))
        doc["problem"]["alpha"] = 4.0
        out = tmp_path / "art"
        sidecar = self._lp_fixture(out, 4.0)
        meta = json.loads(sidecar.read_text())
        for key, value in edit.items():
            if value is None:
                del meta[key]
            else:
                meta[key] = value
        sidecar.write_text(json.dumps(meta))
        code = main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--grid", "801"])
        assert code == 5
        captured = capsys.readouterr()
        assert "verify: failed oracle oracle_lp.csv" in captured.err
        assert detail in captured.out

    def test_short_fixture_fails_its_check(self, tmp_path, capsys):
        # An empty fixture and a one-row fixture each fail their own
        # check; the command reports them instead of crashing.
        doc = json.loads(json.dumps(TENT_DOC))
        doc["problem"]["alpha"] = 4.0
        out = tmp_path / "art"
        out.mkdir()
        (out / "oracle_empty.csv").write_text("")
        (out / "oracle_one.csv").write_text("y,u\n0.0,0.0\n")
        code = main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--grid", "801"])
        assert code == 5
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert ("verify: failed oracle oracle_empty.csv, oracle oracle_one.csv"
                in captured.err)
        for name, rows in (("oracle_empty.csv", 0), ("oracle_one.csv", 1)):
            line = next(ln for ln in captured.out.splitlines() if name in ln)
            assert line.startswith("fail")
            assert f"{rows} data row(s)" in line

    def test_solves_each_epsilon_once(self, tmp_path, monkeypatch, capsys):
        # The fixture carries no epsilon, so it is checked against the
        # last configured one, which the battery has already solved.
        import monge1d.cli

        calls = []
        solve = monge1d.cli.assemble_density

        def counted(spec, epsilon, *args, **kwargs):
            calls.append(epsilon)
            return solve(spec, epsilon, *args, **kwargs)

        monkeypatch.setattr(monge1d.cli, "assemble_density", counted)
        out = tmp_path / "art"
        self._lp_fixture(out, 1.0)
        doc = json.loads(json.dumps(TENT_DOC))
        doc["epsilons"] = [0.1, 0.01, 0.001]
        code = main(["verify", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--grid", "801"])
        assert code == 5
        assert "pass     oracle oracle_lp.csv" in capsys.readouterr().out
        assert calls == [0.1, 0.01, 0.001]


NEAR_CAPACITY_DOC = {
    "problem": {
        "assumption": "I",
        "source": {"interval": [2.54, 4.54], "density": {"kind": "uniform"}},
        "target": [0, 2.04],
        "alpha": 1.0,
    },
    "epsilons": [0.1],
}


def test_validate_and_solve_agree_near_capacity(tmp_path):
    config = write_config(tmp_path, NEAR_CAPACITY_DOC)
    validated = main(["validate", "--config", config, "--quiet"])
    solved = main(["solve", "--config", config, "--quiet",
                   "--out", str(tmp_path / "art"), "--grid", "401"])
    assert (validated == 3) == (solved == 3)


def _capacity_doc(alpha, factor, offset, assumption, epsilon):
    """Config whose target starts at `offset` and is factor * 2/sqrt(alpha)
    wide (its right end rounded up to the next float where the sum
    rounds down), source 0.5 beyond it; mirrored through the origin
    under orientation II."""
    width = factor * 2.0 / math.sqrt(alpha)
    lo, hi = offset, offset + width
    while hi - lo < width:
        hi = math.nextafter(hi, math.inf)
    target, source = [lo, hi], [hi + 0.5, hi + 2.5]
    if assumption == "II":
        target, source = [-hi, -lo], [-hi - 2.5, -hi - 0.5]
    return {"problem": {"assumption": assumption,
                        "source": {"interval": source,
                                   "density": {"kind": "uniform"}},
                        "target": target, "alpha": alpha},
            "epsilons": [epsilon]}


@pytest.mark.parametrize("alpha,eps", [(0.5, 1e-6), (1.0, 0.1), (4.0, 1e-6)])
def test_one_capacity_verdict_for_every_command(tmp_path, alpha, eps):
    # validate, the solve and the tent oracle accept the same targets, at
    # any distance from the origin, and every accepted one solves with
    # both Newton contracts met.
    accepted = {}
    for factor, offset, assumption in itertools.product(
            (0.999, 1.0, 1.001, 1.02), (0.0, 1000.0), ("I", "II")):
        doc = _capacity_doc(alpha, factor, offset, assumption, eps)
        validated = main(["validate", "--config", write_config(tmp_path, doc),
                          "--quiet"])
        spec = spec_from_document(doc["problem"])
        try:
            tent_limit_density(spec)
            tent_ok = True
        except CapacityError:
            tent_ok = False
        try:
            sol = assemble_density(spec, eps, 101)
            solved = True
        except CapacityError:
            solved = False
        assert validated in (0, 3)
        assert (validated == 0) == tent_ok == solved
        if solved:
            record = duality._solve_zeros(spec, eps)
            assert abs(record.mass_residual) <= 1e-10
            assert abs(record.closure) <= 0.9e-12
            assert sol.clip_depth == 0.0
        accepted.setdefault((factor, assumption), set()).add(solved)
    assert accepted == {(f, a): {f >= 1.0} for f, a in accepted}



_IMPORT_PROBE = """
import sys
import monge1d.cli
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
from monge1d.oracles import discrete_expectation_optimizer
from monge1d.problem import uniform_spec
run = discrete_expectation_optimizer(uniform_spec((6, 8), (0, 5), "I", 1.0), 201)
print(loaded, run.density.trapezoid_mass, "scipy.optimize" in sys.modules)
"""


def test_cli_import_loads_no_scipy():
    # scipy is the LP oracle's alone: importing the CLI loads none of it,
    # and the oracle still solves, importing its LP on first use.
    src = str(Path(monge1d.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded, mass, lp_imported = done.stdout.rsplit(None, 2)
    assert loaded == "[]"
    assert abs(float(mass) - 1.0) <= 1e-9
    assert lp_imported == "True"


_ORACLES_PROBE = """
import sys
from monge1d import cli
loaded = ["monge1d.oracles" in sys.modules]
for command in ("validate", "solve", "map", "sweep"):
    code = cli.main([command, "--config", sys.argv[1], "--quiet"])
    loaded.append((command, code, "monge1d.oracles" in sys.modules))
print(loaded)
"""


def test_oracles_load_only_for_the_commands_that_read_them(tmp_path):
    # Importing the CLI and running `validate`, `solve` and `map` leaves
    # the oracle layer unloaded; `sweep`, which compares against the tent,
    # loads it, so the probe does see the module when it is imported.
    config = tent_config(tmp_path, grid_n=201, out=str(tmp_path / "out"))
    src = str(Path(monge1d.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _ORACLES_PROBE, config], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == str([False, ("validate", 0, False), ("solve", 0, False),
                                       ("map", 0, False), ("sweep", 0, True)])


_MASKED_PROBE = """
import sys
import numpy as np
from monge1d import cli
loaded = []
for command in ("solve", "map", "sweep", "verify"):
    code = cli.main([command, "--config", sys.argv[1], "--quiet"])
    loaded.append((command, code, "numpy.ma" in sys.modules))
np.unique(np.array([1.0, 1.0]))
loaded.append("numpy.ma" in sys.modules)
print(loaded)
"""


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # numpy's np.unique imports numpy.ma on its first call, about 15 ms
    # of a fresh process: `solve`, `map`, `sweep` and `verify` (against an
    # LP fixture) run without it, and the probe sees the module once
    # np.unique is called.
    out = tmp_path / "out"
    TestVerify._lp_fixture(out, 1.0)
    config = tent_config(tmp_path, grid_n=201, out=str(out))
    src = str(Path(monge1d.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _MASKED_PROBE, config], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == str([("solve", 0, False), ("map", 0, False),
                                       ("sweep", 0, False), ("verify", 5, False), True])
