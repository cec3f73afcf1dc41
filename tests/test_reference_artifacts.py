"""The CLI's artifacts on the README problem, against a committed reference.

`tests/reference_artifacts/` holds what `solve`, `map` and `sweep` write
and what all four solving commands print, for the README problem at eps
0.1, 0.01, 0.001 and 1e-5 on a 129-node grid (`run.json`), next to the
numpy version and the CPU features its dispatch enabled when they were
made (`dispatch.json`).  Under that dispatch every file must match byte
for byte.  Under another the last bits move: with numpy's AVX512_SKX
kernels off, the README config at grid 2001 moved `map.csv` by up to
4.9e-15 and every other number by at most 8.9e-16.  There every number
must match within `BUDGET` max(1, |value|), about twice the largest move,
and all the text between the numbers exactly.

An intended artifact change rewrites the reference in the same change,
from the package on the path:
`PYTHONPATH=src python3 tests/test_reference_artifacts.py --write`.
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from monge1d import cli

HERE = Path(__file__).resolve().parent / "reference_artifacts"
COMMANDS = {"solve": 0, "map": 0, "sweep": 0, "verify": 5}
BUDGET = 1e-14
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def dispatch():
    """The numpy version and the CPU features its dispatch enabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__,
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on)}


def run_commands(workdir):
    """Run `monge1d <command> --config run.json` for each command in
    `workdir`, where the config's relative `out` lands; returns the bytes of
    each command's stdout and of each file written, by relative path."""
    produced = {}
    for command, code in COMMANDS.items():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert cli.main([command, "--config", str(HERE / "run.json")]) == code
        produced[f"{command}.stdout"] = printed.getvalue().encode()
    for path in sorted((workdir / "art").rglob("*")):
        if path.is_file():
            produced[path.relative_to(workdir).as_posix()] = path.read_bytes()
    return produced


def within_budget(text, reference):
    """Whether `text` is `reference` with every number moved by at most
    BUDGET max(1, |value|) and nothing else changed."""
    numbers, expected = _NUMBER.findall(text), _NUMBER.findall(reference)
    if _NUMBER.split(text) != _NUMBER.split(reference) or len(numbers) != len(expected):
        return False
    a, b = np.array(numbers, dtype=float), np.array(expected, dtype=float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    return bool(np.all(same | (np.abs(a - b) <= BUDGET * np.maximum(1.0, np.abs(b)))))


def _reference():
    return {path.relative_to(HERE).as_posix(): path.read_bytes()
            for path in sorted(HERE.rglob("*"))
            if path.is_file() and path.name not in ("run.json", "dispatch.json")}


def test_artifacts_match_the_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    produced, reference = run_commands(tmp_path), _reference()
    assert sorted(produced) == sorted(reference)
    recorded = json.loads((HERE / "dispatch.json").read_text())
    for name, data in reference.items():
        if dispatch() == recorded:
            assert produced[name] == data, name
        else:
            assert within_budget(produced[name].decode(), data.decode()), name


def test_budget_admits_last_bits_only():
    # A move of a few ulps in a number passes; a move of 1e-12, or any
    # change of the text between the numbers, fails.
    text = (HERE / "art" / "eps_0.1" / "map.csv").read_text()
    last = _NUMBER.findall(text)[-1]
    value, at = float(last), text.rindex(last)

    def moved(new):
        return text[:at] + repr(float(new)) + text[at + len(last):]

    assert within_budget(moved(np.nextafter(value, np.inf)), text)
    assert within_budget(moved(value + 4.0 * np.spacing(value)), text)
    assert not within_budget(moved(value + 1e-12 * max(1.0, abs(value))), text)
    assert not within_budget(text.replace("x,", "y,", 1), text)


if __name__ == "__main__" and "--write" in sys.argv:
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        written = run_commands(Path(scratch))
    shutil.rmtree(HERE / "art", ignore_errors=True)
    for name, data in written.items():
        (HERE / name).parent.mkdir(parents=True, exist_ok=True)
        (HERE / name).write_bytes(data)
    (HERE / "dispatch.json").write_text(json.dumps(dispatch(), indent=1) + "\n")
