"""The two committed references and the solve's work pin, read under
another numpy dispatch.

`test_reference_artifacts.py` and `test_edge_reference.py` compare bytes
under the dispatch recorded with their references and within `BUDGET`
elsewhere; `test_duality.py`'s work pin holds one count under that
dispatch and another elsewhere.  Here all three run again in a fresh
interpreter with `NPY_ENABLE_CPU_FEATURES=X86_V3`, which turns off numpy's
AVX-512 dispatch targets, so their other path runs on the machine that
records them.  Where the CPU has no AVX-512 target to turn off, the test
skips.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import monge1d
from test_reference_artifacts import dispatch

HERE = Path(__file__).resolve().parent
REFERENCE_TESTS = ("test_reference_artifacts.py", "test_edge_reference.py",
                   "test_duality.py::TestCoupledSolve::test_work_counts_are_pinned")
_AVX512_TARGETS = {"X86_V4", "AVX512_SKX", "AVX512_ICL", "AVX512_SPR"}

_PROBE = """
import json, sys
import pytest
from test_reference_artifacts import HERE, dispatch
print(dispatch() != json.loads((HERE / "dispatch.json").read_text()), flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


def test_references_hold_under_x86_v3():
    if not _AVX512_TARGETS & set(dispatch()["cpu_features"]):
        reason = "numpy dispatches no AVX-512 target here, so X86_V3 turns nothing off"
        print(reason)
        pytest.skip(reason)
    src = str(Path(monge1d.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES="X86_V3",
               PYTHONPATH=os.pathsep.join([src, str(HERE), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _PROBE,
                           *(str(HERE / name) for name in REFERENCE_TESTS)],
                          env=env, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=300)
    other_dispatch, _, report = done.stdout.partition("\n")
    assert other_dispatch == "True", done.stdout + done.stderr
    assert done.returncode == 0, report + done.stderr
    assert " passed" in report and "skipped" not in report, report
