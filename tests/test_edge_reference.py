"""Edge-regime solves against a committed reference, bit for bit.

`tests/edge_reference.json` holds what `assemble_density` delivers on 36
edge-regime problems: alpha 0.5, 1, 2 and 4 times eps 1e-1, 1e-3 and
1e-6, each on three targets of alpha's sharp width 2/sqrt(alpha) times a
factor: a free end at offset 0 under orientation I (factor 2.5), a free
end at offset 1000 under orientation II (factor 2.5), and a full target
at exactly the sharp width (factor 1, orientation I).  For each it holds
the coupled solve's depth zeros and Newton steps, the zeros in y, the
mass, the expectation, the energy integrals, the slope and log-scale
maxima, the clip depth, the profile's total, a sha256 of the profile's
edges and density rows, and the row pass's sums (`row_pass_sums`: the
rows g, lambda and (y - anchor) g of `DensitySolution.integrate` at
tolerance 1e-10, cut at the levels `ROW_LEVELS`); on three cases also
`verify`'s variational probe deltas.  Every float is stored as
`float.hex`.

Under the numpy version and CPU features recorded with it every float
must match exactly, the digests too.  Under another dispatch the last
bits move, and on a full target the free zero z is fixed only to about
rounding over the residuals' small z-column: there every float must lie
within `BUDGET` max(1, |value|), or within `FREE_ZERO_BUDGET` of the
sharp width for the z-dependent figures of a full target, and the
digests and step counts are not compared.

An intended change of these figures rewrites the reference in the same
change, from the package on the path:
`PYTHONPATH=src python3 tests/test_edge_reference.py --write`.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import counted_passes, regime_spec
from monge1d.duality import assemble_density
from monge1d.energy import SinePerturbation, second_variation_probe
from test_reference_artifacts import dispatch

REFERENCE = Path(__file__).resolve().parent / "edge_reference.json"
ALPHAS = (0.5, 1.0, 2.0, 4.0)
EPSILONS = (1e-1, 1e-3, 1e-6)
TARGETS = ("offset_0_I", "offset_1000_II", "sharp_width")
PROBED = (("offset_0_I", 1.0, 1e-3), ("offset_1000_II", 0.5, 1e-1),
          ("sharp_width", 4.0, 1e-6))
PROBE_TS = (-1e-2, -1e-3, 1e-3, 1e-2)
ROW_LEVELS = (0.0, -1e-3, -1e-2)
BUDGET = 1e-14
# On a full target the free zero lies past the far edge, where the
# residuals follow it only through the slope's log layer; two starts at
# alpha 4, eps 1e-6 landed 1.8e-7 apart (ROADMAP item 2).
FREE_ZERO_BUDGET = 1e-5
_FREE_ZERO_FIGURES = ("depth_zeros", "zeros")


def spec_of(target, alpha):
    """The problem on one of the three edge targets."""
    factor, offset = {"offset_0_I": (2.5, 0.0), "offset_1000_II": (2.5, 1000.0),
                      "sharp_width": (1.0, 0.0)}[target]
    return regime_spec(alpha, factor, offset, "II" if target.endswith("_II") else "I")


def _key(target, alpha, eps):
    return f"{target} alpha={alpha!r} eps={eps!r}"


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()).hexdigest()


def record(target, alpha, eps):
    """What one solve delivers, floats as `float.hex`.  Each Newton step
    of the solve adds one adaptive pass to its start's, so the steps are
    the assembly's passes less one."""
    spec = spec_of(target, alpha)
    with counted_passes() as passes:
        sol = assemble_density(spec, eps)
    out = {
        "depth_zeros": [x.hex() for x in sol.depth_zeros],
        "steps": len(passes) - 1,
        "zeros": [float(x).hex() for x in sol.dual.zeros],
        "mass": sol.mass.hex(),
        "expectation": sol.expectation.hex(),
        "energy_integrals": [float(x).hex() for x in sol.energy_integrals],
        "max_abs_slope": sol.max_abs_slope.hex(),
        "max_log_lambda": sol.max_log_lambda.hex(),
        "clip_depth": sol.clip_depth.hex(),
        "total": sol.profile.total.hex(),
        "edges_sha256": _digest(sol.profile.edges),
        "density_sha256": _digest(sol.profile._density),
        "row_pass_sums": [x.hex() for x in sol.integrate(
            lambda y, l, g: (g, np.exp(l), (y - spec.anchor) * g), ROW_LEVELS).tolist()],
    }
    if (target, alpha, eps) in PROBED:
        probe = second_variation_probe(
            sol, SinePerturbation(sol.support, k=1), PROBE_TS,
            dual_perturbation=lambda y: np.full(np.shape(y), 1.0))
        out["primal_deltas"] = [x.hex() for x in probe.primal_deltas]
        out["dual_deltas"] = [x.hex() for x in probe.dual_deltas]
    return out


def cases():
    return [(t, a, e) for t in TARGETS for a in ALPHAS for e in EPSILONS]


def _floats(value):
    return [float.fromhex(x) for x in (value if isinstance(value, list) else [value])]


def within_budget(name, produced, expected, target):
    """Whether every float of one figure lies within its off-dispatch budget."""
    a, b = np.array(_floats(produced)), np.array(_floats(expected))
    if a.shape != b.shape:
        return False
    if target == "sharp_width" and name in _FREE_ZERO_FIGURES:
        return bool(np.all(np.abs(a - b) <= FREE_ZERO_BUDGET * np.maximum(1.0, np.abs(b))))
    return bool(np.all(np.abs(a - b) <= BUDGET * np.maximum(1.0, np.abs(b))))


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def test_reference_covers_every_case(reference):
    assert sorted(reference["cases"]) == sorted(_key(*case) for case in cases())
    probed = [key for key, fig in reference["cases"].items() if "primal_deltas" in fig]
    assert sorted(probed) == sorted(_key(*case) for case in PROBED)


@pytest.mark.parametrize("target", TARGETS)
def test_edge_solves_match_the_reference(reference, target):
    exact = dispatch() == reference["dispatch"]
    for alpha in ALPHAS:
        for eps in EPSILONS:
            key = _key(target, alpha, eps)
            produced, expected = record(target, alpha, eps), reference["cases"][key]
            assert sorted(produced) == sorted(expected), key
            for name, value in expected.items():
                if exact:
                    assert produced[name] == value, (key, name)
                elif name not in ("steps", "edges_sha256", "density_sha256"):
                    assert within_budget(name, produced[name], value, target), (key, name)


def test_budget_admits_last_bits_only(reference):
    # A move of a few ulps passes; a move of 1e-12 fails, and on a full
    # target's zeros a move of 1e-4 does.
    key = _key("offset_1000_II", 2.0, 1e-3)
    value = reference["cases"][key]["zeros"]
    moved = [(x + 4.0 * np.spacing(x)).hex() for x in _floats(value)]
    assert within_budget("zeros", moved, value, "offset_1000_II")
    far = [(x + 1e-12 * max(1.0, abs(x))).hex() for x in _floats(value)]
    assert not within_budget("zeros", far, value, "offset_1000_II")
    sharp = reference["cases"][_key("sharp_width", 2.0, 1e-3)]["depth_zeros"]
    assert within_budget("depth_zeros", [(x + 1e-7).hex() for x in _floats(sharp)],
                         sharp, "sharp_width")
    assert not within_budget("depth_zeros", [(x + 1e-4).hex() for x in _floats(sharp)],
                             sharp, "sharp_width")
    assert not within_budget("mass", (1.0 + 1e-12).hex(), (1.0).hex(), "sharp_width")


if __name__ == "__main__" and "--write" in sys.argv:
    written = {"dispatch": dispatch(),
               "cases": {_key(*case): record(*case) for case in cases()}}
    REFERENCE.write_text(json.dumps(written, indent=1) + "\n")
