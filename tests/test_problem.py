"""Unit tests for the problem statement layer."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monge1d.errors import ConfigError, NonPositiveDensity
from monge1d.problem import (
    MongeProblemSpec,
    SourceDensity,
    normalize_density,
    spec_from_document,
    uniform_spec,
    validate_spec,
)
from monge1d.transport import chebyshev_nodes


def _linear_density(lo=6.0, hi=8.0):
    # f(x) = x - 6 on [6, 8], total mass 2.
    return SourceDensity(interval=(lo, hi), kind="piecewise-linear",
                         nodes=(lo, hi), values=(0.0 + 1e-9, 2.0))


class TestSourceDensity:
    def test_uniform_defaults(self):
        f = SourceDensity(interval=(6.0, 8.0))
        assert f.mass() == pytest.approx(1.0, abs=1e-15)
        assert f.min_value() == pytest.approx(0.5)
        assert f.cdf(5.9) == 0.0
        assert f.cdf(7.0) == pytest.approx(0.5)
        assert f.barycenter() == pytest.approx(7.0)

    def test_uniform_with_level(self):
        f = SourceDensity(interval=(6.0, 8.0), level=2.0)
        assert f.mass() == pytest.approx(4.0)
        assert f.cdf(8.0) == pytest.approx(4.0)

    def test_piecewise_linear_closed_forms(self):
        f = SourceDensity(interval=(0.0, 2.0), kind="piecewise-linear",
                          nodes=(0.0, 1.0, 2.0), values=(1.0, 2.0, 1.0))
        assert f.mass() == pytest.approx(3.0)
        assert f.cdf(0.5) == pytest.approx(0.5 * (1.0 + 1.5) / 2.0)
        # cdf(1.5) = cell1 (1.5) + 2*0.5 - 0.5*0.5^2/2... check by quadrature.
        xs = np.linspace(0.0, 1.5, 100001)
        ref = np.trapezoid(np.interp(xs, f.nodes, f.values), xs)
        assert f.cdf(1.5) == pytest.approx(ref, abs=1e-8)

    def test_vectorized_calls(self):
        f = _linear_density()
        xs = np.array([6.0, 7.0, 8.0])
        assert f.cdf(xs).shape == (3,)

    def test_barycenter_linear(self):
        f = SourceDensity(interval=(0.0, 1.0), kind="piecewise-linear",
                          nodes=(0.0, 1.0), values=(0.0, 2.0))
        # x f = 2x^2, mass 1, mean 2/3.
        assert f.barycenter() == pytest.approx(2.0 / 3.0, abs=1e-14)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(lo=st.floats(min_value=-1e3, max_value=1e3),
           width=st.floats(min_value=1e-3, max_value=1e2),
           level=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e3)),
           fracs=st.lists(st.floats(min_value=-0.25, max_value=1.25),
                          min_size=1, max_size=8))
    def test_uniform_is_its_one_cell(self, lo, width, level, fracs):
        # A uniform density and the piecewise-linear cell (L, L) on the
        # same interval evaluate to the same bits.
        hi = lo + width
        uniform = SourceDensity(interval=(lo, hi), level=level)
        L = 1.0 / uniform.width if level is None else level
        cell = SourceDensity(interval=(lo, hi), kind="piecewise-linear",
                             nodes=(lo, hi), values=(L, L))
        xs = lo + np.array(fracs) * (hi - lo)
        assert uniform.mass() == cell.mass()
        assert uniform.min_value() == cell.min_value()
        assert np.array_equal(uniform.cdf(xs), cell.cdf(xs))
        assert uniform.barycenter() == cell.barycenter()

    def test_construction_errors(self):
        with pytest.raises(ValueError):
            SourceDensity(interval=(1.0, 1.0))
        with pytest.raises(ValueError):
            SourceDensity(interval=(0.0, 1.0), kind="piecewise-linear",
                          nodes=(0.0, 0.5), values=(1.0,))
        with pytest.raises(ValueError):
            SourceDensity(interval=(0.0, 1.0), kind="piecewise-linear",
                          nodes=(0.0, 0.5), values=(1.0, 1.0))
        with pytest.raises(ValueError):
            SourceDensity(interval=(0.0, 1.0), kind="uniform",
                          nodes=(0.0, 1.0), values=(1.0, 1.0))
        with pytest.raises(ValueError):
            SourceDensity(interval=(0.0, 1.0), kind="tabulated",
                          nodes=(1.0, 0.0), values=(1.0, 1.0))

    def test_hashable(self):
        a = SourceDensity(interval=(6.0, 8.0))
        b = SourceDensity(interval=(6.0, 8.0))
        assert hash(a) == hash(b)
        assert a == b


class TestNormalize:
    def test_constant_two(self):
        f = SourceDensity(interval=(6.0, 8.0), level=2.0)
        g = normalize_density(f)
        assert g.level == pytest.approx(0.5, abs=1e-14)
        assert g.mass() == pytest.approx(1.0, abs=1e-12)

    def test_normalized_uniform_unchanged(self):
        f = SourceDensity(interval=(6.0, 8.0))
        assert normalize_density(f) is f

    def test_linear_example(self):
        # f(x) = x - 6 on [6, 8] has mass 2; normalized is (x - 6)/2.
        f = SourceDensity(interval=(6.0, 8.0), kind="piecewise-linear",
                          nodes=(6.0, 8.0), values=(1e-12, 2.0))
        g = normalize_density(f)
        assert g.nodes == f.nodes
        assert np.interp(7.0, g.nodes, g.values) == pytest.approx(0.5, abs=1e-9)
        assert g.values[-1] == pytest.approx(1.0, abs=1e-12)
        assert g.mass() == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        f = SourceDensity(interval=(0.0, 2.0), kind="piecewise-linear",
                          nodes=(0.0, 0.7, 2.0), values=(0.3, 1.9, 0.2))
        g1 = normalize_density(f)
        g2 = normalize_density(g1)
        assert g1.nodes == g2.nodes
        assert np.max(np.abs(np.subtract(g1.values, g2.values))) < 1e-14

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveDensity):
            normalize_density(SourceDensity(interval=(0.0, 1.0), level=0.0))
        with pytest.raises(NonPositiveDensity):
            normalize_density(SourceDensity(interval=(0.0, 1.0), kind="tabulated",
                                            nodes=(0.0, 1.0), values=(1.0, -0.5)))


def _per_call_cells(density):
    # The cells as each call derived them before the geometry was stored.
    if density.kind == "uniform":
        level = 1.0 / density.width if density.level is None else density.level
        x, v = np.asarray(density.interval), np.array([level, level])
    else:
        x, v = np.asarray(density.nodes), np.asarray(density.values)
    h = np.diff(x)
    return x, v, h, 0.5 * h * (v[:-1] + v[1:])


def _per_call_cdf(density, x):
    lo, hi = density.interval
    xs, v, h, cell_mass = _per_call_cells(density)
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])
    xc = np.clip(np.asarray(x, dtype=float), lo, hi)
    i = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, h.size - 1)
    t = xc - xs[i]
    slope = (v[i + 1] - v[i]) / h[i]
    out = cum[i] + v[i] * t + 0.5 * slope * t * t
    return out if np.ndim(x) else float(out)


def _per_call_barycenter(density):
    xs, v, h, cell_mass = _per_call_cells(density)
    slope = (v[1:] - v[:-1]) / h
    first = xs[:-1] * (v[:-1] * h + 0.5 * slope * h * h)
    second = 0.5 * v[:-1] * h * h + slope * h**3 / 3.0
    return float(np.sum(first + second) / np.sum(cell_mass))


_TABULATED = SourceDensity(
    interval=(-3.25, 4.5), kind="tabulated",
    nodes=tuple(np.linspace(-3.25, 4.5, 37)),
    values=tuple(1.0 + 0.5 * np.sin(np.linspace(0.0, 9.0, 37))))
_PIECEWISE = SourceDensity(interval=(0.0, 2.0), kind="piecewise-linear",
                           nodes=(0.0, 0.7, 2.0), values=(0.3, 1.9, 0.2))
_GEOMETRY_CASES = {
    "uniform": SourceDensity(interval=(6.0, 8.0)),
    "uniform-level": SourceDensity(interval=(359.17, 360.2), level=2.5),
    "piecewise-linear": _PIECEWISE,
    "tabulated": _TABULATED,
    "scaled-uniform": SourceDensity(interval=(6.0, 8.0), level=2.0).scaled(0.3),
    "scaled-tabulated": _TABULATED.scaled(1.7),
    "normalized-piecewise": normalize_density(_PIECEWISE),
    "normalized-tabulated": normalize_density(_TABULATED),
    "replaced-values": dataclasses.replace(_PIECEWISE, values=(2.0, 0.1, 1.3)),
    "replaced-level": dataclasses.replace(SourceDensity(interval=(6.0, 8.0)),
                                          level=0.75),
}


class TestStoredGeometry:
    """The geometry derived once at construction reads as the per-call
    arithmetic did, bit for bit, and leaves the value semantics alone."""

    @pytest.mark.parametrize("name", list(_GEOMETRY_CASES))
    def test_reads_equal_the_per_call_arithmetic(self, name):
        density = _GEOMETRY_CASES[name]
        lo, hi = density.interval
        xs = np.concatenate([chebyshev_nodes(lo, hi, 1000),
                             _per_call_cells(density)[0],
                             [lo - 1.0, lo - 1e-9, hi + 1e-9, hi + 7.0]])
        assert np.array_equal(density.cdf(xs), _per_call_cdf(density, xs))
        for x in xs[::97]:
            got = density.cdf(float(x))
            assert type(got) is float and got == _per_call_cdf(density, float(x))
        # computed on the first call, then read back
        assert density.barycenter() == _per_call_barycenter(density)
        assert density.barycenter() == _per_call_barycenter(density)
        assert density.min_value() == float(np.min(_per_call_cells(density)[1]))
        assert density.mass() == float(np.sum(_per_call_cells(density)[3]))

    def test_stored_arrays_are_read_only(self):
        density = _GEOMETRY_CASES["tabulated"]
        for name in ("_x", "_v", "_h", "_cell_mass", "_cum", "_slope"):
            arr = getattr(density, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_value_semantics_are_the_fields(self):
        a = SourceDensity(interval=(6.0, 8.0), kind="piecewise-linear",
                          nodes=(6.0, 7.0, 8.0), values=(0.25, 0.5, 0.75))
        b = dataclasses.replace(a)
        a.barycenter()  # a keeps its barycenter, b has none yet
        assert a == b and hash(a) == hash(b)
        fields = tuple(getattr(a, f.name) for f in dataclasses.fields(a))
        assert hash(a) == hash(fields)
        assert repr(a) == ("SourceDensity(interval=(6.0, 8.0), kind='piecewise-linear', "
                           "level=None, nodes=(6.0, 7.0, 8.0), values=(0.25, 0.5, 0.75))")
        assert a != dataclasses.replace(a, values=(0.25, 0.5, 0.8))
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
        spec_fields = tuple(getattr(spec, f.name) for f in dataclasses.fields(spec))
        assert hash(spec) == hash(spec_fields)
        assert repr(spec) == (
            "MongeProblemSpec(source_interval=(6.0, 8.0), target_interval=(0.0, 5.0), "
            "assumption='I', alpha=1.0, source_density=SourceDensity(interval=(6.0, 8.0), "
            "kind='uniform', level=None, nodes=None, values=None))")

    @pytest.mark.parametrize("kwargs", [
        dict(level=0.0),
        dict(level=-2.0),
        dict(kind="tabulated", nodes=(0.0, 1.0), values=(1.0, -1.0)),
    ], ids=["zero", "negative", "zero-total"])
    def test_nonpositive_mass_constructs_quietly(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            density = SourceDensity(interval=(0.0, 1.0), **kwargs)
        assert density.mass() <= 0.0
        with pytest.raises(NonPositiveDensity):
            normalize_density(density)


class TestValidateSpec:
    def test_canonical_valid(self):
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
        report = validate_spec(spec)
        assert report.ok
        assert report.message() == "valid"

    def test_overlapping_invalid(self):
        spec = uniform_spec((6.0, 8.0), (0.0, 7.0), "I", 1.0)
        report = validate_spec(spec)
        assert not report.ok
        assert any("target_right < source_left" in v for v in report.violations)

    def test_mirrored_valid(self):
        spec = uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", 1.0)
        assert validate_spec(spec).ok

    def test_mirrored_wrong_side(self):
        spec = uniform_spec((-8.0, -6.0), (-5.0, 0.5), "II", 1.0)
        report = validate_spec(spec)
        assert any("target_right <= 0" in v for v in report.violations)

    def test_orientation_one_needs_nonnegative_target(self):
        spec = uniform_spec((6.0, 8.0), (-1.0, 5.0), "I", 1.0)
        report = validate_spec(spec)
        assert any("target_left >= 0" in v for v in report.violations)

    def test_bad_alpha(self):
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", -2.0)
        report = validate_spec(spec)
        assert any("slope bound" in v for v in report.violations)

    def test_unnormalized_density_flagged(self):
        src = (6.0, 8.0)
        spec = MongeProblemSpec(
            source_interval=src, target_interval=(0.0, 5.0), assumption="I",
            alpha=1.0, source_density=SourceDensity(interval=src, level=2.0))
        report = validate_spec(spec)
        assert any("mass" in v for v in report.violations)

    def test_multiple_violations_all_reported(self):
        src = (6.0, 8.0)
        spec = MongeProblemSpec(
            source_interval=src, target_interval=(0.0, 7.0), assumption="I",
            alpha=-1.0, source_density=SourceDensity(interval=src, level=2.0))
        report = validate_spec(spec)
        assert len(report.violations) >= 3

    def test_spec_hashable(self):
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
        assert spec in {spec}


CANONICAL_DOC = {
    "assumption": "I",
    "source": {"interval": [6.0, 8.0], "density": {"kind": "uniform"}},
    "target": [0.0, 5.0],
    "alpha": 1.0,
}


class TestDocuments:
    def test_parse_canonical(self):
        spec = spec_from_document(CANONICAL_DOC)
        assert spec.source_interval == (6.0, 8.0)
        assert spec.target_interval == (0.0, 5.0)
        assert spec.assumption == "I"
        assert spec.alpha == 1.0
        assert spec.source_density.kind == "uniform"
        assert validate_spec(spec).ok

    def test_uniform_equals_hand_built(self):
        assert spec_from_document(CANONICAL_DOC) == uniform_spec(
            (6.0, 8.0), (0.0, 5.0), "I", 1.0)

    def test_tabulated_equals_hand_built(self):
        doc = {
            "assumption": "II",
            "source": {"interval": [-8.0, -6.0],
                       "density": {"kind": "tabulated",
                                   "nodes": [-8.0, -7.0, -6.0],
                                   "values": [0.4, 0.6, 0.5]}},
            "target": [-5.0, 0.0],
            "alpha": 2.0,
        }
        density = SourceDensity(interval=(-8.0, -6.0), kind="tabulated",
                                nodes=(-8.0, -7.0, -6.0), values=(0.4, 0.6, 0.5))
        assert spec_from_document(doc) == MongeProblemSpec(
            source_interval=(-8.0, -6.0), target_interval=(-5.0, 0.0),
            assumption="II", alpha=2.0, source_density=density)

    def test_unknown_key_rejected(self):
        doc = dict(CANONICAL_DOC)
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            spec_from_document(doc)

    def test_nested_unknown_key_rejected(self):
        doc = {
            "assumption": "I",
            "source": {"interval": [6.0, 8.0],
                       "density": {"kind": "uniform", "spam": 1}},
            "target": [0.0, 5.0],
            "alpha": 1.0,
        }
        with pytest.raises(ConfigError, match="unknown keys"):
            spec_from_document(doc)

    def test_missing_key_rejected(self):
        doc = {k: v for k, v in CANONICAL_DOC.items() if k != "alpha"}
        with pytest.raises(ConfigError, match="missing keys"):
            spec_from_document(doc)

    def test_bool_is_not_a_number(self):
        doc = dict(CANONICAL_DOC)
        doc["alpha"] = True
        with pytest.raises(ConfigError, match="expected a number"):
            spec_from_document(doc)

    def test_bad_assumption(self):
        doc = dict(CANONICAL_DOC)
        doc["assumption"] = "III"
        with pytest.raises(ConfigError):
            spec_from_document(doc)

    def test_bad_interval_shape(self):
        doc = dict(CANONICAL_DOC)
        doc["target"] = [0.0, 5.0, 6.0]
        with pytest.raises(ConfigError):
            spec_from_document(doc)

    @pytest.mark.parametrize("density, message", [
        ({"kind": "uniform", "nodes": [6.0, 8.0], "values": [1.0, 1.0]},
         "uniform density takes no nodes/values"),
        ({"kind": "uniform", "nodes": [6.0, 8.0]},
         "uniform density takes no nodes/values"),
        ({"kind": "piecewise-linear", "level": 0.5, "nodes": [6.0, 8.0],
          "values": [1.0, 1.0]}, "piecewise-linear density takes no level"),
        ({"kind": "tabulated", "level": 0.5, "nodes": [6.0, 8.0],
          "values": [1.0, 1.0]}, "tabulated density takes no level"),
    ], ids=["uniform_nodes_values", "uniform_nodes", "piecewise_level",
            "tabulated_level"])
    def test_mixed_density_keys_rejected(self, density, message):
        # The document hands every key it finds to SourceDensity, whose
        # kind rules name the offending key under the document's path.
        doc = {**CANONICAL_DOC, "source": {"interval": [6.0, 8.0], "density": density}}
        with pytest.raises(ConfigError) as caught:
            spec_from_document(doc)
        assert str(caught.value) == f"problem.source.density: {message}"


class TestOrientationHelpers:
    def test_orientation_one(self):
        spec = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
        assert spec.orientation == 1.0
        assert spec.anchor == 5.0

    def test_orientation_two(self):
        spec = uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", 1.0)
        assert spec.orientation == -1.0
        assert spec.anchor == -5.0


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    left=st.floats(min_value=0.0, max_value=3.0),
    width_t=st.floats(min_value=0.5, max_value=5.0),
    gap=st.floats(min_value=0.1, max_value=4.0),
    width_s=st.floats(min_value=0.5, max_value=4.0),
    alpha=st.floats(min_value=0.1, max_value=8.0),
)
def test_ordered_specs_always_validate(left, width_t, gap, width_s, alpha):
    target = (left, left + width_t)
    source = (target[1] + gap, target[1] + gap + width_s)
    spec = uniform_spec(source, target, "I", alpha)
    assert validate_spec(spec).ok


@settings(derandomize=True, deadline=None, max_examples=40)
@given(nodes_mid=st.floats(min_value=0.2, max_value=1.8),
       v0=st.floats(min_value=0.05, max_value=4.0),
       v1=st.floats(min_value=0.05, max_value=4.0),
       v2=st.floats(min_value=0.05, max_value=4.0))
def test_normalize_gives_unit_mass(nodes_mid, v0, v1, v2):
    f = SourceDensity(interval=(0.0, 2.0), kind="piecewise-linear",
                      nodes=(0.0, nodes_mid, 2.0), values=(v0, v1, v2))
    g = normalize_density(f)
    assert abs(g.mass() - 1.0) < 1e-12
    # Proportionality to the input.
    assert g.nodes == f.nodes
    assert np.multiply(g.values, f.mass()) == pytest.approx(f.values, rel=1e-12)
