"""Problem statement: intervals, slope bound, source density, validation.

A transfer problem moves unit mass from a source interval onto a disjoint
target interval while the target density is constrained to vanish at the
target endpoints and obey a Lipschitz slope bound.  Two orientations are
supported:

* orientation "I":   0 <= target_left < target_right < source_left < source_right
  (target sits between the origin and the source; mass moves left),
* orientation "II":  source_left < source_right < target_left < target_right <= 0
  (mirror image on the negative axis; mass moves right).

The source density's kinds are input labels: every kind is evaluated on
one piecewise-linear path, whose cells `SourceDensity` derives once at
construction and stores read-only (`SourceDensity._derive_cells`).

Everything in this module is immutable and hashable, so specs can key
caches directly.  Construction only enforces structural sanity (shapes,
finite numbers); semantic admissibility is reported by `validate_spec`,
which never raises, so that invalid configurations can be diagnosed whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, ConfigError, DomainError, NonPositiveDensity

_DENSITY_KINDS = ("uniform", "piecewise-linear", "tabulated")
_MASS_TOL = 1e-8


@dataclass(frozen=True)
class SourceDensity:
    """Density of the transported mass on the source interval.

    Kinds:
      * "uniform": constant `level` on the interval (level None means the
        normalized constant 1/width), evaluated as one cell (level, level).
      * "piecewise-linear": explicit node/value breakpoints.
      * "tabulated": samples of some underlying density, interpolated
        piecewise-linearly; the kind only records where the numbers came from.

    Mass, cumulative mass and barycenter are exact closed forms per cell,
    never quadrature, so the transport maps and their cost inherit no
    discretization error from the source side.  The cells' geometry is
    derived once, after validation, and stored read-only; the barycenter
    is computed on its first call and kept.
    """

    interval: tuple[float, float]
    kind: str = "uniform"
    level: float | None = None
    nodes: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        lo, hi = (float(self.interval[0]), float(self.interval[1]))
        object.__setattr__(self, "interval", (lo, hi))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"density interval {self.interval} is not a finite "
                             "nondegenerate interval")
        if self.kind not in _DENSITY_KINDS:
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind == "uniform":
            if self.nodes is not None or self.values is not None:
                raise ValueError("uniform density takes no nodes/values")
            if self.level is not None:
                object.__setattr__(self, "level", float(self.level))
                if not math.isfinite(self.level):
                    raise ValueError(f"uniform density level {self.level!r} is not finite")
        else:
            if self.level is not None:
                raise ValueError(f"{self.kind} density takes no level")
            if self.nodes is None or self.values is None:
                raise ValueError(f"{self.kind} density needs nodes and values")
            nodes = tuple(float(x) for x in self.nodes)
            values = tuple(float(v) for v in self.values)
            if len(nodes) != len(values) or len(nodes) < 2:
                raise ValueError("nodes and values must be equal-length, >= 2")
            if any(not math.isfinite(x) for x in nodes + values):
                raise ValueError("nodes and values must be finite")
            if any(x1 <= x0 for x0, x1 in zip(nodes, nodes[1:])):
                raise ValueError("density nodes must be strictly increasing")
            if abs(nodes[0] - lo) > 1e-12 or abs(nodes[-1] - hi) > 1e-12:
                raise ValueError("density nodes must span the interval exactly")
            object.__setattr__(self, "nodes", nodes)
            object.__setattr__(self, "values", values)
        self._derive_cells()

    # -- closed-form geometry -------------------------------------------------

    @property
    def width(self) -> float:
        return self.interval[1] - self.interval[0]

    def _derive_cells(self):
        """Store, read-only, the cells every method evaluates: breakpoints
        `_x`, values `_v`, widths `_h`, exact masses `_cell_mass`, their
        running sums `_cum` and slopes `_slope`, with the minimum value and
        the total mass.  A uniform density is one cell (level, level)."""
        if self.kind == "uniform":
            level = 1.0 / self.width if self.level is None else self.level
            x, v = np.array(self.interval), np.array([level, level])
        else:
            x, v = np.array(self.nodes), np.array(self.values)
        h = np.diff(x)
        cell_mass = 0.5 * h * (v[:-1] + v[1:])
        cells = dict(_x=x, _v=v, _h=h, _cell_mass=cell_mass,
                     _cum=np.concatenate([[0.0], np.cumsum(cell_mass)]),
                     _slope=(v[1:] - v[:-1]) / h)
        for name, arr in cells.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_min_value", float(np.min(v)))
        object.__setattr__(self, "_mass", float(np.sum(cell_mass)))

    def min_value(self) -> float:
        """Smallest value attained on the interval (exact: extrema of a
        piecewise-linear function sit at nodes)."""
        return self._min_value

    def mass(self) -> float:
        """Total integral over the interval, exact."""
        return self._mass

    def cdf(self, x):
        """Cumulative mass from the left endpoint, exact per cell."""
        x_arr = np.asarray(x, dtype=float)
        lo, hi = self.interval
        xs, v = self._x, self._v
        xc = np.clip(x_arr, lo, hi)
        i = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, self._h.size - 1)
        t = xc - xs[i]
        out = self._cum[i] + v[i] * t + 0.5 * self._slope[i] * t * t
        return out if np.ndim(x) else float(out)

    def barycenter(self) -> float:
        """Mass-weighted mean position, exact; computed on the first call
        and kept, since a density of zero total mass (which
        `normalize_density` rejects) has none."""
        if "_barycenter" not in self.__dict__:
            xs, v, h, slope = self._x, self._v, self._h, self._slope
            # int over a cell of (x0 + t)(v0 + slope t) dt for t in [0, h].
            first = xs[:-1] * (v[:-1] * h + 0.5 * slope * h * h)
            second = 0.5 * v[:-1] * h * h + slope * h**3 / 3.0
            object.__setattr__(self, "_barycenter",
                               float(np.sum(first + second) / np.sum(self._cell_mass)))
        return self._barycenter

    def scaled(self, factor: float) -> "SourceDensity":
        if self.kind == "uniform":
            return replace(self, level=float(self._v[0]) * factor)
        return replace(self, values=tuple(v * factor for v in self.values))


def normalize_density(density: SourceDensity) -> SourceDensity:
    """Rescale so the total mass is exactly 1 (closed form, no quadrature).

    Raises NonPositiveDensity when the minimum value is <= 0: a vanishing
    or negative density cannot be normalized into an admissible one.
    """
    if density.min_value() <= 0.0:
        raise NonPositiveDensity(
            f"density minimum {density.min_value():.6g} is not positive")
    total = density.mass()
    if total == 1.0:
        return density
    return density.scaled(1.0 / total)


@dataclass(frozen=True)
class MongeProblemSpec:
    """Full problem statement; immutable and hashable.

    `assumption` selects the orientation ("I" or "II", see the module
    docstring).  Semantic admissibility (interval ordering, density
    positivity and normalization) is checked by `validate_spec`, not here.
    """

    source_interval: tuple[float, float]
    target_interval: tuple[float, float]
    assumption: str
    alpha: float
    source_density: SourceDensity

    def __post_init__(self):
        object.__setattr__(self, "source_interval",
                           (float(self.source_interval[0]), float(self.source_interval[1])))
        object.__setattr__(self, "target_interval",
                           (float(self.target_interval[0]), float(self.target_interval[1])))
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.assumption not in ("I", "II"):
            raise ValueError(f"assumption must be 'I' or 'II', got {self.assumption!r}")

    # -- orientation helpers --------------------------------------------------

    @property
    def orientation(self) -> float:
        """+1 when mass moves left onto a target right of the origin
        (assumption I), -1 for the mirrored configuration (II)."""
        return 1.0 if self.assumption == "I" else -1.0

    @property
    def anchor(self) -> float:
        """Target endpoint adjacent to the source; the approximate density
        is anchored there and its support grows away from it."""
        return self.target_interval[1] if self.assumption == "I" else self.target_interval[0]

    @property
    def target_width(self) -> float:
        return self.target_interval[1] - self.target_interval[0]

    @property
    def sharp_width(self) -> float:
        """Width 2/sqrt(alpha) of the unit-mass tent with slopes +-alpha,
        the sharp limit of the smoothed densities."""
        return 2.0 / math.sqrt(self.alpha)


def uniform_spec(source, target, assumption, alpha) -> MongeProblemSpec:
    """Spec with the normalized uniform density on the source interval."""
    src = (float(source[0]), float(source[1]))
    return MongeProblemSpec(
        source_interval=src,
        target_interval=(float(target[0]), float(target[1])),
        assumption=assumption,
        alpha=alpha,
        source_density=SourceDensity(interval=src),
    )


@dataclass(frozen=True)
class ValidationReport:
    """Admissibility report: empty `violations` means the spec is usable."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def message(self) -> str:
        return "valid" if self.ok else "; ".join(self.violations)


def validate_spec(spec: MongeProblemSpec) -> ValidationReport:
    """Check every admissibility invariant and report all violations.

    Ordering per the declared orientation, finiteness, positive slope
    bound, interval disjointness, density positivity, and the unit-mass
    balance within 1e-8.  Capacity of the target (whether it can hold
    unit mass under the slope bound) is `require_capacity`'s verdict, so
    that a valid but too narrow target keeps its own failure.
    """
    out = []
    sl, sr = spec.source_interval
    tl, tr = spec.target_interval
    pts = (sl, sr, tl, tr, spec.alpha)
    if not all(math.isfinite(p) for p in pts):
        out.append("all endpoints and the slope bound must be finite")
        return ValidationReport(tuple(out))
    if spec.alpha <= 0.0:
        out.append(f"slope bound must be positive, got {spec.alpha:.6g}")
    if spec.assumption == "I":
        if not tl >= 0.0:
            out.append(f"orientation I needs target_left >= 0, got {tl:.6g}")
        if not tl < tr:
            out.append(f"target interval [{tl:.6g}, {tr:.6g}] is degenerate")
        if not tr < sl:
            out.append(f"orientation I needs target_right < source_left, "
                       f"got {tr:.6g} >= {sl:.6g}")
        if not sl < sr:
            out.append(f"source interval [{sl:.6g}, {sr:.6g}] is degenerate")
    else:
        if not sl < sr:
            out.append(f"source interval [{sl:.6g}, {sr:.6g}] is degenerate")
        if not sr < tl:
            out.append(f"orientation II needs source_right < target_left, "
                       f"got {sr:.6g} >= {tl:.6g}")
        if not tl < tr:
            out.append(f"target interval [{tl:.6g}, {tr:.6g}] is degenerate")
        if not tr <= 0.0:
            out.append(f"orientation II needs target_right <= 0, got {tr:.6g}")
    dens = spec.source_density
    if dens.interval != spec.source_interval:
        out.append(f"density interval {dens.interval} differs from the "
                   f"source interval {spec.source_interval}")
    if dens.min_value() <= 0.0:
        out.append(f"source density must be strictly positive, "
                   f"minimum is {dens.min_value():.6g}")
    if abs(dens.mass() - 1.0) > _MASS_TOL:
        out.append(f"source density mass {dens.mass():.12g} is not 1 "
                   f"within {_MASS_TOL:g}")
    return ValidationReport(tuple(out))


def require_capacity(spec: MongeProblemSpec) -> None:
    """Raise CapacityError when the target is narrower than
    `spec.sharp_width`, and DomainError unless the slope bound is finite
    and > 0 and the target interval finite, where no width is defined.

    The one capacity rule of the package: every command and oracle
    applies it.  It depends on the target's width and the slope bound
    alone, so a problem shifted along the axis keeps its verdict.
    """
    if not (0.0 < spec.alpha < math.inf
            and all(map(math.isfinite, spec.target_interval))):
        raise DomainError(f"capacity needs a finite slope bound > 0 and a "
                          f"finite target, got alpha = {spec.alpha!r} and "
                          f"target {spec.target_interval!r}")
    if spec.target_width < spec.sharp_width:
        raise CapacityError(
            f"target width {spec.target_width!r} is below 2/sqrt(alpha) = "
            f"{spec.sharp_width!r}, the narrowest width that holds unit "
            f"mass under the slope bound")


# -- JSON problem documents ---------------------------------------------------

def _expect_object(doc, path, required, optional=()):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")


def _as_float(value, path):
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_interval(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected [left, right]")
    return (_as_float(value[0], f"{path}[0]"), _as_float(value[1], f"{path}[1]"))


def _density_from_document(doc, interval, path):
    _expect_object(doc, path, required=("kind",), optional=("level", "nodes", "values"))
    kind = doc["kind"]
    if kind not in _DENSITY_KINDS:
        raise ConfigError(f"{path}.kind: expected one of {list(_DENSITY_KINDS)}, "
                          f"got {kind!r}")
    level = _as_float(doc["level"], f"{path}.level") if "level" in doc else None
    arrays = {}
    for key in ("nodes", "values"):
        if key not in doc:
            if kind != "uniform":
                raise ConfigError(f"{path}: missing key {key!r} for kind {kind!r}")
            continue
        if not isinstance(doc[key], (list, tuple)):
            raise ConfigError(f"{path}.{key}: expected an array")
        arrays[key] = tuple(_as_float(x, f"{path}.{key}[{i}]")
                            for i, x in enumerate(doc[key]))
    try:
        return SourceDensity(interval=interval, kind=kind, level=level, **arrays)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def spec_from_document(doc) -> MongeProblemSpec:
    """Parse the strict JSON problem document.

    Shape: {"assumption": "I"|"II", "source": {"interval": [a, b],
    "density": {...}}, "target": [left, right], "alpha": number}.
    Unknown keys anywhere are rejected (ConfigError), numbers are 64-bit
    floats, and booleans do not count as numbers.
    """
    _expect_object(doc, "problem", required=("assumption", "source", "target", "alpha"))
    assumption = doc["assumption"]
    if assumption not in ("I", "II"):
        raise ConfigError(f"problem.assumption: expected 'I' or 'II', got {assumption!r}")
    _expect_object(doc["source"], "problem.source", required=("interval", "density"))
    source_interval = _as_interval(doc["source"]["interval"], "problem.source.interval")
    target_interval = _as_interval(doc["target"], "problem.target")
    alpha = _as_float(doc["alpha"], "problem.alpha")
    if not source_interval[0] < source_interval[1]:
        raise ConfigError(f"problem.source.interval: left must be below right, "
                          f"got {list(source_interval)}")
    density = _density_from_document(doc["source"]["density"], source_interval,
                                     "problem.source.density")
    return MongeProblemSpec(
        source_interval=source_interval,
        target_interval=target_interval,
        assumption=assumption,
        alpha=alpha,
        source_density=density,
    )

