"""Smoothing-parameter sweeps and the limit study they feed.

`epsilon_sweep` runs the full solve pipeline once per requested epsilon
and collects per-row diagnostics: the solved constant and moving support
endpoint, constraint residuals, the three-way energy agreement, and the
sup-distance to the sharp-limit tent profile.  A failed epsilon is
recorded in its row rather than aborting the sweep, so a ladder that
walks into a solver failure still documents where it broke.

`convergence_report` condenses successful rows into the quantities the
limit study cares about: the observed order of the tent distance against
epsilon (log-log slope), monotonicity verdicts for the endpoint and
expectation trajectories, and the worst duality gap.

Rows are independent of each other and follow the input order.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .duality import assemble_density
from .energy import duality_gap
from .errors import InsufficientRows, Monge1dError
from .problem import MongeProblemSpec

# Below this the log-scale bracket alpha^2/(2 eps) is so deep that the
# exponential term of the energy drops out of float64 entirely.
EPSILON_FLOOR = 1e-6

# Tent distances are compared across rows, so they share one grid.
_DISTANCE_GRID_N = 2001

_CSV_COLUMNS = ("epsilon", "constant", "support_endpoint", "mass_err",
                "sup_slope", "expectation", "primal", "dual", "gap",
                "dist_tent", "ms", "error")

# Trajectory steps within this of zero count as flat.
_TREND_SLACK = 1e-12


@dataclass(frozen=True, kw_only=True)
class SweepRow:
    """One epsilon's worth of pipeline output.

    Numeric fields default to None, which is what a failed row holds: it
    is built from `epsilon` and a non-empty `error` alone.
    """

    epsilon: float
    constant: float | None = None
    support_endpoint: float | None = None
    mass_err: float | None = None
    sup_slope: float | None = None
    expectation: float | None = None
    primal: float | None = None
    dual: float | None = None
    gap: float | None = None
    dist_tent: float | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def _distance_grid(spec: MongeProblemSpec) -> np.ndarray:
    lo, hi = spec.target_interval
    return np.linspace(lo, hi, _DISTANCE_GRID_N)


def _solve_row(spec, epsilon, tent, grid) -> SweepRow:
    if epsilon < EPSILON_FLOOR:
        return SweepRow(epsilon=epsilon,
                        error=f"ValueError: epsilon {epsilon!r} below the "
                              f"supported floor {EPSILON_FLOOR!r}")
    try:
        solution = assemble_density(spec, epsilon)
        report = duality_gap(solution)
        dist = float(np.max(np.abs(solution(grid) - tent(grid))))
    except Monge1dError as exc:
        return SweepRow(epsilon=epsilon, error=f"{type(exc).__name__}: {exc}")
    return SweepRow(
        epsilon=epsilon,
        constant=solution.dual.constant,
        support_endpoint=solution.support_endpoint,
        mass_err=report.constraint_residuals.mass_error,
        sup_slope=solution.max_abs_slope,
        expectation=solution.expectation,
        primal=report.primal,
        dual=report.dual,
        gap=report.gap_primal_dual,
        dist_tent=dist)


def epsilon_sweep(spec: MongeProblemSpec, epsilons):
    """Run the solve pipeline at each epsilon, in input order.

    Each row is `assemble_density` at its default grid, with the solve's
    own energies, so a row holds the numbers `solve` writes.  The grid
    sets no column: the zeros, energies and expectation are the solve's
    pass, and the tent distance reads the density on a grid of its own,
    off that same pass.  Returns a
    list of SweepRow.  An epsilon that is not finite is rejected up front
    with a ValueError (the whole request is malformed, not one row); one
    below EPSILON_FLOOR, and a per-epsilon solver failure, land in their
    row's `error` field, so the table shows which rung broke.  Raises
    CapacityError up front when the target is narrower than the
    sharp-limit tent, and DomainError when it has no width to compare
    (`problem.require_capacity`, the verdict every row would reach), since
    then no row has a tent to compare against.
    """
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("epsilon_sweep needs at least one epsilon")
    for eps in eps_list:
        if not np.isfinite(eps):
            raise ValueError(f"epsilon {eps!r} is not finite")
    from .oracles import tent_limit_density

    tent = tent_limit_density(spec)
    grid = _distance_grid(spec)
    return [_solve_row(spec, eps, tent, grid) for eps in eps_list]


def _cell(row, column) -> str:
    """A row's CSV cell: `ms` empty, `error` raw, a missing number empty
    and any other number its repr."""
    if column == "ms":
        return ""
    if column == "error":
        return row.error
    value = getattr(row, column)
    return "" if value is None else repr(value)


def rows_to_csv(rows) -> str:
    """Serialize sweep rows to CSV text, bit-stable for identical inputs.

    The `ms` column is intentionally left empty: wall time varies run to
    run and would break byte-for-byte determinism of the artifact.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row, column) for column in _CSV_COLUMNS])
    return buffer.getvalue()


def _trend(values) -> str:
    diffs = np.diff(np.asarray(values, dtype=float))
    if diffs.size == 0 or np.all(np.abs(diffs) <= _TREND_SLACK):
        return "constant"
    if np.all(diffs <= _TREND_SLACK):
        return "nonincreasing"
    if np.all(diffs >= -_TREND_SLACK):
        return "nondecreasing"
    return "mixed"


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of a sweep: observed order, trends, and the worst gap.

    distance_order is the log-log slope of dist_tent against epsilon
    (positive means the density approaches the tent as epsilon shrinks);
    None when degenerate abscissae or vanishing distances leave it
    undefined, with the reason in slope_note.  Trends are read along
    decreasing epsilon.
    """

    n_rows: int
    n_success: int
    distance_order: float | None
    slope_note: str
    endpoint_trend: str
    expectation_trend: str
    largest_gap: float


def convergence_report(rows) -> ConvergenceReport:
    good = [r for r in rows if r.ok]
    if len(good) < 2:
        raise InsufficientRows(
            f"convergence report needs >= 2 successful rows, got {len(good)}")
    ordered = sorted(good, key=lambda r: -r.epsilon)

    eps = np.array([r.epsilon for r in ordered])
    dist = np.array([r.dist_tent for r in ordered])
    slope = None
    note = ""
    usable = dist > 0.0
    if len(np.unique(eps)) < 2:
        note = "slope undefined: duplicate epsilon abscissae"
    elif np.count_nonzero(usable) < 2 or len(np.unique(eps[usable])) < 2:
        note = "slope undefined: fewer than two positive distances"
    else:
        # positive slope in log-log: distance shrinks with epsilon
        slope = float(np.polyfit(np.log(eps[usable]),
                                 np.log(dist[usable]), 1)[0])

    return ConvergenceReport(
        n_rows=len(rows),
        n_success=len(good),
        distance_order=slope,
        slope_note=note,
        endpoint_trend=_trend([r.support_endpoint for r in ordered]),
        expectation_trend=_trend([r.expectation for r in ordered]),
        largest_gap=max(abs(r.gap) for r in good))
