"""Sweep driver: row contents, failure capture, CSV determinism, and the
convergence summary."""

import numpy as np
import pytest

import monge1d.sweep as sweep_mod
from monge1d.errors import CapacityError, DomainError, InsufficientRows
from monge1d.problem import uniform_spec
from monge1d.sweep import (
    SweepRow,
    convergence_report,
    epsilon_sweep,
    rows_to_csv,
)

SPEC_I = uniform_spec((6.0, 8.0), (0.0, 5.0), "I", 1.0)
SPEC_II = uniform_spec((-8.0, -6.0), (-5.0, 0.0), "II", 1.0)
LADDER = (0.1, 0.01, 0.001)


@pytest.fixture(scope="module")
def ladder_rows():
    return epsilon_sweep(SPEC_I, LADDER)


def _row(epsilon, dist, *, endpoint=3.0, expect=4.0, gap=1e-12, error=""):
    # hand-built row for report-shape tests
    if error:
        return SweepRow(epsilon=epsilon, error=error)
    return SweepRow(epsilon=epsilon, constant=8.0, support_endpoint=endpoint,
                    mass_err=0.0, sup_slope=1.0, expectation=expect,
                    primal=-4.0, dual=-4.0, gap=gap, dist_tent=dist)


class TestEpsilonSweep:
    def test_row_per_epsilon_in_order(self, ladder_rows):
        assert [r.epsilon for r in ladder_rows] == list(LADDER)
        assert all(r.ok for r in ladder_rows)

    def test_input_order_kept_even_ascending(self):
        rows = epsilon_sweep(SPEC_I, (0.001, 0.1))
        assert [r.epsilon for r in rows] == [0.001, 0.1]

    def test_tent_distance_at_sharp_end(self, ladder_rows):
        assert ladder_rows[-1].dist_tent <= 0.05

    def test_expectation_approaches_tent_mean(self, ladder_rows):
        assert ladder_rows[-1].expectation == pytest.approx(4.0, abs=0.02)

    def test_gap_entries_small(self, ladder_rows):
        for row in ladder_rows:
            assert abs(row.gap) <= 1e-6 * max(1.0, abs(row.primal))

    def test_distance_nonincreasing(self, ladder_rows):
        dist = [r.dist_tent for r in ladder_rows]
        assert all(b <= a + 1e-3 for a, b in zip(dist, dist[1:]))

    def test_constraint_suite_per_row(self, ladder_rows):
        for row in ladder_rows:
            assert row.mass_err <= 1e-8
            # slope ceiling is exceeded by O(eps) at this width, and the
            # excess must die out along the ladder
            assert row.sup_slope <= 1.0 * (1.0 + 2.0 * row.epsilon)

    def test_endpoint_pins(self, ladder_rows):
        assert ladder_rows[-1].support_endpoint == pytest.approx(
            2.9983053943896265, rel=1e-10)
        assert ladder_rows[-1].expectation == pytest.approx(
            3.999551400460776, rel=1e-10)

    def test_mirrored_sweep(self):
        rows = epsilon_sweep(SPEC_II, (0.01, 0.001))
        assert all(r.ok for r in rows)
        assert rows[-1].support_endpoint == pytest.approx(-2.9983, abs=1e-4)
        assert rows[-1].expectation == pytest.approx(-4.0, abs=0.02)
        assert rows[-1].dist_tent <= 0.05

    @pytest.mark.parametrize("eps,message", [
        (float("nan"), "nan is not finite"), (float("inf"), "inf is not finite"),
        (float("-inf"), "-inf is not finite")], ids=["nan", "inf", "-inf"])
    def test_bad_epsilon_is_named(self, eps, message):
        # A non-finite epsilon is not below the floor: the message says
        # which it is, before any row is solved.
        with pytest.raises(ValueError, match=message):
            epsilon_sweep(SPEC_I, (0.1, eps))

    def test_subfloor_epsilon_is_a_flagged_row(self):
        # The rows around it are solved, in input order.
        rows = epsilon_sweep(SPEC_I, (0.1, 1e-7, 0.01))
        assert [r.ok for r in rows] == [True, False, True]
        assert rows[1].epsilon == 1e-7
        assert rows[1].error == ("ValueError: epsilon 1e-07 below the "
                                 "supported floor 1e-06")
        assert rows[1].expectation is None

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            epsilon_sweep(SPEC_I, ())

    def test_sharp_infeasible_raises_upfront(self):
        narrow = uniform_spec((6.0, 8.0), (0.0, 1.5), "I", 1.0)
        with pytest.raises(CapacityError):
            epsilon_sweep(narrow, (0.01,))

    def test_per_row_failure_captured(self, monkeypatch):
        real = sweep_mod.assemble_density

        def flaky(spec, epsilon):
            if epsilon == 0.01:
                raise DomainError("injected failure")
            return real(spec, epsilon)

        monkeypatch.setattr(sweep_mod, "assemble_density", flaky)
        rows = epsilon_sweep(SPEC_I, (0.1, 0.01, 0.001))
        assert [r.ok for r in rows] == [True, False, True]
        bad = rows[1]
        assert "DomainError" in bad.error and "injected" in bad.error
        assert bad.constant is None and bad.dist_tent is None
        assert bad.epsilon == 0.01


class TestCsv:
    def test_header_and_shape(self, ladder_rows):
        lines = rows_to_csv(ladder_rows).splitlines()
        assert lines[0] == ("epsilon,constant,support_endpoint,mass_err,"
                            "sup_slope,expectation,primal,dual,gap,"
                            "dist_tent,ms,error")
        assert len(lines) == 1 + len(ladder_rows)

    def test_ms_column_empty(self, ladder_rows):
        for line in rows_to_csv(ladder_rows).splitlines()[1:]:
            assert line.split(",")[10] == ""

    def test_round_trips_through_repr(self, ladder_rows):
        cells = rows_to_csv(ladder_rows).splitlines()[-1].split(",")
        row = ladder_rows[-1]
        assert float(cells[0]) == row.epsilon
        assert float(cells[1]) == row.constant
        assert float(cells[9]) == row.dist_tent

    def test_bit_identical_across_runs(self, ladder_rows):
        again = epsilon_sweep(SPEC_I, LADDER)
        assert rows_to_csv(again) == rows_to_csv(ladder_rows)

    def test_failed_row_serialization(self):
        text = rows_to_csv([_row(0.01, None, error="CapacityError: too thin")])
        # Every numeric cell of a failed row is empty.
        assert text.splitlines()[1] == "0.01" + "," * 11 + "CapacityError: too thin"


class TestConvergenceReport:
    def test_ladder_summary(self, ladder_rows):
        rep = convergence_report(ladder_rows)
        assert rep.n_rows == rep.n_success == 3
        assert rep.distance_order > 0.0
        assert rep.slope_note == ""
        # the free endpoint rises to the tent's 3 from below: the support
        # contracts onto [3, 5]
        assert rep.endpoint_trend == "nondecreasing"
        assert rep.expectation_trend == "nondecreasing"
        assert rep.largest_gap <= 1e-6

    def test_observed_order_near_linear(self, ladder_rows):
        # the tent distance shrinks like the smoothing parameter itself
        rep = convergence_report(ladder_rows)
        assert rep.distance_order == pytest.approx(1.0, abs=0.1)

    def test_single_row_insufficient(self):
        with pytest.raises(InsufficientRows):
            convergence_report([_row(0.1, 0.05)])

    def test_failures_do_not_count(self):
        rows = [_row(0.1, 0.05), _row(0.01, None, error="boom")]
        with pytest.raises(InsufficientRows, match="got 1"):
            convergence_report(rows)

    def test_duplicate_epsilons_flagged(self):
        rows = [_row(0.1, 0.05), _row(0.1, 0.04)]
        rep = convergence_report(rows)
        assert rep.distance_order is None
        assert "duplicate" in rep.slope_note

    def test_zero_distances_flagged(self):
        rows = [_row(0.1, 0.0), _row(0.01, 0.0)]
        rep = convergence_report(rows)
        assert rep.distance_order is None
        assert "positive distances" in rep.slope_note

    def test_mixed_trend_detected(self):
        rows = [_row(0.1, 0.3, expect=4.1), _row(0.05, 0.2, expect=3.9),
                _row(0.01, 0.1, expect=4.05)]
        rep = convergence_report(rows)
        assert rep.expectation_trend == "mixed"
        assert rep.endpoint_trend == "constant"

    @pytest.mark.parametrize("wiggle,trend", [(1e-9, "mixed"), (1e-13, "constant")])
    def test_trend_slack_is_rounding_sized(self, wiggle, trend):
        # The trends forgive steps of 1e-12, rounding on values of order
        # one, and no more: a 1e-9 wiggle is a real one.
        rows = [_row(0.1, 0.3, expect=4.0), _row(0.05, 0.2, expect=4.0 + wiggle),
                _row(0.01, 0.1, expect=4.0)]
        assert convergence_report(rows).expectation_trend == trend

    def test_report_sorts_by_epsilon(self):
        # rows arriving ascending still read as a descending ladder
        rows = [_row(0.01, 0.1, endpoint=3.0), _row(0.1, 0.2, endpoint=3.1)]
        rep = convergence_report(rows)
        assert rep.endpoint_trend == "nonincreasing"
        assert rep.distance_order > 0.0

    def test_largest_gap_is_abs_max(self):
        rows = [_row(0.1, 0.2, gap=-3e-7), _row(0.01, 0.1, gap=1e-8)]
        assert convergence_report(rows).largest_gap == pytest.approx(3e-7)
