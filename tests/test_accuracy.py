"""Tests for the accuracy statistics (:mod:`repro.analysis.accuracy`).

Pins the error-band computation the dashboard is built on: aggregates and
percentile bands over known error lists, worst-case attribution, the
per-phase breakdown, and the degradation contract — zero-duration phases and
non-positive baselines are skipped (counted, never raising) and a backend
missing from some rows degrades to ``incomplete`` instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.analysis.accuracy import (
    AccuracyReport,
    compute_accuracy,
    compute_backend_accuracy,
    percentile,
)
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class FakeResult:
    """Minimal structural stand-in for a prediction result."""

    total_seconds: float
    phases: dict[str, float] = field(default_factory=dict)


def labels(count: int) -> list[str]:
    return [f"scenario-{index}" for index in range(count)]


class TestPercentile:
    def test_interpolates_linearly(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)

    def test_order_independent(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7.0], 0.9) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            percentile([], 0.5)

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValidationError):
            percentile([1.0], 1.5)


class TestBackendAccuracy:
    def test_known_errors_aggregate(self):
        baselines = [FakeResult(100.0), FakeResult(100.0), FakeResult(100.0)]
        estimates = [FakeResult(110.0), FakeResult(90.0), FakeResult(130.0)]
        accuracy = compute_backend_accuracy(
            "stub", estimates, baselines, labels(3), baseline="sim"
        )
        assert accuracy.status == "ok"
        assert accuracy.count == 3
        assert accuracy.mean_abs == pytest.approx((0.1 + 0.1 + 0.3) / 3)
        assert accuracy.max_abs == pytest.approx(0.3)
        assert accuracy.mean_signed == pytest.approx((0.1 - 0.1 + 0.3) / 3)
        assert accuracy.percentiles["p100"] == pytest.approx(0.3)
        assert accuracy.percentiles["p50"] == pytest.approx(0.1)

    def test_worst_case_identifies_the_scenario(self):
        baselines = [FakeResult(100.0), FakeResult(50.0)]
        estimates = [FakeResult(105.0), FakeResult(30.0)]  # +5% vs -40%
        accuracy = compute_backend_accuracy(
            "stub", estimates, baselines, ["small", "large"], baseline="sim"
        )
        assert accuracy.worst is not None
        assert accuracy.worst.scenario == "large"
        assert accuracy.worst.index == 1
        assert accuracy.worst.error == pytest.approx(-0.4)
        assert accuracy.worst.estimate_seconds == 30.0
        assert accuracy.worst.baseline_seconds == 50.0

    def test_phase_breakdown(self):
        baselines = [FakeResult(100.0, {"map": 50.0, "merge": 50.0})]
        estimates = [FakeResult(100.0, {"map": 60.0, "merge": 45.0})]
        accuracy = compute_backend_accuracy(
            "stub", estimates, baselines, labels(1), baseline="sim"
        )
        by_name = {phase.phase: phase for phase in accuracy.phases}
        assert by_name["map"].mean_signed == pytest.approx(0.2)
        assert by_name["merge"].mean_signed == pytest.approx(-0.1)

    def test_zero_duration_phase_is_skipped_not_divided(self):
        baselines = [FakeResult(100.0, {"map": 50.0, "shuffle-sort": 0.0})]
        estimates = [FakeResult(100.0, {"map": 50.0, "shuffle-sort": 10.0})]
        accuracy = compute_backend_accuracy(
            "stub", estimates, baselines, labels(1), baseline="sim"
        )
        by_name = {phase.phase: phase for phase in accuracy.phases}
        assert by_name["shuffle-sort"].count == 0
        assert by_name["shuffle-sort"].skipped == 1
        assert by_name["shuffle-sort"].mean_abs is None
        assert by_name["map"].count == 1

    def test_phase_missing_from_estimate_counts_as_zero_prediction(self):
        baselines = [FakeResult(100.0, {"map": 50.0, "shuffle-sort": 20.0})]
        estimates = [FakeResult(100.0, {"map": 50.0})]
        accuracy = compute_backend_accuracy(
            "stub", estimates, baselines, labels(1), baseline="sim"
        )
        by_name = {phase.phase: phase for phase in accuracy.phases}
        assert by_name["shuffle-sort"].mean_signed == pytest.approx(-1.0)

    def test_phase_the_backend_does_not_model_is_not_scored(self):
        baselines = [FakeResult(100.0, {"map": 50.0, "shuffle-sort": 20.0})]
        estimates = [FakeResult(100.0, {"map": 50.0, "shuffle-sort": 0.0})]
        accuracy = compute_backend_accuracy(
            "stub", estimates, baselines, labels(1), baseline="sim", phases=("map",)
        )
        assert [phase.phase for phase in accuracy.phases] == ["map"]

    def test_non_positive_baseline_total_is_skipped(self):
        baselines = [FakeResult(0.0), FakeResult(100.0)]
        estimates = [FakeResult(10.0), FakeResult(110.0)]
        accuracy = compute_backend_accuracy(
            "stub", estimates, baselines, labels(2), baseline="sim"
        )
        assert accuracy.skipped_points == 1
        assert accuracy.count == 1
        assert accuracy.mean_abs == pytest.approx(0.1)

    def test_missing_points_degrade_to_incomplete(self):
        baselines = [FakeResult(100.0), FakeResult(100.0)]
        estimates = [FakeResult(120.0), None]
        accuracy = compute_backend_accuracy(
            "stub", estimates, baselines, labels(2), baseline="sim"
        )
        assert accuracy.status == "incomplete"
        assert accuracy.missing_points == 1
        assert accuracy.count == 1
        assert accuracy.mean_abs == pytest.approx(0.2)

    def test_entirely_missing_backend_has_no_stats_and_does_not_crash(self):
        baselines = [FakeResult(100.0)]
        accuracy = compute_backend_accuracy(
            "stub", [None], baselines, labels(1), baseline="sim"
        )
        assert accuracy.status == "incomplete"
        assert accuracy.count == 0
        assert accuracy.mean_abs is None
        assert accuracy.worst is None
        assert accuracy.phases == ()

    def test_missing_baseline_row_counts_as_missing(self):
        # A simulator-only store probed for another backend — or the inverse:
        # the baseline itself absent — must degrade, not raise.
        accuracy = compute_backend_accuracy(
            "stub", [FakeResult(100.0)], [None], labels(1), baseline="sim"
        )
        assert accuracy.status == "incomplete"
        assert accuracy.missing_points == 1

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValidationError):
            compute_backend_accuracy("stub", [None], [], labels(1), baseline="sim")


class TestComputeAccuracy:
    def rows(self):
        return [
            {"sim": FakeResult(100.0), "stub": FakeResult(110.0)},
            {"sim": FakeResult(200.0), "stub": FakeResult(180.0)},
        ]

    def test_report_covers_every_backend_including_the_baseline(self):
        report = compute_accuracy(
            "grid", self.rows(), ["sim", "stub"], labels(2), baseline="sim"
        )
        assert report.backend_names() == ["sim", "stub"]
        assert report.backend("sim").status == "baseline"
        assert report.backend("sim").mean_abs == pytest.approx(0.0)
        assert report.backend("stub").mean_abs == pytest.approx(0.1)
        assert report.complete

    def test_simulator_only_rows_degrade_other_backends(self):
        rows = [{"sim": FakeResult(100.0)}, {"sim": FakeResult(200.0)}]
        report = compute_accuracy(
            "grid", rows, ["sim", "stub"], labels(2), baseline="sim"
        )
        assert report.backend("stub").status == "incomplete"
        assert report.backend("stub").missing_points == 2
        assert not report.complete

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValidationError):
            compute_accuracy("grid", self.rows(), ["stub"], labels(2), baseline="sim")

    def test_unknown_backend_lookup_rejected(self):
        report = compute_accuracy(
            "grid", self.rows(), ["sim", "stub"], labels(2), baseline="sim"
        )
        with pytest.raises(ValidationError):
            report.backend("nope")

    def test_dict_round_trip(self):
        report = compute_accuracy(
            "grid", self.rows(), ["sim", "stub"], labels(2), baseline="sim"
        )
        rebuilt = AccuracyReport.from_dict(report.to_dict())
        assert rebuilt == report
