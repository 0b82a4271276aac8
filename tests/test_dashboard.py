"""Tests for the accuracy dashboard (:mod:`repro.api.dashboard`).

Covers the named grids, the artifact renderers (JSONL round trip, markdown,
CSV), the committed-baseline gate (pass within tolerance, fail on drift /
missing / incomplete / unbaselined backends), the store-only degradation
mode, and — end to end through the CLI — the regression gate failing with a
nonzero exit when a backend's error band is perturbed by a biased stub.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.accuracy import AccuracyReport, BackendAccuracy, compute_accuracy
from repro.api import PredictionService, Scenario, ScenarioSuite, backend_names
from repro.api.backends import _REGISTRY
from repro.api.dashboard import (
    ARTIFACT_PREFIX,
    DASHBOARD_BACKENDS,
    AccuracyBaseline,
    BaselineBand,
    baseline_from_report,
    compare_to_baseline,
    dashboard_grid,
    paper_grid,
    render_csv,
    render_jsonl,
    render_markdown,
    run_dashboard,
    smoke_grid,
    write_artifacts,
)
from repro.api.results import PredictionResult
from repro.cli import main
from repro.exceptions import ValidationError
from repro.units import megabytes


def parse_jsonl(text: str) -> AccuracyReport:
    """Rebuild a report from :func:`render_jsonl` output."""
    header, *entries = [json.loads(line) for line in text.splitlines() if line.strip()]
    assert header["record"] == "report"
    assert all(entry["record"] == "backend" for entry in entries)
    return AccuracyReport(
        grid=header["grid"],
        baseline=header["baseline"],
        num_scenarios=header["num_scenarios"],
        backends=tuple(BackendAccuracy.from_dict(entry) for entry in entries),
        format_version=header["format"],
    )


def _register_stub(name: str, cls) -> None:
    cls.name = name
    _REGISTRY[name] = cls


@pytest.fixture
def stub_backends():
    """Two throwaway deterministic backends: a 'measured' one and a predictor.

    ``StubPredictor.bias`` is a knob the gate tests turn to inject a biased
    backend; bump ``StubPredictor.version`` alongside it so a persistent
    store treats the old records as stale (exactly what a real backend change
    must do).
    """

    class StubMeasured:
        def predict(self, scenario):
            return PredictionResult(
                backend=type(self).name,
                scenario=scenario,
                total_seconds=10.0 * scenario.num_nodes,
                phases={"map": 6.0 * scenario.num_nodes, "merge": 4.0 * scenario.num_nodes},
            )

    class StubPredictor:
        bias = 1.1
        version = 1

        def predict(self, scenario):
            return PredictionResult(
                backend=type(self).name,
                scenario=scenario,
                total_seconds=type(self).bias * 10.0 * scenario.num_nodes,
                phases={"map": type(self).bias * 6.0 * scenario.num_nodes},
            )

    _register_stub("dash-measured", StubMeasured)
    _register_stub("dash-predictor", StubPredictor)
    try:
        yield StubMeasured, StubPredictor
    finally:
        _REGISTRY.pop("dash-measured", None)
        _REGISTRY.pop("dash-predictor", None)


SUITE = ScenarioSuite.from_sweep(
    "stub-grid",
    Scenario(input_size_bytes=megabytes(256), num_reduces=2, repetitions=1),
    num_nodes=[2, 3, 4],
)


def stub_report(stub_backends, **kwargs):
    run = run_dashboard(
        SUITE,
        backends=("dash-measured", "dash-predictor"),
        baseline="dash-measured",
        **kwargs,
    )
    return run


class TestGrids:
    def test_smoke_grid_is_small_and_fast(self):
        suite = smoke_grid()
        assert suite.name == "smoke"
        assert len(suite) == 3
        assert all(scenario.repetitions == 1 for scenario in suite)
        assert {scenario.workload for scenario in suite} == {"wordcount", "grep"}

    def test_paper_grid_is_the_deduplicated_union_of_the_figures(self):
        suite = paper_grid()
        # 6 figures x 3-4 points, minus the two figure-14 points that
        # coincide with figures 12 and 13.
        assert len(suite) == 17
        assert len({scenario.cache_key() for scenario in suite}) == 17
        assert all(scenario.repetitions == 3 for scenario in suite)

    def test_dashboard_grid_lookup_and_overrides(self):
        suite = dashboard_grid("smoke", repetitions=2, base_seed=7)
        assert all(scenario.repetitions == 2 for scenario in suite)
        assert all(scenario.seed == 7 for scenario in suite)

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValidationError):
            dashboard_grid("bogus")

    def test_default_backends_cover_the_whole_registry(self):
        # A newly registered backend must not silently escape the accuracy
        # gate: extend DASHBOARD_BACKENDS (and re-baseline) when this fails.
        assert set(DASHBOARD_BACKENDS) == set(backend_names())
        assert "simulator" in DASHBOARD_BACKENDS


class TestRunDashboard:
    def test_report_covers_both_backends(self, stub_backends):
        run = stub_report(stub_backends)
        assert run.outcome is not None
        assert run.outcome.evaluated_points == 6
        report = run.report
        assert report.grid == "stub-grid"
        assert report.backend_names() == ["dash-measured", "dash-predictor"]
        assert report.backend("dash-predictor").mean_abs == pytest.approx(0.1)
        assert report.backend("dash-measured").status == "baseline"
        assert report.complete

    def test_baseline_prepended_when_absent_from_backends(self, stub_backends):
        run = run_dashboard(
            SUITE, backends=("dash-predictor",), baseline="dash-measured"
        )
        assert run.report.backend_names() == ["dash-measured", "dash-predictor"]

    def test_store_only_mode_degrades_missing_backend(self, stub_backends, tmp_path):
        store_path = tmp_path / "store"
        seeded = PredictionService(backends=["dash-measured"], store=store_path)
        seeded.evaluate_suite(SUITE, ["dash-measured"])
        run = run_dashboard(
            SUITE,
            backends=("dash-measured", "dash-predictor"),
            baseline="dash-measured",
            store=store_path,
            evaluate=False,
        )
        assert run.outcome is None
        report = run.report
        assert report.backend("dash-measured").status == "baseline"
        assert report.backend("dash-measured").count == 3
        predictor = report.backend("dash-predictor")
        assert predictor.status == "incomplete"
        assert predictor.count == 0
        assert predictor.missing_points == 3
        assert not report.complete
        # Nothing was evaluated: the missing backend stayed missing.
        assert run.outcome is None

    def test_incomplete_report_always_violates_the_gate(self, stub_backends, tmp_path):
        store_path = tmp_path / "store"
        PredictionService(backends=["dash-measured"], store=store_path).evaluate_suite(
            SUITE, ["dash-measured"]
        )
        run = run_dashboard(
            SUITE,
            backends=("dash-measured", "dash-predictor"),
            baseline="dash-measured",
            store=store_path,
            evaluate=False,
        )
        baseline = AccuracyBaseline(
            grid="stub-grid",
            baseline="dash-measured",
            bands={
                "dash-measured": BaselineBand(mean_abs=0.0, max_abs=0.0),
                "dash-predictor": BaselineBand(mean_abs=0.1, max_abs=0.1),
            },
        )
        violations = compare_to_baseline(run.report, baseline)
        assert [violation.kind for violation in violations] == ["incomplete"]

    def test_partially_missing_backend_still_violates_the_gate(
        self, stub_backends, tmp_path
    ):
        # The predictor answered 2 of 3 points, and the partial stats happen
        # to match the committed band exactly — the gate must still fail:
        # band statistics over a partial grid are not the baselined ones.
        store_path = tmp_path / "store"
        service = PredictionService(
            backends=["dash-measured", "dash-predictor"], store=store_path
        )
        service.evaluate_suite(SUITE, ["dash-measured"])
        service.evaluate_suite(
            ScenarioSuite("partial", SUITE.scenarios[:2]), ["dash-predictor"]
        )
        run = run_dashboard(
            SUITE,
            backends=("dash-measured", "dash-predictor"),
            baseline="dash-measured",
            store=store_path,
            evaluate=False,
        )
        predictor = run.report.backend("dash-predictor")
        assert predictor.status == "incomplete"
        assert predictor.count == 2
        assert predictor.mean_abs == pytest.approx(0.1)
        baseline = AccuracyBaseline(
            grid="stub-grid",
            baseline="dash-measured",
            bands={
                "dash-measured": BaselineBand(mean_abs=0.0, max_abs=0.0),
                "dash-predictor": BaselineBand(mean_abs=0.1, max_abs=0.1),
            },
        )
        violations = compare_to_baseline(run.report, baseline)
        assert [violation.kind for violation in violations] == ["incomplete"]


class TestRenderers:
    def test_jsonl_round_trip(self, stub_backends):
        report = stub_report(stub_backends).report
        text = render_jsonl(report)
        lines = text.strip().splitlines()
        assert len(lines) == 3  # header + two backends
        header = json.loads(lines[0])
        assert header["record"] == "report"
        assert header["format"] == report.format_version
        assert parse_jsonl(text) == report

    def test_markdown_mentions_every_backend_and_worst_case(self, stub_backends):
        report = stub_report(stub_backends).report
        text = render_markdown(report)
        assert "| dash-measured | baseline |" in text
        assert "| dash-predictor | ok |" in text
        assert "Worst-case scenarios" in text
        assert "Per-phase mean |error|" in text

    def test_csv_has_one_row_per_backend_and_quotes_commas(self):
        rows = [
            {
                "sim": PredictionResult("sim", SUITE.scenarios[0], 100.0),
                "stub": PredictionResult("stub", SUITE.scenarios[0], 120.0),
            }
        ]
        report = compute_accuracy(
            "grid", rows, ["sim", "stub"], ['tricky, "label"'], baseline="sim"
        )
        text = render_csv(report)
        lines = text.strip().splitlines()
        assert len(lines) == 3  # header + two backends
        assert lines[0].startswith("grid,backend,status,")
        assert '"tricky, ""label"""' in lines[2]

    def test_write_artifacts_creates_all_three_files(self, stub_backends, tmp_path):
        report = stub_report(stub_backends).report
        paths = write_artifacts(report, tmp_path / "out")
        assert sorted(paths) == ["csv", "jsonl", "markdown"]
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0
        assert parse_jsonl(paths["jsonl"].read_text()) == report


class TestBaselineGate:
    def make_baseline(self, stub_backends) -> AccuracyBaseline:
        report = stub_report(stub_backends).report
        return baseline_from_report(report)

    def test_round_trip_and_snapshot(self, stub_backends):
        baseline = self.make_baseline(stub_backends)
        assert set(baseline.bands) == {"dash-measured", "dash-predictor"}
        rebuilt = AccuracyBaseline.from_json(baseline.to_json())
        assert rebuilt == baseline

    def test_load_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError):
            AccuracyBaseline.load(tmp_path / "absent.json")

    def test_fresh_run_passes_its_own_baseline(self, stub_backends):
        baseline = self.make_baseline(stub_backends)
        assert compare_to_baseline(stub_report(stub_backends).report, baseline) == []

    def test_drift_within_tolerance_passes(self, stub_backends):
        _, predictor = stub_backends
        baseline = self.make_baseline(stub_backends)
        predictor.bias = 1.11  # +1 point of error, tolerance is 2
        assert compare_to_baseline(stub_report(stub_backends).report, baseline) == []

    def test_drift_beyond_tolerance_fails_both_bands(self, stub_backends):
        _, predictor = stub_backends
        baseline = self.make_baseline(stub_backends)
        predictor.bias = 1.5
        violations = compare_to_baseline(stub_report(stub_backends).report, baseline)
        kinds = {violation.kind for violation in violations}
        assert kinds == {"mean-abs-drift", "max-abs-drift"}
        assert all(violation.backend == "dash-predictor" for violation in violations)

    def test_improvement_beyond_tolerance_also_fails(self, stub_backends):
        _, predictor = stub_backends
        baseline = self.make_baseline(stub_backends)
        predictor.bias = 1.0  # now perfect: 10 points better than committed
        violations = compare_to_baseline(stub_report(stub_backends).report, baseline)
        assert {violation.kind for violation in violations} == {
            "mean-abs-drift",
            "max-abs-drift",
        }

    def test_missing_and_unbaselined_backends_fail(self, stub_backends):
        baseline = self.make_baseline(stub_backends)
        report = stub_report(stub_backends).report
        extra = AccuracyBaseline(
            grid=baseline.grid,
            baseline=baseline.baseline,
            bands={**baseline.bands, "ghost": BaselineBand(mean_abs=0.1, max_abs=0.1)},
        )
        assert [v.kind for v in compare_to_baseline(report, extra)] == [
            "missing-backend"
        ]
        trimmed = AccuracyBaseline(
            grid=baseline.grid,
            baseline=baseline.baseline,
            bands={"dash-measured": baseline.bands["dash-measured"]},
        )
        assert [v.kind for v in compare_to_baseline(report, trimmed)] == [
            "unbaselined-backend"
        ]

    def test_grid_and_baseline_mismatches_short_circuit(self, stub_backends):
        report = stub_report(stub_backends).report
        wrong_grid = AccuracyBaseline(grid="other", baseline="dash-measured")
        assert [v.kind for v in compare_to_baseline(report, wrong_grid)] == [
            "grid-mismatch"
        ]
        wrong_ref = AccuracyBaseline(grid="stub-grid", baseline="simulator")
        assert [v.kind for v in compare_to_baseline(report, wrong_ref)] == [
            "baseline-mismatch"
        ]

    def test_baseline_from_incomplete_report_rejected(self):
        report = compute_accuracy("grid", [{}], ["sim", "stub"], ["s"], baseline="sim")
        with pytest.raises(ValidationError):
            baseline_from_report(report)


class TestDashboardCli:
    """The acceptance path: ``repro dashboard`` as CI runs it."""

    def test_smoke_dashboard_covers_all_six_backends(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert (
            main(["dashboard", "--grid", "smoke", "--output", str(out_dir)]) == 0
        )
        captured = capsys.readouterr()
        records = [
            json.loads(line[len(ARTIFACT_PREFIX) :])
            for line in captured.out.splitlines()
            if line.startswith(ARTIFACT_PREFIX)
        ]
        covered = {
            record["backend"] for record in records if record["record"] == "backend"
        }
        assert covered == set(DASHBOARD_BACKENDS)
        report = parse_jsonl((out_dir / "accuracy-dashboard.jsonl").read_text())
        assert report.complete
        assert (out_dir / "accuracy-dashboard.md").exists()
        assert (out_dir / "accuracy-dashboard.csv").exists()

    def test_ci_gate_fails_when_a_backend_is_biased(
        self, stub_backends, tmp_path, capsys
    ):
        _, predictor = stub_backends
        baseline_path = tmp_path / "accuracy-baseline.json"
        args = [
            "dashboard",
            "--grid",
            "smoke",
            "--backend",
            "simulator",
            "--backend",
            "dash-predictor",
            "--store",
            str(tmp_path / "store"),
        ]
        assert main([*args, "--write-baseline", str(baseline_path)]) == 0
        capsys.readouterr()
        # Honest re-run: the gate passes (entirely from the store).
        assert main([*args, "--baseline", str(baseline_path)]) == 0
        assert "accuracy gate passed" in capsys.readouterr().err
        # Inject the bias (new behaviour => new version, store records stale).
        predictor.bias = 1.8
        predictor.version = 2
        assert main([*args, "--baseline", str(baseline_path)]) == 1
        err = capsys.readouterr().err
        assert "drift:" in err
        assert "mean-abs-drift" in err
        assert "accuracy gate FAILED" in err

    def test_write_baseline_skips_gating(self, stub_backends, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "dashboard",
                    "--grid",
                    "smoke",
                    "--backend",
                    "simulator",
                    "--backend",
                    "dash-predictor",
                    "--write-baseline",
                    str(baseline_path),
                    "--tolerance-mean",
                    "0.03",
                ]
            )
            == 0
        )
        baseline = AccuracyBaseline.load(baseline_path)
        assert baseline.grid == "smoke"
        assert baseline.bands["dash-predictor"].tolerance_mean_abs == 0.03
        assert "accuracy baseline written" in capsys.readouterr().err
