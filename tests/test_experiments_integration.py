"""End-to-end tests: the paper's figure grids through simulator and model."""

from __future__ import annotations

import pytest

from repro.api import PredictionService, Scenario
from repro.api.dashboard import run_dashboard
from repro.api.figures import (
    FIGURE_DEFINITIONS,
    FIGURE_SERIES,
    figure_definition,
    figure_suite,
)
from repro.exceptions import ExperimentError
from repro.units import gigabytes, megabytes


class TestFigureDefinitions:
    def test_all_six_figures_defined(self):
        assert set(FIGURE_DEFINITIONS) == {
            "figure10", "figure11", "figure12", "figure13", "figure14", "figure15",
        }

    def test_grids_match_paper(self):
        fig10 = figure_definition("figure10")
        assert fig10.node_counts == (4, 6, 8)
        assert fig10.num_jobs_values == (1,)
        assert fig10.input_size_bytes == gigabytes(1)
        fig14 = figure_definition("figure14")
        assert fig14.num_jobs_values == (1, 2, 3, 4)
        assert fig14.node_counts == (4,)
        fig15 = figure_definition("figure15")
        assert fig15.block_size_bytes == megabytes(64)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ExperimentError):
            figure_definition("figure99")

    def test_grid_alignment(self):
        for definition in FIGURE_DEFINITIONS.values():
            assert len(definition.grid()) == len(definition.x_values())


class TestExperimentPoint:
    def test_point_produces_measurement_and_estimates(self):
        scenario = Scenario(
            input_size_bytes=gigabytes(1), num_nodes=4, num_reduces=2, repetitions=1, seed=5
        )
        service = PredictionService(backends=list(FIGURE_SERIES.values()))
        results = service.evaluate_many(scenario, list(FIGURE_SERIES.values()))
        measured = results["simulator"].total_seconds
        forkjoin = results["mva-forkjoin"].total_seconds
        tripathi = results["mva-tripathi"].total_seconds
        assert measured > 0 and forkjoin > 0 and tripathi > 0
        # Both estimates stay within a factor of two of the measurement
        # (the paper's errors are far smaller; this is a sanity band).
        assert abs(forkjoin - measured) < measured
        assert abs(tripathi - measured) < measured
        assert tripathi >= forkjoin


class TestFigureRun:
    def test_figure10_series_shape(self):
        run = run_dashboard(
            figure_suite("figure10", repetitions=1, base_seed=3),
            backends=tuple(FIGURE_SERIES.values()),
        )
        measured = run.outcome.result.series("simulator")
        assert len(measured) == 3
        # Response times must not grow when nodes are added.
        assert measured[-1] <= measured[0] * 1.10
        assert run.report.backend("mva-forkjoin").max_abs < 0.6
