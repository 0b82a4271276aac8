"""Evaluation harness: the experiments of the paper's Section 5.

:mod:`repro.experiments.runner` evaluates experiment points through the
unified prediction API (simulate the workload, evaluate both model variants,
compute errors); :mod:`repro.experiments.figures` regenerates the series of
every figure of the paper, whose grids :mod:`repro.api.figures` defines as
:class:`~repro.api.ScenarioSuite` objects.
"""

from .runner import (
    ExperimentPoint,
    ExperimentSeries,
    run_experiment_point,
    run_series,
    run_suite_series,
    scenario_for_workload,
)
from ..api.figures import (
    FIGURE_DEFINITIONS,
    FigureDefinition,
    figure_definition,
    figure_suite,
)
from .figures import run_figure

__all__ = [
    "ExperimentPoint",
    "ExperimentSeries",
    "run_experiment_point",
    "run_series",
    "run_suite_series",
    "scenario_for_workload",
    "FIGURE_DEFINITIONS",
    "FigureDefinition",
    "figure_definition",
    "figure_suite",
    "run_figure",
]
