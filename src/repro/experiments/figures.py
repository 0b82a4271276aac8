"""The paper's evaluation figures (Section 5.2).

The figure grids (``FigureDefinition``, ``figure_suite``) are defined in
:mod:`repro.api.figures`, next to the dashboard grids built from them, and
re-exported by :mod:`repro.experiments`.  ``run_figure`` regenerates the
three series of a figure (measured / fork-join / Tripathi) using the
experiment runner.  The bench scripts under ``benchmarks/`` print these
series and check the qualitative shape.
"""

from __future__ import annotations

from ..api import BaseResultStore, PredictionService
from ..api.figures import DEFAULT_BASE_SEED, DEFAULT_REDUCES, figure_definition, figure_suite
from .runner import ExperimentSeries, run_suite_series


def run_figure(
    figure_id: str,
    repetitions: int = 3,
    base_seed: int = DEFAULT_BASE_SEED,
    duration_cv: float = 0.3,
    num_reduces: int = DEFAULT_REDUCES,
    store: BaseResultStore | str | None = None,
    execution: str | None = None,
    service: PredictionService | None = None,
) -> ExperimentSeries:
    """Regenerate the series of one figure of the paper.

    ``store`` points the underlying service at a persistent result store, so
    an interrupted figure run resumes from the completed points; ``execution``
    picks the fan-out strategy (``"process"`` uses every core for the
    simulator points).  An explicit ``service`` takes precedence over both.
    """
    definition = figure_definition(figure_id)
    suite = figure_suite(
        figure_id,
        repetitions=repetitions,
        base_seed=base_seed,
        duration_cv=duration_cv,
        num_reduces=num_reduces,
    )
    return run_suite_series(
        suite,
        definition.x_label,
        definition.x_values(),
        service=service,
        store=store,
        execution=execution,
    )
