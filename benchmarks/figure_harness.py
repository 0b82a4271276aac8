"""Shared helpers for the figure-reproduction benchmarks.

Every ``test_bench_figureNN`` module regenerates one figure of the paper's
evaluation: it runs the figure's grid through the accuracy dashboard
(:func:`repro.api.dashboard.run_dashboard`) over the backends of
:data:`repro.api.figures.FIGURE_SERIES` — the YARN simulator (the
"HadoopSetup" series) and the fork/join and Tripathi model variants — prints
the same series the paper plots with each estimator's error band from the
dashboard's report, and asserts the qualitative shape (both models track the
measurement, the Tripathi estimate lies above the fork/join estimate,
response times do not increase with more nodes / do not decrease with more
jobs).
"""

from __future__ import annotations

from repro.analysis import format_series_table
from repro.api.dashboard import DashboardRun, run_dashboard
from repro.api.figures import FIGURE_SERIES, figure_definition, figure_suite
from repro.core import EstimatorKind

#: One repetition keeps the benches fast; ``figure_suite`` supports more.
BENCH_REPETITIONS = 1
BENCH_SEED = 2017


def regenerate_figure(figure_id: str) -> DashboardRun:
    """Run the workload grid of one figure with bench-friendly settings."""
    return run_dashboard(
        figure_suite(figure_id, repetitions=BENCH_REPETITIONS, base_seed=BENCH_SEED),
        backends=tuple(FIGURE_SERIES.values()),
    )


def print_figure(figure_id: str, description: str, run: DashboardRun) -> None:
    """Print the figure's series in the same layout as the paper's plots."""
    definition = figure_definition(figure_id)
    series = {
        label: run.outcome.result.series(name) for label, name in FIGURE_SERIES.items()
    }
    print()
    print(f"=== {figure_id}: {description} ===")
    print(format_series_table(definition.x_label, definition.x_values(), series))
    # The estimators follow the measurement, in EstimatorKind order.
    for kind, name in zip(EstimatorKind, list(FIGURE_SERIES.values())[1:]):
        entry = run.report.backend(name)
        print(
            f"{kind.value:9s}: mean |error| {100 * entry.mean_abs:5.1f} %  "
            f"max |error| {100 * entry.max_abs:5.1f} %  "
            f"mean signed {100 * entry.mean_signed:+5.1f} %"
        )


def assert_figure_shape(run: DashboardRun, max_mean_abs_error: float = 0.45) -> None:
    """Assert the qualitative properties the paper's figures exhibit."""
    result = run.outcome.result
    measured = result.series("simulator")
    forkjoin = result.series("mva-forkjoin")
    tripathi = result.series("mva-tripathi")
    assert all(value > 0 for value in measured + forkjoin + tripathi)
    # The Tripathi estimate lies above the fork/join estimate (paper Sec. 5.2).
    for fj, tr in zip(forkjoin, tripathi):
        assert tr >= fj * 0.98
    # Both model variants track the measurement.
    assert run.report.backend("mva-forkjoin").mean_abs <= max_mean_abs_error
    assert run.report.backend("mva-tripathi").mean_abs <= max_mean_abs_error + 0.15
    if figure_definition(run.suite.name).x_label == "number of nodes":
        # More nodes never hurt (within simulator noise).
        assert measured[-1] <= measured[0] * 1.15
        assert forkjoin[-1] <= forkjoin[0] * 1.10
    else:
        # More concurrent jobs never help.
        assert measured[-1] >= measured[0] * 0.95
        assert forkjoin[-1] >= forkjoin[0] * 0.95
