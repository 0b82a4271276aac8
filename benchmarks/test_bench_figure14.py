"""Bench E7 — paper Figure 14: WordCount, 5 GB input, 4 nodes, 1..4 concurrent jobs."""

from __future__ import annotations

from .figure_harness import assert_figure_shape, print_figure, regenerate_figure

FIGURE_ID = "figure14"
DESCRIPTION = "#Nodes: 4; Input: 5GB"


def test_bench_figure14(benchmark):
    run = benchmark(regenerate_figure, FIGURE_ID)
    print_figure(FIGURE_ID, DESCRIPTION, run)
    assert_figure_shape(run)
    # Response time rises steeply from 1 to 4 concurrent jobs (paper Figure 14).
    measured = run.outcome.result.series("simulator")
    assert measured[-1] > measured[0] * 1.4
