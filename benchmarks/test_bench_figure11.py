"""Bench E4 — paper Figure 11: WordCount, 1 GB input, 4 concurrent jobs, 4/6/8 nodes."""

from __future__ import annotations

from .figure_harness import assert_figure_shape, print_figure, regenerate_figure

FIGURE_ID = "figure11"
DESCRIPTION = "Input: 1GB; #jobs: 4"


def test_bench_figure11(benchmark):
    run = benchmark(regenerate_figure, FIGURE_ID)
    print_figure(FIGURE_ID, DESCRIPTION, run)
    assert_figure_shape(run)
