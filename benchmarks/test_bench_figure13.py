"""Bench E6 — paper Figure 13: WordCount, 5 GB input, 4 concurrent jobs, 4/6/8 nodes."""

from __future__ import annotations

from .figure_harness import assert_figure_shape, print_figure, regenerate_figure

FIGURE_ID = "figure13"
DESCRIPTION = "Input: 5GB; #jobs: 4"


def test_bench_figure13(benchmark):
    run = benchmark(regenerate_figure, FIGURE_ID)
    print_figure(FIGURE_ID, DESCRIPTION, run)
    assert_figure_shape(run)
