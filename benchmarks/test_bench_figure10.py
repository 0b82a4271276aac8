"""Bench E3 — paper Figure 10: WordCount, 1 GB input, 1 job, 4/6/8 nodes."""

from __future__ import annotations

from .figure_harness import assert_figure_shape, print_figure, regenerate_figure

FIGURE_ID = "figure10"
DESCRIPTION = "Input: 1GB; #jobs: 1"


def test_bench_figure10(benchmark):
    run = benchmark(regenerate_figure, FIGURE_ID)
    print_figure(FIGURE_ID, DESCRIPTION, run)
    assert_figure_shape(run)
