"""Bench E8 — paper Figure 15: 64 MB blocks, 5 GB input, 1 job, 4/6/8 nodes.

Halving the block size doubles the number of map tasks; the paper observes
the estimation error growing relative to the 128 MB configuration
(Figure 12), because the precedence tree gets deeper.
"""

from __future__ import annotations

from .figure_harness import assert_figure_shape, print_figure, regenerate_figure

FIGURE_ID = "figure15"
DESCRIPTION = "Block: 64MB; Input: 5GB; #jobs: 1"


def test_bench_figure15(benchmark):
    run = benchmark(regenerate_figure, FIGURE_ID)
    print_figure(FIGURE_ID, DESCRIPTION, run)
    assert_figure_shape(run, max_mean_abs_error=0.6)
    # Compare against the 128 MB configuration (Figure 12): the mean signed
    # error must not shrink when the block size is halved.
    fine = run.report.backend("mva-forkjoin")
    coarse = regenerate_figure("figure12").report.backend("mva-forkjoin")
    assert fine.mean_signed >= coarse.mean_signed - 0.05
