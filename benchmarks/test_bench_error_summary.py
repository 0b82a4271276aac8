"""Bench E9 — Section 5.2 error summary and the Hadoop 1.x baseline comparison.

The paper summarises its evaluation as: the fork/join variant estimates the
average job response time within 11–13.5 %, the Tripathi variant within
19–23 %, both over-estimating, and the new model improves on the ~15 %
single-job error of the Vianna et al. Hadoop 1.x model it extends.

This bench aggregates the errors over the single-job figures (10 and 12),
prints the summary, and checks the qualitative claims: the fork/join variant
is the more accurate of the two, and the Hadoop 1.x baseline (static slots +
literal fork/join premium) is no more accurate than the new fork/join model.
"""

from __future__ import annotations

from repro.analysis import relative_error, summarize_errors
from repro.static_models import ViannaHadoop1Model
from repro.units import gigabytes, megabytes
from repro.workloads import model_input_from_profile, paper_cluster, wordcount_profile

from .figure_harness import regenerate_figure


def collect_errors():
    """Errors of both estimators plus the Vianna baseline over figures 10 and 12."""
    forkjoin_errors: list[float] = []
    tripathi_errors: list[float] = []
    vianna_errors: list[float] = []
    profile = wordcount_profile()
    for figure_id, input_bytes in (("figure10", gigabytes(1)), ("figure12", gigabytes(5))):
        run = regenerate_figure(figure_id)
        measured = run.outcome.result.series("simulator")
        for name, errors in (
            ("mva-forkjoin", forkjoin_errors),
            ("mva-tripathi", tripathi_errors),
        ):
            estimates = run.outcome.result.series(name)
            errors.extend(map(relative_error, estimates, measured))
        for scenario, measured_seconds in zip(run.suite.scenarios, measured):
            cluster = paper_cluster(scenario.num_nodes)
            job_config = profile.job_config(input_bytes, megabytes(128), 4)
            model_input = model_input_from_profile(profile, cluster, job_config, num_jobs=1)
            baseline = ViannaHadoop1Model(
                model_input,
                map_slots_per_node=2,
                reduce_slots_per_node=2,
            ).predict()
            vianna_errors.append(
                (baseline.job_response_time - measured_seconds) / measured_seconds
            )
    return forkjoin_errors, tripathi_errors, vianna_errors


def test_bench_error_summary(benchmark):
    forkjoin_errors, tripathi_errors, vianna_errors = benchmark(collect_errors)
    forkjoin = summarize_errors(forkjoin_errors)
    tripathi = summarize_errors(tripathi_errors)
    vianna = summarize_errors(vianna_errors)
    print()
    print("=== Error summary over the single-job experiments (Figures 10 and 12) ===")
    print("paper:   fork/join 11-13.5 %   Tripathi 19-23 %   Vianna (Hadoop 1.x) ~15 %")
    for name, summary in (("fork/join", forkjoin), ("tripathi", tripathi), ("vianna", vianna)):
        print(
            f"{name:9s}: mean |error| {100 * summary.mean_absolute:5.1f} %  "
            f"max |error| {100 * summary.max_absolute:5.1f} %  "
            f"mean signed {100 * summary.mean_signed:+6.1f} %"
        )
    # Qualitative claims of the paper.
    assert forkjoin.mean_absolute <= tripathi.mean_absolute + 1e-9
    assert tripathi.mean_signed >= forkjoin.mean_signed
    assert forkjoin.mean_absolute <= vianna.mean_absolute + 0.02
    # Errors stay within a sane band around the measurement.
    assert forkjoin.mean_absolute < 0.35
    assert tripathi.mean_absolute < 0.45
