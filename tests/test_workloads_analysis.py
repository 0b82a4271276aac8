"""Tests for the workload layer, the analysis helpers, and the CLI."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ascii_series_plot,
    format_series_table,
    format_table,
    relative_error,
    summarize_errors,
)
from repro.cli import main as cli_main
from repro.core import ModelInput, TaskClass
from repro.exceptions import ConfigurationError, ValidationError
from repro.hadoop import ClusterSimulator
from repro.units import gigabytes, megabytes
from repro.workloads import (
    WorkloadSpec,
    generate_concurrent_jobs,
    grep_profile,
    model_input_from_profile,
    model_input_from_trace,
    paper_cluster,
    paper_scheduler,
    terasort_profile,
    wordcount_profile,
)


class TestApplicationProfiles:
    def test_wordcount_selectivities(self):
        profile = wordcount_profile()
        assert profile.map_output_ratio == pytest.approx(0.4)
        assert profile.simulator_profile().map_cpu_seconds_per_mib > 0

    def test_terasort_is_shuffle_heavy(self):
        assert terasort_profile().map_output_ratio == pytest.approx(1.0)

    def test_grep_is_map_heavy(self):
        assert grep_profile().map_output_ratio < 0.1

    def test_job_config_generation(self):
        profile = wordcount_profile()
        config = profile.job_config(gigabytes(1), megabytes(128), 4)
        assert config.num_maps == 8
        assert config.map_output_ratio == profile.map_output_ratio


class TestPaperConfiguration:
    def test_paper_cluster_containers_per_node(self):
        cluster = paper_cluster(4)
        assert cluster.maps_per_node() == 8
        assert cluster.num_nodes == 4

    def test_paper_scheduler_slowstart(self):
        scheduler = paper_scheduler()
        assert scheduler.slowstart_enabled
        assert scheduler.slowstart_completed_maps == pytest.approx(0.05)

    def test_workload_spec_jobs(self):
        spec = WorkloadSpec.wordcount(gigabytes(1), num_jobs=3)
        configs = spec.job_configs()
        assert len(configs) == 3
        assert all(config.submission_time == 0.0 for config in configs)

    def test_generate_concurrent_jobs_with_gap(self):
        configs = generate_concurrent_jobs(
            wordcount_profile(), gigabytes(1), megabytes(128), 2, num_jobs=3,
            submission_gap_seconds=10.0,
        )
        assert [config.submission_time for config in configs] == [0.0, 10.0, 20.0]

    def test_invalid_job_count_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_concurrent_jobs(wordcount_profile(), gigabytes(1), megabytes(128), 2, num_jobs=0)


class TestModelInputBuilders:
    def test_from_profile_has_all_classes(self):
        cluster = paper_cluster(4)
        profile = wordcount_profile()
        config = profile.job_config(gigabytes(1), megabytes(128), 4)
        model_input = model_input_from_profile(profile, cluster, config, num_jobs=2)
        assert isinstance(model_input, ModelInput)
        assert model_input.num_jobs == 2
        assert model_input.num_maps == 8
        for task_class in TaskClass:
            assert model_input.demands[task_class].total_seconds >= 0
        assert model_input.demands[TaskClass.SHUFFLE_SORT].network_seconds > 0

    def test_single_node_has_no_remote_shuffle(self):
        cluster = paper_cluster(1)
        profile = wordcount_profile()
        config = profile.job_config(gigabytes(1), megabytes(128), 4)
        model_input = model_input_from_profile(profile, cluster, config)
        assert model_input.demands[TaskClass.SHUFFLE_SORT].network_seconds == pytest.approx(0.0)

    def test_from_trace_round_trip(self):
        cluster = paper_cluster(4)
        profile = wordcount_profile()
        config = profile.job_config(gigabytes(1), megabytes(128), 4)
        simulator = ClusterSimulator(cluster, paper_scheduler(), seed=9)
        simulator.submit_job(config, profile.simulator_profile())
        trace = simulator.run().job_traces[0]
        model_input = model_input_from_trace(trace, cluster, num_jobs=1)
        assert model_input.num_maps == trace.num_maps
        assert model_input.initial_response_times[TaskClass.MAP] == pytest.approx(
            trace.average_map_duration()
        )
        assert model_input.demands[TaskClass.MAP].cpu_seconds > 0


class TestAnalysis:
    def test_relative_error(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.10)
        assert relative_error(90.0, 100.0) == pytest.approx(-0.10)
        with pytest.raises(ValidationError):
            relative_error(1.0, 0.0)

    def test_summarize_errors(self):
        summary = summarize_errors([0.1, -0.2, 0.3])
        assert summary.count == 3
        assert summary.mean_absolute == pytest.approx(0.2)
        assert summary.max_absolute == pytest.approx(0.3)
        assert summary.mean_signed > 0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValidationError):
            summarize_errors([])

    def test_format_table_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2], [30, 40]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "bbb" in lines[0]

    def test_format_table_row_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            format_table(["a"], [[1, 2]])

    def test_format_series_table(self):
        text = format_series_table("nodes", [4, 6], {"measured": [1.0, 2.0], "model": [1.5, 2.5]})
        assert "measured" in text and "model" in text
        assert "4" in text and "6" in text

    def test_ascii_plot_contains_markers(self):
        plot = ascii_series_plot([1, 2, 3], {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]})
        assert "o=a" in plot and "+=b" in plot

    def test_ascii_plot_validation(self):
        with pytest.raises(ValidationError):
            ascii_series_plot([1], {})


class TestCli:
    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure10" in output and "figure15" in output

    def test_predict_command(self, capsys):
        assert cli_main(["predict", "--nodes", "4", "--input-size", "1GB", "--jobs", "1"]) == 0
        output = capsys.readouterr().out
        assert "mva-forkjoin" in output and "mva-tripathi" in output

    def test_simulate_command(self, capsys):
        assert cli_main(["simulate", "--nodes", "2", "--input-size", "512MB", "--reduces", "1"]) == 0
        output = capsys.readouterr().out
        assert "mean job response time" in output
