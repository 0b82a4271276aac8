"""Integration tests for the YARN cluster simulator."""

from __future__ import annotations

import pytest

from repro.api import Scenario, create_backend
from repro.config import FailureSpec, JobConfig, SchedulerConfig
from repro.exceptions import SimulationError
from repro.hadoop import ClusterSimulator
from repro.hadoop import simulator as simulator_module
from repro.hadoop.job import JobResourceProfile
from repro.hadoop.trace import JobTrace, build_job_trace
from repro.units import gigabytes, megabytes
from repro.workloads import paper_cluster, paper_scheduler, wordcount_profile


def run_single_job(num_nodes=4, input_gb=1, num_reduces=2, seed=7, duration_cv=0.0, **scheduler_kwargs):
    cluster = paper_cluster(num_nodes)
    scheduler = SchedulerConfig(**scheduler_kwargs) if scheduler_kwargs else paper_scheduler()
    profile = wordcount_profile(duration_cv=duration_cv)
    simulator = ClusterSimulator(cluster, scheduler, seed=seed)
    job_config = profile.job_config(
        input_size_bytes=gigabytes(input_gb),
        block_size_bytes=megabytes(128),
        num_reduces=num_reduces,
    )
    simulator.submit_job(job_config, profile.simulator_profile())
    return simulator.run()


class TestSingleJob:
    def test_job_completes_with_all_tasks(self):
        result = run_single_job()
        trace = result.job_traces[0]
        assert trace.num_maps == 8
        assert trace.num_reduces == 2
        assert len(trace.tasks) == 10
        assert trace.response_time > 0
        assert result.metrics.tasks_completed == {"map": 8, "reduce": 2}

    def test_container_grants_match_task_counts(self):
        result = run_single_job()
        assert result.metrics.containers_granted == {"am": 1, "map": 8, "reduce": 2}

    def test_maps_are_mostly_data_local(self):
        result = run_single_job()
        assert result.metrics.data_local_fraction >= 0.75

    def test_deterministic_given_seed(self):
        first = run_single_job(seed=11)
        second = run_single_job(seed=11)
        assert first.response_times == second.response_times

    def test_different_seeds_with_noise_differ(self):
        first = run_single_job(seed=1, duration_cv=0.3)
        second = run_single_job(seed=2, duration_cv=0.3)
        assert first.response_times != second.response_times

    def test_trace_durations_consistent(self):
        trace = run_single_job().job_traces[0]
        for task in trace.tasks:
            assert task.finished_at >= task.started_at >= task.assigned_at >= task.scheduled_at
            assert task.duration == pytest.approx(task.finished_at - task.started_at)
        for reduce_trace in trace.reduce_traces():
            assert reduce_trace.shuffle_sort_duration >= 0
            assert reduce_trace.merge_duration > 0

    def test_shuffle_cannot_end_before_last_map(self):
        trace = run_single_job().job_traces[0]
        last_map_end = max(task.finished_at for task in trace.map_traces())
        for reduce_trace in trace.reduce_traces():
            merge_start = reduce_trace.finished_at - reduce_trace.merge_duration
            assert merge_start >= last_map_end - 1e-6


class TestScaling:
    def test_more_nodes_do_not_slow_down(self):
        small = run_single_job(num_nodes=4, input_gb=5)
        large = run_single_job(num_nodes=8, input_gb=5)
        assert large.mean_response_time <= small.mean_response_time * 1.05

    def test_larger_input_takes_longer(self):
        small = run_single_job(input_gb=1)
        large = run_single_job(input_gb=5)
        assert large.mean_response_time > small.mean_response_time

    def test_concurrent_jobs_increase_response_time(self):
        cluster = paper_cluster(4)
        profile = wordcount_profile(duration_cv=0.0)
        job_config = profile.job_config(gigabytes(1), megabytes(128), 2)

        single = ClusterSimulator(cluster, paper_scheduler(), seed=3)
        single.submit_job(job_config, profile.simulator_profile())
        single_result = single.run()

        multi = ClusterSimulator(cluster, paper_scheduler(), seed=3)
        for _ in range(3):
            multi.submit_job(job_config, profile.simulator_profile())
        multi_result = multi.run()

        assert multi_result.mean_response_time > single_result.mean_response_time
        assert multi_result.makespan > single_result.makespan


class TestSlowStart:
    def test_slowstart_disabled_starts_reduces_after_all_maps(self):
        with_slowstart = run_single_job(seed=5)
        without = run_single_job(
            seed=5,
            scheduler_name="capacity",
            slowstart_enabled=False,
        )
        trace_with = with_slowstart.job_traces[0]
        trace_without = without.job_traces[0]
        last_map_end_without = max(t.finished_at for t in trace_without.map_traces())
        first_reduce_start_without = min(t.started_at for t in trace_without.reduce_traces())
        assert first_reduce_start_without >= last_map_end_without - 1e-6
        # With slow start the first reduce may begin before the last map ends.
        last_map_end_with = max(t.finished_at for t in trace_with.map_traces())
        first_reduce_start_with = min(t.started_at for t in trace_with.reduce_traces())
        assert first_reduce_start_with <= last_map_end_with + 1e-6


class TestTraceSerialisation:
    def test_round_trip(self, tmp_path):
        trace = run_single_job().job_traces[0]
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = JobTrace.load(path)
        assert loaded == trace

    def test_aggregates(self):
        trace = run_single_job().job_traces[0]
        assert trace.average_map_duration() > 0
        assert trace.average_merge_duration() > 0
        assert trace.average_shuffle_sort_duration() >= 0


class TestLazyTraces:
    """Traces are built on first access, with the bits of an eager build."""

    def _run(self, failures=None):
        profile = wordcount_profile(duration_cv=0.3)
        simulator = ClusterSimulator(paper_cluster(4), paper_scheduler(), seed=5, failures=failures)
        for _ in range(2):
            job_config = profile.job_config(
                input_size_bytes=gigabytes(1),
                block_size_bytes=megabytes(128),
                num_reduces=3,
            )
            simulator.submit_job(job_config, profile.simulator_profile())
        return simulator, simulator.run()

    @pytest.mark.parametrize(
        "failures",
        [None, FailureSpec(task_failure_rate=0.2, straggler_fraction=0.3, speculative=True)],
        ids=["clean", "failures"],
    )
    def test_job_traces_equal_the_eager_build(self, failures):
        simulator, result = self._run(failures)
        attempts = simulator._attempt_numbers if failures is not None else None
        eager = [
            build_job_trace(job, num_nodes=4, attempt_counts=attempts)
            for job in simulator._jobs.values()
        ]
        assert result.job_traces == eager
        assert result.job_traces is result.job_traces  # built once
        assert result.response_times == [trace.response_time for trace in eager]
        assert result.mean_response_time == sum(result.response_times) / 2

    def test_predict_traces_only_the_first_repetition(self, monkeypatch):
        built, runs = [], []
        monkeypatch.setattr(
            simulator_module,
            "build_job_trace",
            lambda job, **kwargs: built.append(job) or build_job_trace(job, **kwargs),
        )
        run = ClusterSimulator.run
        monkeypatch.setattr(ClusterSimulator, "run", lambda self: runs.append(run(self)) or runs[-1])
        scenario = Scenario(
            workload="wordcount",
            input_size_bytes=megabytes(512),
            num_nodes=3,
            num_jobs=2,
            num_reduces=2,
            repetitions=3,
        )
        result = create_backend("simulator").predict(scenario)
        assert len(runs) == 3
        assert built == runs[0].jobs
        assert len(result.metadata["repetition_means"]) == 3


class TestErrors:
    def test_run_without_jobs_rejected(self):
        simulator = ClusterSimulator(paper_cluster(2), paper_scheduler(), seed=1)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_double_run_rejected(self):
        simulator = ClusterSimulator(paper_cluster(2), paper_scheduler(), seed=1)
        simulator.submit_job(JobConfig(input_size_bytes=megabytes(256)), JobResourceProfile())
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.run()

    def test_submit_after_run_rejected(self):
        simulator = ClusterSimulator(paper_cluster(2), paper_scheduler(), seed=1)
        simulator.submit_job(JobConfig(input_size_bytes=megabytes(256)), JobResourceProfile())
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.submit_job(JobConfig(input_size_bytes=megabytes(256)), JobResourceProfile())


class TestSchedulers:
    def test_fair_scheduler_balances_response_times(self):
        cluster = paper_cluster(2)
        profile = wordcount_profile(duration_cv=0.0)
        job_config = profile.job_config(gigabytes(1), megabytes(128), 1)

        def run(scheduler_name):
            scheduler = SchedulerConfig(scheduler_name=scheduler_name)
            simulator = ClusterSimulator(cluster, scheduler, seed=13)
            for _ in range(2):
                simulator.submit_job(job_config, profile.simulator_profile())
            return simulator.run()

        fifo = run("capacity")
        fair = run("fair")
        fifo_spread = max(fifo.response_times) - min(fifo.response_times)
        fair_spread = max(fair.response_times) - min(fair.response_times)
        assert fair_spread <= fifo_spread + 1e-6
