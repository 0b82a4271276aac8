"""Equivalence tests for the incremental execution-engine core.

The incremental engine (cached stage indices, rate-class buckets with cached
minima, memoised shuffle stalls, dirty-node rates) must be *observationally
identical* to the straightforward rescan-everything engine it replaced:

* a golden-trace test replays fixed-seed scenarios and compares every task
  timestamp, bit for bit, against values recorded from the seed
  implementation (``tests/data/golden_traces_seed.json``; JSON round-trips
  floats exactly);
* a property test runs full simulations -- failure-free and with node loss,
  speculation and task failures -- while cross-checking, on every event,
  the engine's cached state against a from-scratch derivation: demand
  counts against a recount that re-derives each attempt's current stage
  and shuffle stall state, bucket membership and minima against the active
  stages, and memoised stall verdicts against a fresh stall check.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import ClusterConfig, FailureSpec, JobConfig
from repro.hadoop import ClusterSimulator
from repro.hadoop.cluster import Cluster
from repro.hadoop.engine import ExecutionEngine
from repro.hadoop.hdfs import HdfsNamespace
from repro.hadoop.job import JobResourceProfile, MapReduceJob
from repro.hadoop.shuffle import ShuffleTracker
from repro.hadoop.tasks import StageKind, SubtaskLabel, WorkStage
from repro.units import gigabytes, megabytes
from repro.workloads import paper_cluster, paper_scheduler, wordcount_profile

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_traces_seed.json"


def load_golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def run_scenario(spec: dict) -> "ClusterSimulator":
    profile = wordcount_profile(duration_cv=spec["duration_cv"])
    simulator = ClusterSimulator(
        paper_cluster(spec["num_nodes"]), paper_scheduler(), seed=spec["seed"]
    )
    job_config = profile.job_config(
        input_size_bytes=gigabytes(spec["input_gb"]),
        block_size_bytes=megabytes(128),
        num_reduces=spec["num_reduces"],
    )
    simulator.submit_job(job_config, profile.simulator_profile())
    return simulator


class TestGoldenTraces:
    @pytest.mark.parametrize("scenario", sorted(load_golden()))
    def test_traces_match_seed_implementation(self, scenario):
        spec = load_golden()[scenario]
        result = run_scenario(spec).run()

        assert result.makespan == spec["makespan"]
        assert result.response_times == spec["response_times"]

        recorded_tasks = spec["tasks"]
        simulated = {
            task.task_id: task
            for trace in result.job_traces
            for task in trace.tasks
        }
        assert simulated.keys() == recorded_tasks.keys()
        for task_id, recorded in recorded_tasks.items():
            task = simulated[task_id]
            for field in (
                "scheduled_at",
                "assigned_at",
                "started_at",
                "finished_at",
                "shuffle_sort_duration",
                "merge_duration",
            ):
                assert getattr(task, field) == recorded[field], (
                    f"{scenario}/{task_id}.{field}"
                )


def check_buckets(engine) -> int:
    """Bucket membership and cached minima match the active stages.

    Returns the number of buckets whose minimum is marked for recompute.
    """
    expected: dict[tuple[int, int], set[int]] = {}
    for entry in engine._active.values():
        assert entry.stage is entry.attempt.current_stage()
        if entry.is_reduce_network:
            assert engine._network_entries[entry.attempt.task_id] is entry
        else:
            expected.setdefault((entry.node_id, entry.slot), set()).add(entry.seq)
    assert len(engine._network_entries) == sum(
        entry.is_reduce_network for entry in engine._active.values()
    )
    assert {key: set(bucket.members) for key, bucket in engine._buckets.items()} == expected
    marked = 0
    for key, bucket in engine._buckets.items():
        assert (bucket.node_id, bucket.slot) == key
        for entry in bucket.members.values():
            assert engine._active[entry.attempt.task_id] is entry
        if bucket.least is None:
            marked += 1
        else:
            assert bucket.least == min(
                entry.stage.remaining for entry in bucket.members.values()
            )
    return marked


class TestIncrementalDemandCounts:
    def check_demand_invariant(self, simulator: ClusterSimulator, min_events: int) -> int:
        """Run ``simulator`` checking the engine's cached state on every event.

        Returns how many bucket minima were seen marked for recompute.
        """
        engine = simulator._engine
        original = engine.time_to_next_completion
        events = 0
        marked = 0

        def checked() -> float:
            nonlocal events, marked
            marked += check_buckets(engine)
            horizon = original()
            # After the call the engine's stall states are freshly refreshed,
            # so the incremental counts must equal a from-scratch recount and
            # every memoised stall verdict must equal a fresh check.
            assert engine.demand_snapshot() == engine.recount_demand()
            for entry in engine._network_entries.values():
                assert entry.stalled == engine.shuffle.is_stalled_stage(
                    entry.job, entry.attempt, entry.stage
                ), entry.attempt.task_id
            assert check_buckets(engine) == 0
            events += 1
            return horizon

        engine.time_to_next_completion = checked  # type: ignore[method-assign]
        simulator.run()
        assert events >= min_events
        return marked

    def test_single_job_demand_counts_always_match_recount(self):
        spec = {"num_nodes": 4, "input_gb": 1, "num_reduces": 2, "seed": 13, "duration_cv": 0.3}
        self.check_demand_invariant(run_scenario(spec), min_events=30)

    def test_concurrent_jobs_demand_counts_always_match_recount(self):
        # Two overlapping jobs exercise shuffle stalls (reducers racing the
        # map wave) and cross-job node contention.
        profile = wordcount_profile(duration_cv=0.3)
        simulator = ClusterSimulator(paper_cluster(4), paper_scheduler(), seed=17)
        job_config = profile.job_config(gigabytes(2), megabytes(128), 4)
        for _ in range(2):
            simulator.submit_job(job_config, profile.simulator_profile())
        self.check_demand_invariant(simulator, min_events=100)

    def test_faulted_jobs_engine_state_always_matches_recount(self):
        # Node loss invalidates completed map output (a map_output_version
        # bump that can re-stall reducers) and kills running attempts from
        # outside the engine; speculation kills losing attempts; task
        # failures re-execute attempts.
        failures = FailureSpec(
            task_failure_rate=0.1,
            straggler_fraction=0.3,
            straggler_slowdown=2.5,
            speculative=True,
            node_failure_times=(40.0, 80.0),
        )
        profile = wordcount_profile(duration_cv=0.3)
        simulator = ClusterSimulator(
            paper_cluster(4), paper_scheduler(), seed=19, failures=failures
        )
        job_config = profile.job_config(gigabytes(2), megabytes(128), 4)
        for _ in range(2):
            simulator.submit_job(job_config, profile.simulator_profile())
        marked = self.check_demand_invariant(simulator, min_events=100)
        metrics = simulator.metrics
        assert metrics.node_failures == 2
        assert metrics.maps_invalidated >= 1
        assert metrics.containers_killed >= 1
        assert metrics.speculative_launched >= 1
        assert metrics.task_failures >= 1
        assert marked >= 1

    def test_cached_reducer_job_is_the_owning_job(self):
        # The stall check reads each reducer's job from the engine's entry
        # instead of looking it up; with two jobs a wrong job would show.
        profile = wordcount_profile(duration_cv=0.3)
        simulator = ClusterSimulator(paper_cluster(4), paper_scheduler(), seed=17)
        job_config = profile.job_config(gigabytes(2), megabytes(128), 4)
        for _ in range(2):
            simulator.submit_job(job_config, profile.simulator_profile())
        engine = simulator._engine
        original = engine.time_to_next_completion
        checked_jobs = set()

        def checked() -> float:
            horizon = original()
            for entry in engine._network_entries.values():
                assert entry.job is engine.shuffle.job_for(entry.attempt)
                assert entry.stalled == engine.shuffle.is_stalled(entry.attempt)
                checked_jobs.add(entry.job.job_id)
            return horizon

        engine.time_to_next_completion = checked  # type: ignore[method-assign]
        simulator.run()
        assert len(checked_jobs) == 2


class TestActivationOrder:
    def test_simultaneous_completions_follow_activation_order(self):
        """Attempts finishing in one step complete in start order, not bucket order."""
        cluster = Cluster(ClusterConfig(num_nodes=2))
        config = JobConfig(input_size_bytes=megabytes(256), block_size_bytes=megabytes(128))
        job = MapReduceJob(
            job_id=0,
            config=config,
            profile=JobResourceProfile(),
            splits=HdfsNamespace(cluster, seed=1).splits_for_job(config),
        )
        engine = ExecutionEngine(cluster, ShuffleTracker({0: job}))
        disk_rate = engine.sharing.rate_for_count(StageKind.DISK, 1)
        cpu_rate = engine.sharing.rate_for_count(StageKind.CPU, 1)
        first, second = job.map_tasks
        # ``first`` starts first, on node 0: one second of disk, then one of
        # CPU.  ``second`` starts next, on node 1: two seconds of CPU.  Its
        # CPU bucket exists before ``first`` reaches the CPU, yet both finish
        # together and ``first`` must be reported first.
        for task, node_id, stages in (
            (first, 0, [(StageKind.DISK, disk_rate), (StageKind.CPU, cpu_rate)]),
            (second, 1, [(StageKind.CPU, 2 * cpu_rate)]),
        ):
            task.assigned_node = node_id
            task.set_stages(
                [
                    WorkStage(kind=kind, amount=amount, subtask=SubtaskLabel.MAP)
                    for kind, amount in stages
                ]
            )
            engine.add_task(task, 0.0)
        assert engine.time_to_next_completion() == 1.0
        assert engine.advance(1.0, 1.0) == []
        assert engine.time_to_next_completion() == 1.0
        assert engine.advance(1.0, 2.0) == [first, second]
        assert engine.time_to_next_completion() == float("inf")
