"""Unit tests for the YARN simulator components (cluster, HDFS, resources, tasks)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.config import ClusterConfig, ContainerSpec, JobConfig, NodeSpec, SchedulerConfig
from repro.exceptions import ConfigurationError, SimulationError
from repro.hadoop.am import ContainerAsk, MRAppMaster
from repro.hadoop.cluster import Cluster
from repro.hadoop.hdfs import HdfsNamespace
from repro.hadoop.job import JobResourceProfile, MapReduceJob
from repro.hadoop.nm import NodeManager
from repro.hadoop.resources import (
    ANY_LOCATION,
    Container,
    Priority,
    Resource,
    ResourceRequest,
    ResourceRequestTable,
)
from repro.hadoop.scheduler import CapacityScheduler
from repro.hadoop.tasks import (
    StageKind,
    SubtaskLabel,
    TaskAttempt,
    TaskState,
    TaskType,
    WorkStage,
    build_map_stages,
    build_reduce_stages,
)
from repro.units import GiB, gigabytes, megabytes


def small_cluster(num_nodes: int = 3) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=num_nodes,
        node=NodeSpec(),
        map_container=ContainerSpec(memory_bytes=1 * GiB, vcores=1),
        yarn_vcore_fraction=8 / 12,
    )


class TestResource:
    def test_arithmetic(self):
        a = Resource(memory_bytes=4, vcores=2)
        b = Resource(memory_bytes=1, vcores=1)
        assert (a + b) == Resource(5, 3)
        assert (a - b) == Resource(3, 1)

    def test_covers(self):
        assert Resource(4, 2).covers(Resource(4, 2))
        assert Resource(4, 2).covers(Resource(3, 1))
        assert not Resource(4, 2).covers(Resource(5, 1))


class TestPriorities:
    def test_paper_priority_values(self):
        assert int(Priority.MAP) == 20
        assert int(Priority.REDUCE) == 10

    def test_map_served_before_reduce(self):
        assert Priority.MAP.serves_before < Priority.REDUCE.serves_before


class TestCluster:
    def test_nodes_created_with_capacity(self):
        cluster = Cluster(small_cluster(4))
        assert len(cluster) == 4
        node = cluster.node(2)
        assert node.name == "node-2"
        assert node.capacity.vcores == 8

    def test_allocate_and_release(self):
        cluster = Cluster(small_cluster())
        node = cluster.node(0)
        request = Resource(memory_bytes=1 * GiB, vcores=1)
        node.allocate(request)
        assert node.occupancy_rate > 0
        node.release(request)
        assert node.occupancy_rate == pytest.approx(0.0)

    def test_over_allocation_rejected(self):
        cluster = Cluster(small_cluster())
        node = cluster.node(0)
        too_big = Resource(memory_bytes=node.capacity.memory_bytes + 1, vcores=1)
        with pytest.raises(ConfigurationError):
            node.allocate(too_big)


class TestHdfs:
    def test_splits_match_job_config(self):
        cluster = Cluster(small_cluster())
        hdfs = HdfsNamespace(cluster, seed=1)
        job_config = JobConfig(input_size_bytes=gigabytes(1), block_size_bytes=megabytes(128))
        splits = hdfs.splits_for_job(job_config)
        assert len(splits) == job_config.num_maps
        assert sum(split.size_bytes for split in splits) == job_config.input_size_bytes

    def test_replication_bounded_by_cluster(self):
        cluster = Cluster(small_cluster(2))
        hdfs = HdfsNamespace(cluster, replication=3, seed=2)
        blocks = hdfs.place_file(megabytes(256), megabytes(128))
        for block in blocks:
            assert 1 <= len(block.replica_nodes) <= 2
            assert len(set(block.replica_nodes)) == len(block.replica_nodes)

    def test_every_split_can_be_local(self):
        cluster = Cluster(small_cluster())
        hdfs = HdfsNamespace(cluster, seed=3)
        splits = hdfs.splits_for_job(JobConfig(input_size_bytes=gigabytes(1)))
        assert all(any(0 <= n < len(cluster) for n in split.preferred_nodes) for split in splits)

    def test_last_split_holds_the_remainder(self):
        hdfs = HdfsNamespace(Cluster(small_cluster()), seed=3)
        short = hdfs.splits_for_job(
            JobConfig(input_size_bytes=megabytes(300), block_size_bytes=megabytes(128))
        )
        assert [split.size_bytes for split in short] == [
            megabytes(128),
            megabytes(128),
            megabytes(300) - 2 * megabytes(128),
        ]
        exact = hdfs.splits_for_job(
            JobConfig(input_size_bytes=megabytes(256), block_size_bytes=megabytes(128))
        )
        assert [split.size_bytes for split in exact] == [megabytes(128)] * 2

    def test_invalid_inputs(self):
        cluster = Cluster(small_cluster())
        hdfs = HdfsNamespace(cluster, seed=4)
        with pytest.raises(ConfigurationError):
            hdfs.place_file(0, megabytes(128))
        with pytest.raises(ConfigurationError):
            hdfs.place_file(megabytes(1), 0)


class TestWorkStages:
    def test_map_stage_structure(self):
        stages = build_map_stages(
            split_bytes=megabytes(128),
            map_output_bytes=megabytes(64),
            cpu_seconds_per_mib=0.2,
            spill_write_factor=1.5,
            startup_cpu_seconds=2.0,
            data_local=True,
        )
        assert [stage.kind for stage in stages] == [
            StageKind.DISK,
            StageKind.CPU,
            StageKind.DISK,
        ]
        assert all(stage.subtask is SubtaskLabel.MAP for stage in stages)

    def test_remote_map_reads_over_network(self):
        stages = build_map_stages(
            split_bytes=megabytes(128),
            map_output_bytes=megabytes(64),
            cpu_seconds_per_mib=0.2,
            spill_write_factor=1.5,
            startup_cpu_seconds=2.0,
            data_local=False,
        )
        assert stages[0].kind is StageKind.NETWORK

    def test_reduce_stage_structure(self):
        stages = build_reduce_stages(
            shuffle_bytes_remote=megabytes(100),
            shuffle_bytes_local=megabytes(28),
            reduce_input_bytes=megabytes(128),
            reduce_output_bytes=megabytes(12),
            cpu_seconds_per_mib=0.1,
            merge_write_factor=1.0,
            startup_cpu_seconds=2.0,
        )
        shuffle = [s for s in stages if s.subtask is SubtaskLabel.SHUFFLE_SORT]
        merge = [s for s in stages if s.subtask is SubtaskLabel.MERGE]
        assert shuffle and merge
        assert shuffle[0].kind is StageKind.NETWORK

    def test_negative_amount_rejected(self):
        with pytest.raises(SimulationError):
            WorkStage(kind=StageKind.CPU, amount=-1.0, subtask=SubtaskLabel.MAP)


class TestTaskAttemptLifecycle:
    def make_task(self) -> TaskAttempt:
        return TaskAttempt(task_id="job0_m_0000", task_type=TaskType.MAP, job_id=0)

    def test_full_lifecycle(self):
        task = self.make_task()
        assert task.state is TaskState.PENDING
        task.mark_scheduled(1.0)
        task.mark_assigned(2.0, node_id=1, container_id=7)
        task.set_stages([WorkStage(kind=StageKind.CPU, amount=5.0, subtask=SubtaskLabel.MAP)])
        task.mark_running(3.0)
        task.stages[0].remaining = 0.0
        task.stages[0].started_at = 3.0
        task.stages[0].finished_at = 8.0
        task.mark_completed(8.0)
        assert task.duration == pytest.approx(5.0)

    def test_invalid_transition_rejected(self):
        task = self.make_task()
        with pytest.raises(SimulationError):
            task.mark_assigned(0.0, node_id=0, container_id=1)

    def test_running_requires_stages(self):
        task = self.make_task()
        task.mark_scheduled(0.0)
        task.mark_assigned(1.0, node_id=0, container_id=1)
        with pytest.raises(SimulationError):
            task.mark_running(2.0)

    def test_set_stages_twice_rejected(self):
        task = self.make_task()
        stage = [WorkStage(kind=StageKind.CPU, amount=1.0, subtask=SubtaskLabel.MAP)]
        task.set_stages(stage)
        with pytest.raises(SimulationError):
            task.set_stages(stage)


class TestResourceRequestTable:
    def test_rows_reflect_requests(self):
        table = ResourceRequestTable()
        table.add(
            ResourceRequest(
                num_containers=2,
                priority=Priority.MAP,
                resource=Resource(1 * GiB, 1),
                locality="node-1",
                task_type="map",
            )
        )
        table.add(
            ResourceRequest(
                num_containers=1,
                priority=Priority.REDUCE,
                resource=Resource(1 * GiB, 1),
                locality=ANY_LOCATION,
                task_type="reduce",
            )
        )
        rows = table.rows()
        assert len(rows) == 2
        assert rows[0]["priority"] == 20
        assert rows[1]["locality"] == ANY_LOCATION

    def test_outstanding_sorted_by_priority(self):
        table = ResourceRequestTable()
        table.add(
            ResourceRequest(
                num_containers=1,
                priority=Priority.REDUCE,
                resource=Resource(1, 1),
                task_type="reduce",
            )
        )
        table.add(
            ResourceRequest(
                num_containers=1,
                priority=Priority.MAP,
                resource=Resource(1, 1),
                task_type="map",
            )
        )
        outstanding = table.outstanding()
        assert outstanding[0].priority is Priority.MAP


class TestNodeManager:
    def test_start_and_stop_container(self):
        cluster = Cluster(small_cluster())
        manager = NodeManager(node=cluster.node(0), launch_delay=0.5)
        container = Container.grant(
            job_id=0, node_id=0, resource=Resource(1, 1), priority=Priority.MAP, granted_at=0.0
        )
        ready = manager.start_container(container, now=1.0)
        assert ready == pytest.approx(1.5)
        assert manager.container_count() == 1
        manager.stop_container(container, now=2.0)
        assert manager.container_count() == 0
        assert container.released_at == pytest.approx(2.0)

    def test_wrong_node_rejected(self):
        cluster = Cluster(small_cluster())
        manager = NodeManager(node=cluster.node(0))
        container = Container.grant(
            job_id=0, node_id=1, resource=Resource(1, 1), priority=Priority.MAP, granted_at=0.0
        )
        with pytest.raises(SimulationError):
            manager.start_container(container, now=0.0)


class TestMapReduceJobDataflow:
    def make_job(self) -> MapReduceJob:
        cluster = Cluster(small_cluster())
        hdfs = HdfsNamespace(cluster, seed=5)
        config = JobConfig(
            input_size_bytes=megabytes(512),
            block_size_bytes=megabytes(128),
            num_reduces=2,
            map_output_ratio=0.5,
        )
        return MapReduceJob(
            job_id=0,
            config=config,
            profile=JobResourceProfile(),
            splits=hdfs.splits_for_job(config),
        )

    def test_task_counts(self):
        job = self.make_job()
        assert job.num_maps == 4
        assert job.num_reduces == 2
        assert len(job.all_tasks) == 6

    def test_dataflow_volumes(self):
        job = self.make_job()
        assert job.total_map_output_bytes == pytest.approx(megabytes(512) * 0.5)
        assert job.reduce_input_bytes == pytest.approx(megabytes(512) * 0.5 / 2)

    def test_shuffle_availability_grows_with_completed_maps(self):
        job = self.make_job()
        assert job.shuffle_remote_available_bytes(None) == 0.0
        first = job.map_tasks[0]
        first.mark_scheduled(0.0)
        first.mark_assigned(1.0, node_id=0, container_id=1)
        first.set_stages(
            [WorkStage(kind=StageKind.CPU, amount=1.0, subtask=SubtaskLabel.MAP)]
        )
        first.mark_running(1.0)
        first.stages[0].remaining = 0.0
        first.mark_completed(2.0)
        job.record_map_completion(first)
        expected = job.map_output_bytes(job.splits[0]) / job.num_reduces
        assert job.shuffle_remote_available_bytes(None) == pytest.approx(expected)
        # Remote availability excludes output produced on the reducer's node.
        assert job.shuffle_remote_available_bytes(0) == pytest.approx(0.0)
        assert job.shuffle_remote_available_bytes(1) == pytest.approx(expected)

    def test_map_output_version_counts_output_changes(self):
        job = self.make_job()
        first = job.map_tasks[0]
        first.assigned_node = 0
        assert job.map_output_version == 0
        job.record_map_completion(first)
        assert job.map_output_version == 1
        job.invalidate_map_completion(first)
        assert job.map_output_version == 2
        assert job.shuffle_remote_available_bytes(1) == 0.0

    def test_split_count_mismatch_rejected(self):
        cluster = Cluster(small_cluster())
        hdfs = HdfsNamespace(cluster, seed=6)
        config = JobConfig(input_size_bytes=megabytes(512), block_size_bytes=megabytes(128))
        splits = hdfs.splits_for_job(config)[:-1]
        with pytest.raises(ConfigurationError):
            MapReduceJob(job_id=1, config=config, profile=JobResourceProfile(), splits=splits)


class TestAllocationCaches:
    def make_app_master(self) -> tuple[Cluster, MRAppMaster]:
        cluster = Cluster(small_cluster())
        hdfs = HdfsNamespace(cluster, seed=8)
        config = JobConfig(
            input_size_bytes=megabytes(512), block_size_bytes=megabytes(128), num_reduces=2
        )
        job = MapReduceJob(
            job_id=0,
            config=config,
            profile=JobResourceProfile(),
            splits=hdfs.splits_for_job(config),
        )
        resource = Resource(memory_bytes=1 * GiB, vcores=1)
        app_master = MRAppMaster(
            job=job,
            scheduler_config=SchedulerConfig(),
            map_resource=resource,
            reduce_resource=resource,
            num_cluster_nodes=len(cluster),
        )
        return cluster, app_master

    def test_container_asks_are_reused_across_grants(self):
        _, app_master = self.make_app_master()
        am_container = Container.grant(0, 0, app_master.am_resource, Priority.AM, 0.0)
        app_master.on_am_container_granted(am_container)
        app_master.on_registered(1.0)
        before = app_master.container_asks()
        assert [ask.task_type for ask in before] == ["map"] * 4
        container = Container.grant(0, 1, app_master.map_resource, Priority.MAP, 2.0)
        granted = app_master.on_container_granted(container, 2.0, before[0].task_id)
        after = app_master.container_asks()
        assert after is not before
        expected = [ask for ask in before if ask.task_id != granted.task_id]
        assert len(after) == len(expected) == 3
        assert all(new is old for new, old in zip(after, expected))

    def test_node_available_follows_direct_reassignment(self):
        node = Cluster(small_cluster()).node(0)
        assert node.available == node.capacity
        node.allocated = Resource(memory_bytes=1 * GiB, vcores=2)
        assert node.available == node.capacity - Resource(memory_bytes=1 * GiB, vcores=2)
        node.allocate(Resource(memory_bytes=1 * GiB, vcores=1))
        assert node.available == node.capacity - Resource(memory_bytes=2 * GiB, vcores=3)
        node.release(Resource(memory_bytes=2 * GiB, vcores=3))
        assert node.available == node.capacity

    def test_unplaceable_shape_skipped_for_equal_distinct_resources(self, monkeypatch):
        cluster = Cluster(small_cluster(2))
        container = Resource(memory_bytes=1 * GiB, vcores=1)
        # Node 0 is full; node 1 has room for exactly one container.
        cluster.node(0).allocate(cluster.node(0).capacity)
        cluster.node(1).allocate(cluster.node(1).capacity - container)
        map_resource = Resource(memory_bytes=1 * GiB, vcores=1)
        reduce_resource = Resource(memory_bytes=1 * GiB, vcores=1)
        assert map_resource == reduce_resource and map_resource is not reduce_resource
        asks = [
            ContainerAsk(Priority.MAP, map_resource, (0,), "map", "m0"),
            ContainerAsk(Priority.MAP, map_resource, (), "map", "m1"),
            ContainerAsk(Priority.REDUCE, reduce_resource, (), "reduce", "r0"),
            ContainerAsk(Priority.REDUCE, reduce_resource, (), "reduce", "r1"),
        ]
        app = SimpleNamespace(
            job=SimpleNamespace(job_id=0, submitted_at=0.0), container_asks=lambda: asks
        )
        scheduler = CapacityScheduler()
        placed: list[str | None] = []
        place = scheduler._place

        def counting_place(cluster, tentative, preferred_nodes, resource):
            node_id = place(cluster, tentative, preferred_nodes, resource)
            placed.append(node_id)
            return node_id

        monkeypatch.setattr(scheduler, "_place", counting_place)
        assignments = scheduler.assign(cluster, [app])
        assert [(a.task_id, a.node_id) for a in assignments] == [("m0", 1)]
        # m1 finds no room; both reduce asks are skipped without a fit scan.
        assert placed == [1, None]
