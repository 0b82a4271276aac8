"""Tests for :mod:`repro.config`."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.config import ClusterConfig, ContainerSpec, JobConfig, NodeSpec, SchedulerConfig
from repro.exceptions import ConfigurationError
from repro.units import GiB, MiB, gigabytes, megabytes


class TestNodeSpec:
    def test_defaults_match_paper_testbed(self):
        node = NodeSpec()
        assert node.cpu_cores == 12
        assert node.memory_bytes == 128 * GiB
        assert node.disk_count == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cpu_cores": 0},
            {"memory_bytes": 0},
            {"disk_count": 0},
            {"disk_bandwidth": 0},
            {"network_bandwidth": -1},
            {"cpu_speed_factor": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NodeSpec(**kwargs)


class TestClusterConfig:
    def test_derived_container_caps(self):
        cluster = ClusterConfig(
            num_nodes=4,
            map_container=ContainerSpec(memory_bytes=1 * GiB, vcores=1),
            yarn_vcore_fraction=8 / 12,
        )
        # vcores (8) are the binding constraint, not memory (96 GiB / 1 GiB).
        assert cluster.maps_per_node() == 8
        assert cluster.total_map_capacity() == 32

    def test_explicit_caps_take_precedence(self):
        cluster = ClusterConfig(num_nodes=2, max_maps_per_node=3, max_reduces_per_node=5)
        assert cluster.maps_per_node() == 3
        assert cluster.reduces_per_node() == 5

    def test_with_nodes_copies(self):
        cluster = ClusterConfig(num_nodes=4)
        other = cluster.with_nodes(8)
        assert other.num_nodes == 8
        assert cluster.num_nodes == 4
        assert other.node == cluster.node

    def test_container_too_large_rejected(self):
        cluster = ClusterConfig(
            num_nodes=1,
            node=NodeSpec(memory_bytes=2 * GiB),
            map_container=ContainerSpec(memory_bytes=4 * GiB, vcores=1),
        )
        with pytest.raises(ConfigurationError):
            cluster.maps_per_node()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"yarn_memory_fraction": 0.0},
            {"yarn_memory_fraction": 1.5},
            {"num_racks": 0},
            {"num_nodes": 2, "num_racks": 3},
            {"max_maps_per_node": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClusterConfig(**kwargs)


class TestSchedulerConfig:
    def test_defaults(self):
        scheduler = SchedulerConfig()
        assert scheduler.scheduler_name == "capacity"
        assert scheduler.slowstart_completed_maps == pytest.approx(0.05)
        assert scheduler.map_priority == 20
        assert scheduler.reduce_priority == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheduler_name": "unknown"},
            {"slowstart_completed_maps": -0.1},
            {"slowstart_completed_maps": 1.5},
            {"heartbeat_interval": 0},
            {"map_priority": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(**kwargs)


class TestJobConfig:
    def test_num_maps_from_blocks(self):
        job = JobConfig(input_size_bytes=gigabytes(1), block_size_bytes=megabytes(128))
        assert job.num_maps == 8

    def test_num_maps_rounds_up(self):
        job = JobConfig(input_size_bytes=megabytes(300), block_size_bytes=megabytes(128))
        assert job.num_maps == 3

    def test_exact_multiple_has_full_last_split(self):
        job = JobConfig(input_size_bytes=megabytes(256), block_size_bytes=megabytes(128))
        assert job.num_maps == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"input_size_bytes": 0},
            {"block_size_bytes": 0},
            {"num_reduces": 0},
            {"map_output_ratio": -0.1},
            {"submission_time": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            JobConfig(**kwargs)

    @given(
        input_mb=st.integers(min_value=1, max_value=10_000),
        block_mb=st.integers(min_value=16, max_value=1024),
    )
    def test_num_maps_covers_input(self, input_mb, block_mb):
        job = JobConfig(
            input_size_bytes=input_mb * MiB, block_size_bytes=block_mb * MiB
        )
        # Property: the splits cover the whole input and nothing more.
        assert (job.num_maps - 1) * job.block_size_bytes < job.input_size_bytes
        assert job.num_maps * job.block_size_bytes >= job.input_size_bytes
