"""Tests for the static baseline models (Herodotou, ARIA, Vianna)."""

from __future__ import annotations

import pytest

from repro.config import JobConfig
from repro.core import ModelInput, TaskClass, TaskClassDemands
from repro.exceptions import ConfigurationError, ModelError
from repro.core.initialization import initialize_from_herodotou
from repro.static_models import AriaJobProfile, AriaModel, ViannaHadoop1Model
from repro.static_models.herodotou import DataflowStatistics, HadoopEnvironment, estimate
from repro.units import MiB, gigabytes, megabytes
from repro.workloads import paper_cluster, wordcount_profile


def make_dataflow(num_maps=8, num_reduces=2) -> DataflowStatistics:
    return DataflowStatistics(
        input_bytes=num_maps * 128 * MiB,
        split_bytes=128 * MiB,
        num_maps=num_maps,
        num_reduces=num_reduces,
        map_output_ratio=0.4,
        reduce_output_ratio=0.1,
    )


def make_environment(num_nodes=4) -> HadoopEnvironment:
    profile = wordcount_profile()
    return profile.herodotou_environment(paper_cluster(num_nodes))


class TestHerodotouPhases:
    def test_map_phase_costs_positive(self):
        costs = estimate(make_dataflow(), make_environment())
        assert costs.read > 0 and costs.map > 0 and costs.spill > 0
        assert costs.map_task_seconds == pytest.approx(
            costs.read + costs.map + costs.collect + costs.spill + costs.map_merge + costs.startup
        )

    def test_map_phase_scales_with_split_size(self):
        small = estimate(
            DataflowStatistics(
                input_bytes=512 * MiB, split_bytes=64 * MiB, num_maps=8, num_reduces=2,
                map_output_ratio=0.4, reduce_output_ratio=0.1,
            ),
            make_environment(),
        )
        large = estimate(make_dataflow(), make_environment())
        assert large.map_task_seconds > small.map_task_seconds

    def test_reduce_phase_costs(self):
        # Four nodes: a remote fraction of 0.75.
        dataflow, environment = make_dataflow(), make_environment(num_nodes=4)
        costs = estimate(dataflow, environment)
        assert costs.shuffle > 0 and costs.reduce > 0 and costs.write > 0
        seeds = initialize_from_herodotou(dataflow, environment)
        assert seeds.response_time(TaskClass.SHUFFLE_SORT) == pytest.approx(costs.shuffle)
        assert costs.final_merge_seconds == pytest.approx(
            costs.reduce_merge + costs.reduce + costs.write
        )

    def test_remote_fraction_increases_shuffle(self):
        # One node fetches nothing remotely; four fetch three quarters.
        local = estimate(make_dataflow(), make_environment(num_nodes=1))
        remote = estimate(make_dataflow(), make_environment(num_nodes=4))
        assert remote.shuffle > local.shuffle

    def test_dataflow_validation(self):
        with pytest.raises(ConfigurationError):
            DataflowStatistics(
                input_bytes=0, split_bytes=1, num_maps=1, num_reduces=1,
                map_output_ratio=0.5, reduce_output_ratio=0.5,
            )


class TestHerodotouJobEstimate:
    def test_job_estimate_combines_waves(self):
        dataflow = make_dataflow(num_maps=40)
        costs = estimate(dataflow, make_environment(num_nodes=2))
        assert costs.map_waves >= 2
        assert costs.total_seconds == pytest.approx(
            costs.map_stage_seconds + costs.reduce_stage_seconds
        )

    def test_more_slots_reduce_makespan(self):
        dataflow = make_dataflow(num_maps=40)
        small = estimate(dataflow, make_environment(num_nodes=2))
        large = estimate(dataflow, make_environment(num_nodes=8))
        assert large.total_seconds <= small.total_seconds

    def test_from_job_config(self):
        job = JobConfig(input_size_bytes=gigabytes(1), block_size_bytes=megabytes(128))
        dataflow = DataflowStatistics.from_job_config(job)
        assert dataflow.num_maps == job.num_maps


class TestAria:
    def make_profile(self) -> AriaJobProfile:
        return AriaJobProfile(
            num_maps=40,
            num_reduces=4,
            avg_map_seconds=30.0,
            max_map_seconds=45.0,
            avg_shuffle_seconds=10.0,
            max_shuffle_seconds=18.0,
            avg_reduce_seconds=50.0,
            max_reduce_seconds=70.0,
        )

    def test_bounds_ordering(self):
        model = AriaModel(self.make_profile())
        bounds = model.job_bounds(map_slots=16, reduce_slots=4)
        assert bounds.lower_seconds <= bounds.average_seconds <= bounds.upper_seconds

    def test_more_slots_tighter_completion(self):
        model = AriaModel(self.make_profile())
        few = model.estimate_seconds(map_slots=8, reduce_slots=4)
        many = model.estimate_seconds(map_slots=32, reduce_slots=4)
        assert many < few

    def test_slots_for_deadline_meets_deadline(self):
        model = AriaModel(self.make_profile())
        map_slots, reduce_slots = model.slots_for_deadline(300.0, max_slots=64, reduce_slots=4)
        assert model.estimate_seconds(map_slots, reduce_slots) <= 300.0
        # One fewer map slot must miss the deadline (minimality).
        if map_slots > 1:
            assert model.estimate_seconds(map_slots - 1, reduce_slots) > 300.0

    def test_impossible_deadline_rejected(self):
        model = AriaModel(self.make_profile())
        with pytest.raises(ModelError):
            model.slots_for_deadline(1.0, max_slots=8, reduce_slots=4)

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            AriaJobProfile(
                num_maps=1, num_reduces=1,
                avg_map_seconds=10.0, max_map_seconds=5.0,
                avg_shuffle_seconds=1.0, max_shuffle_seconds=1.0,
                avg_reduce_seconds=1.0, max_reduce_seconds=1.0,
            )


class TestVianna:
    def make_input(self) -> ModelInput:
        demands = {
            TaskClass.MAP: TaskClassDemands(cpu_seconds=20.0, disk_seconds=2.0, coefficient_of_variation=0.4),
            TaskClass.SHUFFLE_SORT: TaskClassDemands(cpu_seconds=0.0, disk_seconds=2.0, network_seconds=4.0, coefficient_of_variation=0.4),
            TaskClass.MERGE: TaskClassDemands(cpu_seconds=15.0, disk_seconds=3.0, coefficient_of_variation=0.4),
        }
        return ModelInput(
            num_nodes=4,
            max_maps_per_node=8,
            max_reduces_per_node=8,
            num_maps=8,
            num_reduces=2,
            demands=demands,
        )

    def test_prediction_positive_and_converged(self):
        prediction = ViannaHadoop1Model(self.make_input(), map_slots_per_node=2, reduce_slots_per_node=2).predict()
        assert prediction.job_response_time > 0
        assert prediction.converged

    def test_uses_static_slots(self):
        model = ViannaHadoop1Model(self.make_input(), map_slots_per_node=2, reduce_slots_per_node=1)
        assert model.model_input.max_maps_per_node == 2
        assert model.model_input.max_reduces_per_node == 1

    def test_literal_forkjoin_makes_it_more_pessimistic_than_hadoop2(self):
        from repro.core import EstimatorKind, Hadoop2PerformanceModel

        model_input = self.make_input()
        hadoop2 = Hadoop2PerformanceModel(model_input).predict(EstimatorKind.FORK_JOIN)
        vianna = ViannaHadoop1Model(
            model_input,
            map_slots_per_node=model_input.max_maps_per_node,
            reduce_slots_per_node=model_input.max_reduces_per_node,
        ).predict()
        assert vianna.job_response_time >= hadoop2.job_response_time

    def test_invalid_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            ViannaHadoop1Model(self.make_input(), map_slots_per_node=0)
