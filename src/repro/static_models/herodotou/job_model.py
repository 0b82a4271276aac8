"""Whole-job estimate from the Herodotou phase model.

With the slot-based resource model of Hadoop 1.x, map tasks execute in waves
over the available map slots and reduce tasks in waves over the reduce slots;
the overall job execution time is "simply the sum of the costs from all map
and reduce phases" (paper Section 2.1), i.e. there is no modelling of
contention or of the map/shuffle pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .map_model import MapPhaseCosts, estimate_map_phases
from .parameters import DataflowStatistics, HadoopEnvironment
from .reduce_model import ReducePhaseCosts, estimate_reduce_phases


@dataclass(frozen=True)
class HerodotouJobEstimate:
    """Static estimate of one job's execution."""

    map_phases: MapPhaseCosts
    reduce_phases: ReducePhaseCosts
    map_waves: int
    reduce_waves: int
    map_stage_seconds: float
    reduce_stage_seconds: float

    @property
    def total_seconds(self) -> float:
        """Estimated job execution time (map stage + reduce stage)."""
        return self.map_stage_seconds + self.reduce_stage_seconds


class HerodotouJobModel:
    """Static job-level model built from dataflow statistics and an environment."""

    def __init__(self, environment: HadoopEnvironment) -> None:
        self.environment = environment

    def estimate(self, dataflow: DataflowStatistics) -> HerodotouJobEstimate:
        """Estimate the full job execution time."""
        map_phases = estimate_map_phases(dataflow, self.environment.costs)
        remote_fraction = (
            (self.environment.num_nodes - 1) / self.environment.num_nodes
            if self.environment.num_nodes > 1
            else 0.0
        )
        reduce_phases = estimate_reduce_phases(
            dataflow, self.environment.costs, remote_fraction=remote_fraction
        )
        map_waves = math.ceil(dataflow.num_maps / self.environment.total_map_slots)
        reduce_waves = math.ceil(
            dataflow.num_reduces / self.environment.total_reduce_slots
        )
        return HerodotouJobEstimate(
            map_phases=map_phases,
            reduce_phases=reduce_phases,
            map_waves=map_waves,
            reduce_waves=reduce_waves,
            map_stage_seconds=map_waves * map_phases.total,
            reduce_stage_seconds=reduce_waves * reduce_phases.total,
        )
