"""Herodotou phase costs, waves and stage totals, written once over ``xp``.

Each phase cost is the product of the bytes flowing through the phase and
the matching per-byte cost statistic:

* map task — **read** the split from HDFS, apply the **map** function,
  **collect** the output into the sort buffer, **spill** it to local disk
  (sorting each buffer fill), and **merge** the spill files when there was
  more than one;
* reduce task — **shuffle** the reducer's share of every map output (the
  remote part over the network, all of it onto local disk), **merge** the
  fetched segments in multi-pass order, apply the **reduce** function and
  **write** the output to HDFS with replication.

With Hadoop 1.x slots, map tasks run in waves over the map slots and reduce
tasks over the reduce slots, and the job time is "simply the sum of the
costs from all map and reduce phases" (paper Section 2.1).

:func:`estimate` reads its inputs as attributes, so it takes one job's
:class:`DataflowStatistics` and :class:`HadoopEnvironment` with the
:data:`~repro.static_models.scalar.scalar` namespace, or objects of stacked
NumPy columns (one element per grid point) with ``numpy``; both paths run
the same operations in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..scalar import scalar


@dataclass(frozen=True)
class HerodotouEstimate:
    """Phase costs (seconds) of one map and one reduce task, and their waves.

    Fields are floats for one job and arrays for a grid.  The task, stage
    and job totals are computed once, when the estimate is built.
    """

    read: Any
    map: Any
    collect: Any
    spill: Any
    map_merge: Any
    shuffle: Any
    reduce_merge: Any
    reduce: Any
    write: Any
    #: Fixed per-task overhead (container + JVM start-up) of either task.
    startup: Any
    map_waves: Any
    reduce_waves: Any
    #: Total map task execution time.
    map_task_seconds: Any = field(init=False)
    #: Total reduce task execution time.
    reduce_task_seconds: Any = field(init=False)
    #: Map-stage seconds (waves × per-task cost).
    map_stage_seconds: Any = field(init=False)
    #: Reduce-stage seconds (waves × per-task cost).
    reduce_stage_seconds: Any = field(init=False)
    #: Estimated job execution time (map stage + reduce stage).
    total_seconds: Any = field(init=False)

    def __post_init__(self) -> None:
        map_task = self.read + self.map + self.collect + self.spill + self.map_merge + self.startup
        reduce_task = self.shuffle + self.reduce_merge + self.reduce + self.write + self.startup
        map_stage = self.map_waves * map_task
        reduce_stage = self.reduce_waves * reduce_task
        for name, value in (
            ("map_task_seconds", map_task),
            ("reduce_task_seconds", reduce_task),
            ("map_stage_seconds", map_stage),
            ("reduce_stage_seconds", reduce_stage),
            ("total_seconds", map_stage + reduce_stage),
        ):
            object.__setattr__(self, name, value)

    @property
    def final_merge_seconds(self) -> Any:
        """Cost of the paper's *merge* subtask (final sort + reduce + write)."""
        return self.reduce_merge + self.reduce + self.write


def estimate(dataflow, environment, xp=scalar) -> HerodotouEstimate:
    """Phase costs and waves of a job on an environment (or of a grid of them)."""
    costs = environment.costs
    split = dataflow.split_bytes
    output = dataflow.map_output_bytes
    sort_buffer = dataflow.sort_buffer_bytes
    num_maps = dataflow.num_maps

    num_spills = xp.maximum(1, xp.ceil(output / sort_buffer))
    # Each spill sorts its buffer (CPU, n log n approximated linearly with a
    # log factor on the spill count) and writes it to local disk.
    sort_factor = 1.0 + xp.log2(xp.maximum(2.0, output / xp.maximum(sort_buffer, 1)))

    reduce_input = dataflow.reduce_input_bytes
    # Uniform placement over n nodes: (n - 1) / n of every map output is
    # remote, which is 0.0 on one node.
    remote_fraction = (environment.num_nodes - 1) / environment.num_nodes
    # Multi-pass merge: one full read+write pass per merge level.
    merge_passes = xp.maximum(1, xp.ceil(xp.log2(xp.maximum(2.0, num_maps))) - 3)

    return HerodotouEstimate(
        read=split * costs.hdfs_read_cost,
        map=split * costs.map_cpu_cost,
        collect=output * costs.sort_cpu_cost,
        spill=output * (costs.local_io_cost + costs.sort_cpu_cost * sort_factor),
        # One merge pass reads and re-writes the whole map output.
        map_merge=xp.where(
            num_spills > 1, output * (2.0 * costs.local_io_cost + costs.sort_cpu_cost), 0.0
        ),
        # The fetched segments are spilled to local disk as they arrive.
        shuffle=(
            reduce_input * remote_fraction * costs.network_cost
            + reduce_input * costs.local_io_cost
        ),
        reduce_merge=reduce_input * merge_passes * 2.0 * costs.local_io_cost,
        reduce=reduce_input * costs.reduce_cpu_cost,
        write=dataflow.reduce_output_bytes * costs.hdfs_write_cost * dataflow.output_replication,
        startup=costs.task_startup_seconds,
        map_waves=xp.ceil(num_maps / environment.total_map_slots),
        reduce_waves=xp.ceil(dataflow.num_reduces / environment.total_reduce_slots),
    )
