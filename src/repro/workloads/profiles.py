"""Application profiles and model-input builders.

An :class:`ApplicationProfile` is the single source of truth for how much
CPU, disk and network work one byte of data costs for a given MapReduce
application.  From it we derive:

* the simulator's :class:`~repro.hadoop.job.JobResourceProfile`;
* the analytic model's :class:`~repro.core.parameters.ModelInput`
  (:func:`model_input_from_profile`);
* Herodotou dataflow/cost statistics
  (via :meth:`ApplicationProfile.herodotou_environment`).

Alternatively, :func:`model_input_from_trace` derives the model input from a
simulated (or recorded) :class:`~repro.hadoop.trace.JobTrace`, which mirrors
the paper's use of job-history profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ClusterConfig, JobConfig
from ..core.parameters import ModelInput, TaskClass, TaskClassDemands
from ..exceptions import ConfigurationError
from ..hadoop.job import JobResourceProfile
from ..hadoop.tasks import StageKind, TaskType
from ..hadoop.trace import JobTrace
from ..static_models.herodotou import DataflowStatistics, HadoopEnvironment
from ..units import MiB


@dataclass(frozen=True)
class ApplicationProfile:
    """Per-byte resource costs and dataflow selectivities of one application."""

    name: str
    #: CPU core-seconds per MiB of map input.
    map_cpu_seconds_per_mib: float
    #: CPU core-seconds per MiB of reduce input.
    reduce_cpu_seconds_per_mib: float
    #: Map selectivity (map-output bytes per map-input byte).
    map_output_ratio: float
    #: Reduce selectivity (reduce-output bytes per reduce-input byte).
    reduce_output_ratio: float
    #: Local-disk write amplification of the map-side spill/merge.
    spill_write_factor: float = 1.5
    #: Local-disk traffic per reduce-input byte during the final merge.
    merge_write_factor: float = 1.0
    #: Fixed per-task CPU overhead, seconds.
    startup_cpu_seconds: float = 2.0
    #: Task-duration variability (log-normal CV) used by the simulator and as
    #: the default per-class CV of the analytic model.
    duration_cv: float = 0.3

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("profile name must be non-empty")
        for attribute in (
            "map_cpu_seconds_per_mib",
            "reduce_cpu_seconds_per_mib",
            "map_output_ratio",
            "reduce_output_ratio",
            "spill_write_factor",
            "merge_write_factor",
            "startup_cpu_seconds",
            "duration_cv",
        ):
            if getattr(self, attribute) < 0:
                raise ConfigurationError(f"{attribute} must be non-negative")

    # -- derived representations --------------------------------------------------

    def simulator_profile(self) -> JobResourceProfile:
        """The per-byte cost profile consumed by the YARN simulator."""
        return JobResourceProfile(
            map_cpu_seconds_per_mib=self.map_cpu_seconds_per_mib,
            reduce_cpu_seconds_per_mib=self.reduce_cpu_seconds_per_mib,
            spill_write_factor=self.spill_write_factor,
            merge_write_factor=self.merge_write_factor,
            startup_cpu_seconds=self.startup_cpu_seconds,
            duration_cv=self.duration_cv,
        )

    def job_config(
        self,
        input_size_bytes: int,
        block_size_bytes: int,
        num_reduces: int,
        submission_time: float = 0.0,
    ) -> JobConfig:
        """A :class:`~repro.config.JobConfig` for this application."""
        return JobConfig(
            name=self.name,
            input_size_bytes=input_size_bytes,
            block_size_bytes=block_size_bytes,
            num_reduces=num_reduces,
            map_output_ratio=self.map_output_ratio,
            reduce_output_ratio=self.reduce_output_ratio,
            submission_time=submission_time,
        )

    def herodotou_environment(self, cluster: ClusterConfig) -> HadoopEnvironment:
        """Herodotou cost statistics consistent with this profile and cluster."""
        return HadoopEnvironment.from_specs(
            node=cluster.node,
            profile=self.simulator_profile(),
            num_nodes=cluster.num_nodes,
            map_slots_per_node=cluster.maps_per_node(),
            reduce_slots_per_node=cluster.reduces_per_node(),
        )

    def herodotou_dataflow(self, job_config: JobConfig) -> DataflowStatistics:
        """Herodotou dataflow statistics of one job of this application."""
        return DataflowStatistics.from_job_config(job_config)


#: Fallback plannable knobs for workloads that do not declare their own:
#: vary the cluster size over the paper's range, keep containers and reduce
#: counts at the scenario's values.
DEFAULT_PLAN_KNOBS: dict[str, tuple[int, ...]] = {
    "num_nodes": tuple(range(2, 17, 2)),
    "container_memory_bytes": (),
    "num_reduces": (),
}

_PLAN_KNOBS: dict[str, dict[str, tuple[int, ...]]] = {}

_PLAN_AXES = frozenset(DEFAULT_PLAN_KNOBS)


def register_plan_knobs(workload: str, **axes: tuple[int, ...]) -> None:
    """Declare the knobs the capacity planner may vary for ``workload``.

    Each keyword is an axis name (``num_nodes``, ``container_memory_bytes``
    or ``num_reduces``) mapped to the candidate values the planner should
    consider by default; omitted axes fall back to
    :data:`DEFAULT_PLAN_KNOBS`.  Like the profile registry, duplicate
    registrations are rejected so modules cannot silently shadow each
    other's declarations.
    """
    if workload in _PLAN_KNOBS:
        raise ConfigurationError(f"plan knobs for {workload!r} already registered")
    unknown = set(axes) - _PLAN_AXES
    if unknown:
        raise ConfigurationError(
            f"unknown plan axes {sorted(unknown)}; known: {sorted(_PLAN_AXES)}"
        )
    merged = dict(DEFAULT_PLAN_KNOBS)
    merged.update({name: tuple(values) for name, values in axes.items()})
    _PLAN_KNOBS[workload] = merged


def plan_knobs(workload: str) -> dict[str, tuple[int, ...]]:
    """The plannable knobs declared for ``workload`` (or the defaults)."""
    return dict(_PLAN_KNOBS.get(workload, DEFAULT_PLAN_KNOBS))


def model_input_from_profile(
    profile: ApplicationProfile,
    cluster: ClusterConfig,
    job_config: JobConfig,
    num_jobs: int = 1,
    slow_start: bool = True,
) -> ModelInput:
    """Build the analytic model input from first principles.

    The per-class service demands are the *uncontended* resource times of one
    task, computed with the same per-byte costs the simulator uses:

    * map — CPU for the map function, disk for reading the (data-local) split
      and writing the spills;
    * shuffle-sort — network for fetching the expected remote share of the
      reduce input, disk for writing the fetched segments;
    * merge — CPU for the final merge + reduce function, disk for the merge
      pass and the output write.
    """
    node = cluster.node
    split_bytes = job_config.split_size_bytes
    map_output = split_bytes * job_config.map_output_ratio
    total_map_output = job_config.input_size_bytes * job_config.map_output_ratio
    reduce_input = total_map_output / job_config.num_reduces
    reduce_output = reduce_input * job_config.reduce_output_ratio
    remote_fraction = (
        (cluster.num_nodes - 1) / cluster.num_nodes if cluster.num_nodes > 1 else 0.0
    )
    disk_bandwidth = node.disk_bandwidth * node.disk_count
    cv = max(profile.duration_cv, 0.05)

    map_demands = TaskClassDemands(
        cpu_seconds=profile.startup_cpu_seconds
        + profile.map_cpu_seconds_per_mib * (split_bytes / MiB) / node.cpu_speed_factor,
        disk_seconds=(split_bytes + map_output * profile.spill_write_factor) / disk_bandwidth,
        network_seconds=0.0,
        coefficient_of_variation=cv,
    )
    shuffle_demands = TaskClassDemands(
        cpu_seconds=0.0,
        disk_seconds=reduce_input / disk_bandwidth,
        network_seconds=reduce_input * remote_fraction / node.network_bandwidth,
        coefficient_of_variation=cv,
    )
    merge_demands = TaskClassDemands(
        cpu_seconds=profile.startup_cpu_seconds
        + profile.reduce_cpu_seconds_per_mib * (reduce_input / MiB) / node.cpu_speed_factor,
        disk_seconds=(reduce_input * profile.merge_write_factor + reduce_output)
        / disk_bandwidth,
        network_seconds=0.0,
        coefficient_of_variation=cv,
    )
    return ModelInput(
        num_nodes=cluster.num_nodes,
        cpu_per_node=cluster.yarn_vcores_per_node,
        disk_per_node=node.disk_count,
        max_maps_per_node=cluster.maps_per_node(),
        max_reduces_per_node=cluster.reduces_per_node(),
        num_jobs=num_jobs,
        num_maps=job_config.num_maps,
        num_reduces=job_config.num_reduces,
        demands={
            TaskClass.MAP: map_demands,
            TaskClass.SHUFFLE_SORT: shuffle_demands,
            TaskClass.MERGE: merge_demands,
        },
        slow_start=slow_start,
    )


def model_input_from_trace(
    trace: JobTrace,
    cluster: ClusterConfig,
    num_jobs: int = 1,
    slow_start: bool = True,
) -> ModelInput:
    """Build the analytic model input from a job-history trace.

    Mirrors the paper's profile-based initialisation: per-class service
    demands are the average busy times per resource observed in the trace and
    the per-class CVs are the observed coefficient of variation of the task
    durations.
    """
    map_traces = trace.map_traces()
    reduce_traces = trace.reduce_traces()
    if not map_traces or not reduce_traces:
        raise ConfigurationError("trace must contain map and reduce tasks")

    def cv_of(durations: list[float]) -> float:
        if len(durations) < 2:
            return 0.1
        mean = sum(durations) / len(durations)
        if mean <= 0:
            return 0.1
        variance = sum((value - mean) ** 2 for value in durations) / (len(durations) - 1)
        return max(0.05, variance**0.5 / mean)

    map_cv = cv_of([task.duration for task in map_traces])
    reduce_cv = cv_of([task.duration for task in reduce_traces])

    # The reduce busy times cover both subtasks; split them proportionally to
    # the observed shuffle-sort / merge wall-clock durations.
    shuffle_share_values = []
    for task in reduce_traces:
        total = task.shuffle_sort_duration + task.merge_duration
        shuffle_share_values.append(task.shuffle_sort_duration / total if total > 0 else 0.5)
    shuffle_share = sum(shuffle_share_values) / len(shuffle_share_values)

    reduce_cpu = trace.average_resource_seconds(TaskType.REDUCE, StageKind.CPU)
    reduce_disk = trace.average_resource_seconds(TaskType.REDUCE, StageKind.DISK)
    reduce_network = trace.average_resource_seconds(TaskType.REDUCE, StageKind.NETWORK)

    demands = {
        TaskClass.MAP: TaskClassDemands(
            cpu_seconds=trace.average_resource_seconds(TaskType.MAP, StageKind.CPU),
            disk_seconds=trace.average_resource_seconds(TaskType.MAP, StageKind.DISK),
            network_seconds=trace.average_resource_seconds(TaskType.MAP, StageKind.NETWORK),
            coefficient_of_variation=map_cv,
        ),
        TaskClass.SHUFFLE_SORT: TaskClassDemands(
            cpu_seconds=0.0,
            disk_seconds=reduce_disk * shuffle_share,
            network_seconds=reduce_network,
            coefficient_of_variation=reduce_cv,
        ),
        TaskClass.MERGE: TaskClassDemands(
            cpu_seconds=reduce_cpu,
            disk_seconds=reduce_disk * (1.0 - shuffle_share),
            network_seconds=0.0,
            coefficient_of_variation=reduce_cv,
        ),
    }
    return ModelInput(
        num_nodes=cluster.num_nodes,
        cpu_per_node=cluster.yarn_vcores_per_node,
        disk_per_node=cluster.node.disk_count,
        max_maps_per_node=cluster.maps_per_node(),
        max_reduces_per_node=cluster.reduces_per_node(),
        num_jobs=num_jobs,
        num_maps=trace.num_maps,
        num_reduces=trace.num_reduces,
        demands=demands,
        initial_response_times={
            TaskClass.MAP: trace.average_map_duration(),
            TaskClass.SHUFFLE_SORT: trace.average_shuffle_sort_duration(),
            TaskClass.MERGE: trace.average_merge_duration(),
        },
        slow_start=slow_start,
    )
