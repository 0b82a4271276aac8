"""MapReduce job definition used by the simulator.

A :class:`MapReduceJob` pairs a :class:`~repro.config.JobConfig` (input size,
block size, number of reducers — the "static resource requirements" of paper
Section 3.3) with a :class:`JobResourceProfile` describing how much CPU and
I/O work each byte of data costs.  The job owns its map and reduce
:class:`~repro.hadoop.tasks.TaskAttempt` objects and tracks dataflow volumes
(map output per reducer, shuffle sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import JobConfig
from ..exceptions import ConfigurationError, SimulationError
from .hdfs import InputSplit
from .tasks import TaskAttempt, TaskState, TaskType


@dataclass(frozen=True)
class JobResourceProfile:
    """Per-byte resource cost profile of a MapReduce application.

    The defaults approximate the WordCount job used by the paper's
    evaluation (map-and-reduce-input heavy, per Shi et al. [8]); other
    applications ship their own profiles in :mod:`repro.workloads`.
    """

    #: CPU core-seconds needed to apply the map function to one MiB of input.
    map_cpu_seconds_per_mib: float = 0.28
    #: CPU core-seconds needed to merge/reduce one MiB of reduce input.
    reduce_cpu_seconds_per_mib: float = 0.20
    #: Bytes written to local disk per byte of map output (spill + merge passes).
    spill_write_factor: float = 1.5
    #: Bytes written/read per byte of reduce input during the final merge.
    merge_write_factor: float = 1.0
    #: Fixed per-task CPU overhead (JVM + container start), seconds.
    startup_cpu_seconds: float = 2.0
    #: Fixed overhead for launching the ApplicationMaster, seconds.
    am_startup_seconds: float = 2.5
    #: Overhead between container grant and task launch, seconds.
    container_launch_seconds: float = 0.8
    #: Coefficient of variation of per-stage work amounts (log-normal jitter).
    #: Real clusters exhibit substantial task-duration variability
    #: (stragglers); 0 makes the simulator fully deterministic.
    duration_cv: float = 0.3

    def __post_init__(self) -> None:
        for name in (
            "map_cpu_seconds_per_mib",
            "reduce_cpu_seconds_per_mib",
            "spill_write_factor",
            "merge_write_factor",
            "startup_cpu_seconds",
            "am_startup_seconds",
            "container_launch_seconds",
            "duration_cv",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


@dataclass
class MapReduceJob:
    """One MapReduce job: configuration, profile, splits, and task attempts."""

    job_id: int
    config: JobConfig
    profile: JobResourceProfile
    splits: list[InputSplit]
    map_tasks: list[TaskAttempt] = field(default_factory=list)
    reduce_tasks: list[TaskAttempt] = field(default_factory=list)
    #: Simulation timestamps of the job's life.
    submitted_at: float | None = None
    am_started_at: float | None = None
    finished_at: float | None = None
    #: Incremental counters of completed map output (total and per node),
    #: maintained by :meth:`record_map_completion` so the shuffle-availability
    #: queries used on every engine event stay O(1).
    _completed_output_total: float = field(default=0.0, repr=False)
    _completed_output_by_node: dict[int, float] = field(default_factory=dict, repr=False)
    _completed_map_count: int = field(default=0, repr=False)
    #: Bumped whenever the completed map output changes (a map completes or
    #: its output is lost), so the engine re-checks shuffle stalls only then.
    map_output_version: int = field(default=0, repr=False, compare=False)
    #: Completed tasks of any type, maintained by :meth:`record_task_completion`
    #: (fast path for :attr:`is_complete`).
    _completed_task_count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if len(self.splits) != self.config.num_maps:
            raise ConfigurationError(
                f"job {self.job_id}: {len(self.splits)} splits but "
                f"{self.config.num_maps} map tasks expected"
            )
        if not self.map_tasks:
            self.map_tasks = [
                TaskAttempt(
                    task_id=f"job{self.job_id}_m_{index:04d}",
                    task_type=TaskType.MAP,
                    job_id=self.job_id,
                    preferred_nodes=split.preferred_nodes,
                )
                for index, split in enumerate(self.splits)
            ]
        if not self.reduce_tasks:
            self.reduce_tasks = [
                TaskAttempt(
                    task_id=f"job{self.job_id}_r_{index:04d}",
                    task_type=TaskType.REDUCE,
                    job_id=self.job_id,
                )
                for index in range(self.config.num_reduces)
            ]
        #: task_id → attempt and task_id → map index lookups, built once so the
        #: simulator's per-event task resolution and the shuffle bookkeeping
        #: stay O(1) instead of scanning (and deep-comparing) the task lists.
        self._task_by_id: dict[str, TaskAttempt] = {
            task.task_id: task for task in self.map_tasks + self.reduce_tasks
        }
        self._map_index: dict[str, int] = {
            task.task_id: index for index, task in enumerate(self.map_tasks)
        }

    # -- structural properties -------------------------------------------------

    @property
    def num_maps(self) -> int:
        """Number of map tasks."""
        return len(self.map_tasks)

    @property
    def num_reduces(self) -> int:
        """Number of reduce tasks."""
        return len(self.reduce_tasks)

    @property
    def all_tasks(self) -> list[TaskAttempt]:
        """Map tasks followed by reduce tasks."""
        return self.map_tasks + self.reduce_tasks

    def task_by_id(self, task_id: str) -> TaskAttempt:
        """The attempt with identifier ``task_id`` (O(1))."""
        try:
            return self._task_by_id[task_id]
        except KeyError as exc:
            raise SimulationError(f"unknown task {task_id}") from exc

    def split_for(self, map_task: TaskAttempt) -> InputSplit:
        """The input split processed by ``map_task``."""
        try:
            index = self._map_index[map_task.task_id]
        except KeyError as exc:
            raise SimulationError(f"task {map_task.task_id} is not a map task") from exc
        return self.splits[index]

    # -- dataflow volumes --------------------------------------------------------

    def map_output_bytes(self, split: InputSplit) -> float:
        """Bytes of intermediate data produced by the map over ``split``."""
        return split.size_bytes * self.config.map_output_ratio

    @property
    def total_map_output_bytes(self) -> float:
        """Total intermediate bytes produced by all map tasks."""
        return sum(self.map_output_bytes(split) for split in self.splits)

    @property
    def reduce_input_bytes(self) -> float:
        """Bytes of intermediate data each reduce task consumes (uniform partitioning)."""
        return self.total_map_output_bytes / self.num_reduces

    @property
    def reduce_output_bytes(self) -> float:
        """Bytes of final output each reduce task writes."""
        return self.reduce_input_bytes * self.config.reduce_output_ratio

    # -- progress tracking --------------------------------------------------------

    def record_map_completion(self, task: TaskAttempt) -> None:
        """Update the incremental shuffle-availability counters for ``task``.

        Called by the simulator when a map task completes; safe to call at
        most once per task.
        """
        index = self._map_index[task.task_id]
        output = self.map_output_bytes(self.splits[index])
        self._completed_output_total += output
        node = task.assigned_node if task.assigned_node is not None else -1
        self._completed_output_by_node[node] = (
            self._completed_output_by_node.get(node, 0.0) + output
        )
        self._completed_map_count += 1
        self.map_output_version += 1

    def completed_maps(self) -> int:
        """Number of map tasks that have completed."""
        if self._completed_map_count:
            return self._completed_map_count
        return sum(1 for task in self.map_tasks if task.state is TaskState.COMPLETED)

    def map_completion_fraction(self) -> float:
        """Fraction of completed map tasks (0..1)."""
        if not self.map_tasks:
            return 1.0
        return self.completed_maps() / len(self.map_tasks)

    def record_task_completion(self, task: TaskAttempt) -> None:
        """Count a completed task (simulator hook keeping :attr:`is_complete` O(1))."""
        self._completed_task_count += 1

    # -- failure-model hooks -----------------------------------------------------

    def invalidate_map_completion(self, task: TaskAttempt) -> None:
        """Exact inverse of a recorded map completion (node-failure output loss).

        Called when the node holding ``task``'s map output dies: the bytes
        become unfetchable, so the incremental shuffle-availability counters
        and the completion counters are decremented by exactly the amounts
        :meth:`record_map_completion` / :meth:`record_task_completion` added.
        Running reducers that already counted those bytes simply stall until
        the re-executed map completes again (the shuffle layer clamps
        negative availability to a stall).
        """
        index = self._map_index[task.task_id]
        output = self.map_output_bytes(self.splits[index])
        self._completed_output_total -= output
        node = task.assigned_node if task.assigned_node is not None else -1
        self._completed_output_by_node[node] = (
            self._completed_output_by_node.get(node, 0.0) - output
        )
        self._completed_map_count -= 1
        self._completed_task_count -= 1
        self.map_output_version += 1

    def register_speculative_attempt(
        self, clone: TaskAttempt, original: TaskAttempt
    ) -> None:
        """Make a backup attempt addressable by id (and by split, for maps)."""
        self._task_by_id[clone.task_id] = clone
        if clone.task_type is TaskType.MAP:
            self._map_index[clone.task_id] = self._map_index[original.task_id]

    def adopt_speculative_winner(
        self, clone: TaskAttempt, original: TaskAttempt
    ) -> None:
        """Replace ``original`` with its winning backup in the task lists.

        After this, every aggregate view (trace building, subtask durations,
        shuffle accounting) sees the attempt that actually finished.
        """
        if clone.task_type is TaskType.MAP:
            self.map_tasks[self._map_index[original.task_id]] = clone
        else:
            self.reduce_tasks[self.reduce_tasks.index(original)] = clone

    @property
    def is_complete(self) -> bool:
        """Whether every task of the job has completed."""
        if self._completed_task_count:
            # The simulator counts every completion through
            # :meth:`record_task_completion`, so the counter is authoritative.
            return self._completed_task_count >= len(self.map_tasks) + len(self.reduce_tasks)
        return all(task.state is TaskState.COMPLETED for task in self.map_tasks) and all(
            task.state is TaskState.COMPLETED for task in self.reduce_tasks
        )

    @property
    def response_time(self) -> float:
        """Job response time: submission → completion of the last task."""
        if self.submitted_at is None or self.finished_at is None:
            raise SimulationError(f"job {self.job_id} has not finished yet")
        return self.finished_at - self.submitted_at

    def shuffle_remote_available_bytes(self, reduce_node: int | None) -> float:
        """Remote intermediate bytes currently fetchable by a reducer on ``reduce_node``.

        Only output of *completed* map tasks counts, and only the portion
        produced on a node different from the reducer's (same-node output is
        read from local disk, not over the network).
        """
        local = (
            self._completed_output_by_node.get(reduce_node, 0.0)
            if reduce_node is not None
            else 0.0
        )
        return (self._completed_output_total - local) / self.num_reduces

    def all_maps_completed(self) -> bool:
        """Whether every map task has completed."""
        return self._completed_map_count >= len(self.map_tasks)
