"""Task attempts, their lifecycle states, and their resource work stages.

The paper distinguishes (Section 4.1):

* **map** tasks (not subdivided into phases),
* **shuffle-sort** subtasks of a reduce (each shuffle + partial sort pair),
* **merge** subtasks of a reduce (final sort + reduce function + write).

In the simulator each task attempt is a sequence of :class:`WorkStage`
objects, each demanding one node resource (CPU, disk, or network).  The
boundaries between the shuffle-sort and merge stages are recorded so traces
can report the two subtask durations the analytic model needs.

Lifecycle states follow the vocabulary of Figures 2-3 of the paper
(pending → scheduled → assigned → completed), extended with an explicit
``RUNNING`` state between assignment and completion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..exceptions import SimulationError
from ..units import MiB


class TaskType(enum.Enum):
    """Kind of MapReduce task."""

    MAP = "map"
    REDUCE = "reduce"


class TaskState(enum.Enum):
    """Container-request / task lifecycle states (paper Figures 2-3)."""

    PENDING = "pending"
    SCHEDULED = "scheduled"
    ASSIGNED = "assigned"
    RUNNING = "running"
    COMPLETED = "completed"


class StageKind(enum.Enum):
    """Resource a work stage consumes."""

    CPU = "cpu"
    DISK = "disk"
    NETWORK = "network"


class SubtaskLabel(enum.Enum):
    """Which analytic-model subtask a stage belongs to."""

    MAP = "map"
    SHUFFLE_SORT = "shuffle-sort"
    MERGE = "merge"


@dataclass(slots=True)
class WorkStage:
    """One unit of sequential work within a task attempt.

    ``amount`` is measured in core-seconds for CPU stages and in bytes for
    disk and network stages.  ``remaining`` is decremented by the simulation
    engine as the stage progresses.
    """

    kind: StageKind
    amount: float
    subtask: SubtaskLabel
    remaining: float = field(init=False)
    started_at: float | None = None
    finished_at: float | None = None
    #: Precomputed completion tolerance (recomputed by :meth:`scale`).
    finish_threshold: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise SimulationError("stage amount must be non-negative")
        self.remaining = float(self.amount)
        self.finish_threshold = 1e-9 * max(1.0, self.amount)

    def scale(self, factor: float) -> None:
        """Multiply the stage's work amount by ``factor`` (before execution starts)."""
        self.amount *= factor
        self.remaining = self.amount
        self.finish_threshold = 1e-9 * max(1.0, self.amount)

    @property
    def is_finished(self) -> bool:
        """Whether all the stage's work has been processed.

        A relative tolerance is used so that floating-point residue left by
        the fluid engine (fractions of a byte on a multi-hundred-megabyte
        stage) never keeps a stage alive forever.
        """
        return self.remaining <= self.finish_threshold


@dataclass
class TaskAttempt:
    """A single attempt of a map or reduce task.

    Attributes
    ----------
    task_id:
        Cluster-unique string identifier, e.g. ``"job0_m_003"``.
    task_type:
        Map or reduce.
    job_id:
        Identifier of the owning job.
    stages:
        Sequential work stages; the attempt is complete when all stages are.
    preferred_nodes:
        Node ids where the attempt would be data-local (maps only).
    """

    task_id: str
    task_type: TaskType
    job_id: int
    stages: list[WorkStage] = field(default_factory=list)
    preferred_nodes: tuple[int, ...] = ()
    state: TaskState = TaskState.PENDING
    assigned_node: int | None = None
    container_id: int | None = None
    #: Simulation timestamps.
    scheduled_at: float | None = None
    assigned_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    #: Reduce-only: bytes of map output already fetched by the shuffle.
    shuffled_bytes: float = 0.0

    # -- stage helpers -------------------------------------------------------

    def set_stages(self, stages: list[WorkStage]) -> None:
        """Attach the work stages (done at launch time, once the node is known)."""
        if not stages:
            raise SimulationError(f"task {self.task_id} needs at least one stage")
        if self.stages:
            raise SimulationError(f"task {self.task_id} already has stages")
        self.stages = stages

    def first_unfinished_index(self) -> int | None:
        """Index of the first unfinished stage, or ``None`` when all are done.

        The execution engine caches this index per running attempt and only
        advances it on stage completion, so the linear scan here stays off the
        simulation hot path.
        """
        for index, stage in enumerate(self.stages):
            if not stage.is_finished:
                return index
        return None

    def current_stage(self) -> WorkStage | None:
        """The first unfinished stage, or ``None`` when the attempt is done."""
        index = self.first_unfinished_index()
        if index is None:
            return None
        return self.stages[index]

    @property
    def is_complete(self) -> bool:
        """Whether every stage has finished (False while stages are unset)."""
        if not self.stages:
            return False
        return all(stage.is_finished for stage in self.stages)

    @property
    def duration(self) -> float:
        """Wall-clock duration of the attempt (start of execution → finish)."""
        if self.started_at is None or self.finished_at is None:
            raise SimulationError(f"task {self.task_id} has not completed yet")
        return self.finished_at - self.started_at

    def subtask_duration(self, label: SubtaskLabel) -> float:
        """Wall-clock time spent in stages belonging to ``label``.

        Measured from the first start to the last finish of the matching
        stages (they are contiguous by construction).
        """
        starts = [s.started_at for s in self.stages if s.subtask is label and s.started_at is not None]
        ends = [s.finished_at for s in self.stages if s.subtask is label and s.finished_at is not None]
        if not starts or not ends:
            return 0.0
        return max(ends) - min(starts)

    def resource_busy_time(self, kind: StageKind) -> float:
        """Total busy time the attempt spent on resource ``kind``.

        For CPU stages the busy time is the wall-clock time of the stage (the
        stage holds the core while it runs); for disk/network stages the
        busy time is likewise the stage's wall-clock span.
        """
        total = 0.0
        for stage in self.stages:
            if stage.kind is kind and stage.started_at is not None and stage.finished_at is not None:
                total += stage.finished_at - stage.started_at
        return total

    def reset_for_reexecution(self) -> None:
        """Return the attempt to PENDING so the AM can schedule a new attempt.

        Used by the failure model when an attempt fails or its node dies:
        stages are discarded entirely (the AM rebuilds them at the next
        launch, on whatever node the new container lands) and all placement
        state and timestamps are cleared.  ``preferred_nodes`` is kept —
        data locality is a property of the split, not of the attempt.
        """
        self.stages = []
        self.state = TaskState.PENDING
        self.assigned_node = None
        self.container_id = None
        self.scheduled_at = None
        self.assigned_at = None
        self.started_at = None
        self.finished_at = None
        self.shuffled_bytes = 0.0

    # -- state transitions ----------------------------------------------------

    def mark_scheduled(self, time: float) -> None:
        """Pending → scheduled (request sent to the RM)."""
        if self.state is not TaskState.PENDING:
            raise SimulationError(
                f"task {self.task_id} cannot move to SCHEDULED from {self.state}"
            )
        self.state = TaskState.SCHEDULED
        self.scheduled_at = time

    def mark_assigned(self, time: float, node_id: int, container_id: int) -> None:
        """Scheduled → assigned (container granted)."""
        if self.state is not TaskState.SCHEDULED:
            raise SimulationError(
                f"task {self.task_id} cannot move to ASSIGNED from {self.state}"
            )
        self.state = TaskState.ASSIGNED
        self.assigned_at = time
        self.assigned_node = node_id
        self.container_id = container_id

    def mark_running(self, time: float) -> None:
        """Assigned → running (container launched by the NodeManager)."""
        if self.state is not TaskState.ASSIGNED:
            raise SimulationError(
                f"task {self.task_id} cannot move to RUNNING from {self.state}"
            )
        if not self.stages:
            raise SimulationError(
                f"task {self.task_id} cannot run without work stages"
            )
        self.state = TaskState.RUNNING
        self.started_at = time

    def mark_completed(self, time: float) -> None:
        """Running → completed."""
        if self.state is not TaskState.RUNNING:
            raise SimulationError(
                f"task {self.task_id} cannot move to COMPLETED from {self.state}"
            )
        self.state = TaskState.COMPLETED
        self.finished_at = time


# -- stage builders -----------------------------------------------------------


def build_map_stages(
    split_bytes: int,
    map_output_bytes: float,
    cpu_seconds_per_mib: float,
    spill_write_factor: float,
    startup_cpu_seconds: float,
    data_local: bool,
) -> list[WorkStage]:
    """Work stages of one map task attempt.

    read (disk if local, network if remote) → map function (CPU) →
    collect/spill/merge writes (disk).
    """
    read_kind = StageKind.DISK if data_local else StageKind.NETWORK
    cpu_work = startup_cpu_seconds + cpu_seconds_per_mib * (split_bytes / MiB)
    return [
        WorkStage(kind=read_kind, amount=float(split_bytes), subtask=SubtaskLabel.MAP),
        WorkStage(kind=StageKind.CPU, amount=cpu_work, subtask=SubtaskLabel.MAP),
        WorkStage(
            kind=StageKind.DISK,
            amount=float(map_output_bytes) * spill_write_factor,
            subtask=SubtaskLabel.MAP,
        ),
    ]


def build_reduce_stages(
    shuffle_bytes_remote: float,
    shuffle_bytes_local: float,
    reduce_input_bytes: float,
    reduce_output_bytes: float,
    cpu_seconds_per_mib: float,
    merge_write_factor: float,
    startup_cpu_seconds: float,
) -> list[WorkStage]:
    """Work stages of one reduce task attempt.

    shuffle-sort subtask: network fetch of remote map output + disk write of
    the fetched data (partial sorts); merge subtask: final sort + reduce
    function (CPU) + output write (disk).
    """
    shuffle_sort = [
        WorkStage(
            kind=StageKind.NETWORK,
            amount=float(shuffle_bytes_remote),
            subtask=SubtaskLabel.SHUFFLE_SORT,
        ),
        WorkStage(
            kind=StageKind.DISK,
            amount=float(shuffle_bytes_remote + shuffle_bytes_local),
            subtask=SubtaskLabel.SHUFFLE_SORT,
        ),
    ]
    merge_cpu = startup_cpu_seconds + cpu_seconds_per_mib * (reduce_input_bytes / MiB)
    merge = [
        WorkStage(
            kind=StageKind.DISK,
            amount=float(reduce_input_bytes) * merge_write_factor,
            subtask=SubtaskLabel.MERGE,
        ),
        WorkStage(kind=StageKind.CPU, amount=merge_cpu, subtask=SubtaskLabel.MERGE),
        WorkStage(
            kind=StageKind.DISK,
            amount=float(reduce_output_bytes),
            subtask=SubtaskLabel.MERGE,
        ),
    ]
    return shuffle_sort + merge
