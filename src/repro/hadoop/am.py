"""MapReduce ApplicationMaster (MRAppMaster) behaviour.

The AM is the per-job component that YARN delegates scheduling to (paper
Section 3.2).  The simulator's AM reproduces the behaviour the paper derives
from the ``RMContainerAllocator`` source code:

* map containers are requested at priority 20, reduce containers at priority
  10, and map requests are served first (Section 3.3, Table 1);
* map container requests carry node-locality preferences taken from the HDFS
  replica placement of the task's input split; reduce requests ask for "any
  host" (Section 3.4);
* reduce containers are only requested once the *slow start* threshold of
  completed map tasks is reached (default 5 %); with slow start disabled they
  are requested only after every map task has finished (Section 4.2.2);
* when a container is granted, the AM matches it against its pending tasks
  preferring a task whose input data lives on the container's node
  (late binding, Section 3.4).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..config import SchedulerConfig
from ..exceptions import SimulationError
from ..randomness import make_rng
from .job import MapReduceJob
from .resources import (
    ANY_LOCATION,
    Container,
    Priority,
    Resource,
    ResourceRequest,
    ResourceRequestTable,
)
from .tasks import (
    TaskAttempt,
    TaskState,
    TaskType,
    build_map_stages,
    build_reduce_stages,
)


class ContainerAsk(NamedTuple):
    """A single-container request the AM exposes to the scheduler."""

    priority: Priority
    resource: Resource
    preferred_nodes: tuple[int, ...]
    task_type: str
    task_id: str | None


class MRAppMaster:
    """Per-job ApplicationMaster driving container requests and task launch."""

    def __init__(
        self,
        job: MapReduceJob,
        scheduler_config: SchedulerConfig,
        map_resource: Resource,
        reduce_resource: Resource,
        am_resource: Resource | None = None,
        num_cluster_nodes: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.job = job
        self.scheduler_config = scheduler_config
        self.map_resource = map_resource
        self.reduce_resource = reduce_resource
        self.am_resource = am_resource or Resource(
            memory_bytes=map_resource.memory_bytes, vcores=1
        )
        self.num_cluster_nodes = num_cluster_nodes
        self._rng = make_rng(rng)
        #: True once the AM container is running and the AM has registered.
        self.registered = False
        #: Container currently hosting the AM itself.
        self.am_container: Container | None = None
        #: Whether the AM's own container has been requested already.
        self.am_requested = False
        #: Whether reduce requests have been issued.
        self.reduces_scheduled = False
        #: Containers currently held for tasks (container id → task id).
        self._held: dict[int, str] = {}
        #: Tasks indexed by id for container matching.
        self._tasks: dict[str, TaskAttempt] = {
            task.task_id: task for task in job.all_tasks
        }
        #: Tasks currently in the SCHEDULED state, in scheduling order
        #: (insertion-ordered dicts).  Maintained so each allocation pass can
        #: enumerate outstanding requests without rescanning every task.
        self._scheduled_maps: dict[str, TaskAttempt] = {}
        self._scheduled_reduces: dict[str, TaskAttempt] = {}
        #: Cached ask list; invalidated whenever the scheduled sets or the
        #: AM-container state change.
        self._asks_cache: list[ContainerAsk] | None = None
        #: Each task's ask, built once (an ask depends only on the task).
        self._task_asks: dict[str, ContainerAsk] = {}

    # -- request generation -----------------------------------------------------

    @property
    def slowstart_threshold(self) -> float:
        """Fraction of completed maps required before reduces are requested."""
        if not self.scheduler_config.slowstart_enabled:
            return 1.0
        return self.scheduler_config.slowstart_completed_maps

    def container_asks(self) -> list[ContainerAsk]:
        """Outstanding single-container asks, most urgent first.

        Ordering: the AM's own container, then map tasks (priority 20), then
        reduce tasks (priority 10) — which matches how the RM serves
        priorities (larger value first, per the paper's convention).

        The list is assembled from the incrementally maintained scheduled-task
        sets and cached between state changes, so repeated allocation passes
        do not rescan every task of the job; each task's ask is built once
        and reused by every later list.
        """
        if self._asks_cache is not None:
            return self._asks_cache
        asks: list[ContainerAsk] = []
        if not self.am_requested and self.am_container is None:
            asks.append(
                ContainerAsk(
                    priority=Priority.AM,
                    resource=self.am_resource,
                    preferred_nodes=(),
                    task_type="am",
                    task_id=None,
                )
            )
            self._asks_cache = asks
            return asks
        if not self.registered:
            self._asks_cache = asks
            return asks
        task_asks = self._task_asks
        asks = [
            task_asks.get(task_id) or self._new_task_ask(task)
            for scheduled in (self._scheduled_maps, self._scheduled_reduces)
            for task_id, task in scheduled.items()
        ]
        self._asks_cache = asks
        return asks

    def _new_task_ask(self, task: TaskAttempt) -> ContainerAsk:
        """Build (and memoise by task id) the ask of a map or reduce task."""
        is_map = task.task_type is TaskType.MAP
        respect_locality = is_map and self.scheduler_config.respect_map_locality
        ask = ContainerAsk(
            priority=Priority.MAP if is_map else Priority.REDUCE,
            resource=self.map_resource if is_map else self.reduce_resource,
            preferred_nodes=task.preferred_nodes if respect_locality else (),
            task_type=task.task_type.value,
            task_id=task.task_id,
        )
        self._task_asks[task.task_id] = ask
        return ask

    def resource_request_table(self) -> ResourceRequestTable:
        """Aggregated view of the current asks, as in paper Table 1.

        Single-container asks with the same (priority, locality, type) are
        merged into one row with a container count.
        """
        table = ResourceRequestTable()
        grouped: dict[tuple[int, str, str], int] = {}
        sizes: dict[tuple[int, str, str], Resource] = {}
        for ask in self.container_asks():
            locality = (
                f"node-{ask.preferred_nodes[0]}" if ask.preferred_nodes else ANY_LOCATION
            )
            key = (int(ask.priority), locality, ask.task_type)
            grouped[key] = grouped.get(key, 0) + 1
            sizes[key] = ask.resource
        for (priority, locality, task_type), count in grouped.items():
            table.add(
                ResourceRequest(
                    num_containers=count,
                    priority=Priority(priority),
                    resource=sizes[(priority, locality, task_type)],
                    locality=locality,
                    task_type=task_type,
                )
            )
        return table

    # -- lifecycle callbacks ------------------------------------------------------

    def on_am_container_granted(self, container: Container) -> None:
        """The RM granted the container that will host the AM itself."""
        self.am_container = container
        self.am_requested = True
        self._asks_cache = None

    def on_registered(self, time: float) -> None:
        """AM process is up: send the map requests (and reduces if trivially due)."""
        self.registered = True
        self.job.am_started_at = time
        for task in self.job.map_tasks:
            if task.state is TaskState.PENDING:
                task.mark_scheduled(time)
                self._scheduled_maps[task.task_id] = task
        self._asks_cache = None
        self._maybe_schedule_reduces(time)

    def _maybe_schedule_reduces(self, time: float) -> None:
        """Request reduce containers once the slow-start condition is met."""
        if self.reduces_scheduled:
            return
        fraction = self.job.map_completion_fraction()
        no_maps = not self.job.map_tasks
        if no_maps or fraction >= self.slowstart_threshold - 1e-12:
            for task in self.job.reduce_tasks:
                if task.state is TaskState.PENDING:
                    task.mark_scheduled(time)
                    self._scheduled_reduces[task.task_id] = task
            self.reduces_scheduled = True
            self._asks_cache = None

    def match_container(self, container: Container, hinted_task_id: str | None) -> TaskAttempt:
        """Late binding: pick the task that will actually use ``container``.

        Preference order (Section 3.4): a scheduled task of the matching type
        whose input data is local to the container's node; otherwise the
        hinted task; otherwise the first scheduled task of that type.
        """
        wanted_type = (
            TaskType.MAP if container.priority is Priority.MAP else TaskType.REDUCE
        )
        scheduled = (
            self._scheduled_maps
            if wanted_type is TaskType.MAP
            else self._scheduled_reduces
        )
        candidates = list(scheduled.values())
        if not candidates:
            raise SimulationError(
                f"job {self.job.job_id}: container granted but no {wanted_type.value} "
                "task is waiting"
            )
        if wanted_type is TaskType.MAP:
            for task in candidates:
                if container.node_id in task.preferred_nodes:
                    return task
        if hinted_task_id is not None:
            for task in candidates:
                if task.task_id == hinted_task_id:
                    return task
        return candidates[0]

    def on_container_granted(
        self, container: Container, time: float, hinted_task_id: str | None = None
    ) -> TaskAttempt:
        """Bind a granted task container to a concrete task attempt."""
        task = self.match_container(container, hinted_task_id)
        task.mark_assigned(time, node_id=container.node_id, container_id=container.container_id)
        if task.task_type is TaskType.MAP:
            self._scheduled_maps.pop(task.task_id, None)
        else:
            self._scheduled_reduces.pop(task.task_id, None)
        self._asks_cache = None
        container.assigned_task = task.task_id
        self._held[container.container_id] = task.task_id
        return task

    # -- failure-model hooks -----------------------------------------------------

    def reschedule_task(self, task: TaskAttempt, time: float) -> None:
        """Return a failed or killed attempt to the container-request pipeline.

        The attempt is reset to PENDING, marked scheduled again, and re-enters
        the scheduled sets, so the new attempt flows through the exact same
        RM/NM grant-and-launch path as the first one.
        """
        if task.container_id is not None:
            self._held.pop(task.container_id, None)
        task.reset_for_reexecution()
        task.mark_scheduled(time)
        if task.task_type is TaskType.MAP:
            self._scheduled_maps[task.task_id] = task
        else:
            self._scheduled_reduces[task.task_id] = task
        self._asks_cache = None

    def schedule_speculative(self, clone: TaskAttempt, time: float) -> None:
        """Request a container for a backup attempt of a straggling task."""
        self._tasks[clone.task_id] = clone
        clone.mark_scheduled(time)
        if clone.task_type is TaskType.MAP:
            self._scheduled_maps[clone.task_id] = clone
        else:
            self._scheduled_reduces[clone.task_id] = clone
        self._asks_cache = None

    def on_task_killed(self, task: TaskAttempt) -> None:
        """Drop all AM bookkeeping for a killed attempt (speculative loser)."""
        if task.container_id is not None:
            self._held.pop(task.container_id, None)
        if task.task_type is TaskType.MAP:
            self._scheduled_maps.pop(task.task_id, None)
        else:
            self._scheduled_reduces.pop(task.task_id, None)
        self._asks_cache = None

    def _duration_factor(self) -> float:
        """Log-normal multiplicative jitter applied to a task's work amounts.

        Mean 1, coefficient of variation ``profile.duration_cv`` — models the
        task-duration variability (stragglers) observed on real clusters.
        """
        cv = self.job.profile.duration_cv
        if cv <= 0:
            return 1.0
        sigma2 = math.log(1.0 + cv**2)
        mu = -0.5 * sigma2
        return float(self._rng.lognormal(mean=mu, sigma=math.sqrt(sigma2)))

    def build_stages(self, task: TaskAttempt) -> None:
        """Create the work stages of ``task`` for its assigned node."""
        if task.assigned_node is None:
            raise SimulationError(f"task {task.task_id} has no assigned node")
        profile = self.job.profile
        if task.task_type is TaskType.MAP:
            split = self.job.split_for(task)
            data_local = task.assigned_node in split.preferred_nodes
            stages = build_map_stages(
                split_bytes=split.size_bytes,
                map_output_bytes=self.job.map_output_bytes(split),
                cpu_seconds_per_mib=profile.map_cpu_seconds_per_mib,
                spill_write_factor=profile.spill_write_factor,
                startup_cpu_seconds=profile.startup_cpu_seconds,
                data_local=data_local,
            )
        else:
            remote_bytes, local_bytes = self._expected_shuffle_split(task.assigned_node)
            stages = build_reduce_stages(
                shuffle_bytes_remote=remote_bytes,
                shuffle_bytes_local=local_bytes,
                reduce_input_bytes=self.job.reduce_input_bytes,
                reduce_output_bytes=self.job.reduce_output_bytes,
                cpu_seconds_per_mib=profile.reduce_cpu_seconds_per_mib,
                merge_write_factor=profile.merge_write_factor,
                startup_cpu_seconds=profile.startup_cpu_seconds,
            )
        factor = self._duration_factor()
        if factor != 1.0:
            for stage in stages:
                stage.scale(factor)
        task.set_stages(stages)

    def _expected_shuffle_split(self, reduce_node: int) -> tuple[float, float]:
        """(remote, local) shuffle bytes expected for a reducer on ``reduce_node``.

        Maps already assigned contribute according to their actual node; maps
        not yet assigned contribute the expected remote fraction
        ``(n - 1) / n`` for a cluster of ``n`` nodes.
        """
        remote = 0.0
        local = 0.0
        n = max(1, self.num_cluster_nodes)
        expected_remote_fraction = (n - 1) / n
        for index, task in enumerate(self.job.map_tasks):
            share = self.job.map_output_bytes(self.job.splits[index]) / self.job.num_reduces
            if task.assigned_node is None:
                remote += share * expected_remote_fraction
                local += share * (1.0 - expected_remote_fraction)
            elif task.assigned_node == reduce_node:
                local += share
            else:
                remote += share
        return remote, local

    def on_task_completed(self, task: TaskAttempt, time: float) -> None:
        """Handle task completion: progress bookkeeping and slow-start check."""
        if task.container_id is not None:
            self._held.pop(task.container_id, None)
        if task.task_type is TaskType.MAP:
            self._maybe_schedule_reduces(time)

    def held_containers(self) -> int:
        """Number of task containers the AM currently holds (Fair scheduler metric)."""
        return len(self._held)

    @property
    def is_finished(self) -> bool:
        """Whether the job has fully completed."""
        return self.job.is_complete
