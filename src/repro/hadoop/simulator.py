"""Cluster simulator facade.

:class:`ClusterSimulator` wires together the YARN components (cluster, HDFS
namespace, ResourceManager + scheduler, per-job ApplicationMasters,
NodeManagers) with the fluid execution engine and runs the discrete-event
loop until every submitted job completes.

Typical use::

    from repro.config import ClusterConfig, JobConfig, SchedulerConfig
    from repro.hadoop import ClusterSimulator

    simulator = ClusterSimulator(ClusterConfig(num_nodes=4), SchedulerConfig(), seed=7)
    simulator.submit_job(JobConfig(input_size_bytes=gigabytes(1), num_reduces=4))
    result = simulator.run()
    print(result.job_traces[0].response_time)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..config import ClusterConfig, FailureSpec, JobConfig, SchedulerConfig
from ..exceptions import SimulationError
from ..randomness import make_rng, spawn
from .am import MRAppMaster
from .cluster import Cluster
from .engine import INFINITY, ExecutionEngine
from .events import EventKind, EventQueue
from .failures import FailureModel
from .hdfs import HdfsNamespace
from .job import JobResourceProfile, MapReduceJob
from .metrics import SimulationMetrics
from .nm import NodeManager
from .resources import Container, Priority, Resource
from .rm import ResourceManager
from .scheduler import create_scheduler
from .shuffle import ShuffleTracker
from .tasks import TaskAttempt, TaskState, TaskType
from .trace import JobTrace, build_job_trace

#: Safety bound on the number of event-loop iterations.
_MAX_ITERATIONS = 2_000_000


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    The per-job history traces are built on first access to
    :attr:`job_traces`: a caller that only needs response times (most
    repetitions of a prediction) never pays for them.
    """

    #: The completed jobs, in job-id order.
    jobs: list[MapReduceJob]
    metrics: SimulationMetrics
    makespan: float
    num_nodes: int
    #: Launched attempts per task id (failure injection only).
    attempt_counts: dict[str, int] | None = None

    @cached_property
    def job_traces(self) -> list[JobTrace]:
        """History trace of every job, in job-id order."""
        return [
            build_job_trace(job, num_nodes=self.num_nodes, attempt_counts=self.attempt_counts)
            for job in self.jobs
        ]

    @property
    def response_times(self) -> list[float]:
        """Response times of all jobs, in job-id order."""
        return [job.response_time for job in self.jobs]

    @property
    def mean_response_time(self) -> float:
        """Average job response time across all submitted jobs."""
        times = self.response_times
        if not times:
            return 0.0
        return sum(times) / len(times)


@dataclass
class _JobContext:
    """Internal per-job simulation state."""

    job: MapReduceJob
    app_master: MRAppMaster
    am_container: Container | None = None
    containers: dict[str, Container] = field(default_factory=dict)


@dataclass
class _SpeculationPair:
    """A straggling attempt and its speculative backup; first finisher wins."""

    original: TaskAttempt
    clone: TaskAttempt
    resolved: bool = False
    winner: TaskAttempt | None = None

    def is_backup(self, task: TaskAttempt) -> bool:
        """Whether ``task`` is the clone and was not adopted as the winner.

        An adopted clone is the job's attempt of record: when its output is
        lost and its re-execution fails or is killed, it must run again.
        """
        return task is self.clone and self.winner is not task


class ClusterSimulator:
    """Discrete-event simulator of a YARN cluster running MapReduce jobs."""

    def __init__(
        self,
        cluster_config: ClusterConfig,
        scheduler_config: SchedulerConfig | None = None,
        seed: int | None = None,
        failures: FailureSpec | None = None,
    ) -> None:
        self.cluster_config = cluster_config
        self.scheduler_config = scheduler_config or SchedulerConfig()
        self.cluster = Cluster(cluster_config)
        self._rng = make_rng(seed)
        self.hdfs = HdfsNamespace(self.cluster, seed=seed)
        self.resource_manager = ResourceManager(
            self.cluster, create_scheduler(self.scheduler_config.scheduler_name)
        )
        self.node_managers = {
            node.node_id: NodeManager(node=node) for node in self.cluster
        }
        self.metrics = SimulationMetrics()
        self._jobs: dict[int, MapReduceJob] = {}
        self._contexts: dict[int, _JobContext] = {}
        self._events = EventQueue()
        self._engine = ExecutionEngine(self.cluster, ShuffleTracker(self._jobs))
        self._next_job_id = 0
        self._now = 0.0
        self._finished = False
        #: Jobs that have not completed yet (keeps the per-event loop O(1)).
        self._pending_jobs: set[int] = set()
        #: Whether cluster capacity or outstanding requests changed since the
        #: last allocation pass.  A scheduler pass is deterministic over an
        #: unchanged (capacity, requests) state and grants nothing on a rerun,
        #: so skipping redundant passes is behaviour-preserving.
        self._needs_allocation = True
        #: Failure injection.  A no-op spec leaves the model unset so the
        #: failure-free path performs zero extra work (and zero extra RNG
        #: draws), keeping traces bit-identical to a run without a spec.
        self.failure_spec = failures
        self._failure_model: FailureModel | None = None
        if failures is not None and not failures.is_noop:
            self._failure_model = FailureModel(failures, seed=seed or 0)
            for occurrence, time in enumerate(failures.node_failure_times):
                self._events.push(time, EventKind.NODE_FAILURE, occurrence)
        #: Per-task launch counter (attempt numbers for the failure draws).
        self._attempt_numbers: dict[str, int] = {}
        #: Task ids whose *current* attempt is destined to fail.
        self._doomed: set[str] = set()
        #: Speculation state, keyed by both the original's and the clone's id.
        self._spec_pairs: dict[str, _SpeculationPair] = {}
        #: Pending TASK_LAUNCH events to ignore (their container was killed
        #: before launch); a count per task id so a later re-grant's launch
        #: event is not swallowed by mistake.
        self._skip_launches: dict[str, int] = {}

    # -- job submission ------------------------------------------------------------

    def submit_job(
        self,
        job_config: JobConfig,
        profile: JobResourceProfile | None = None,
    ) -> MapReduceJob:
        """Register a job to be submitted at ``job_config.submission_time``."""
        if self._finished:
            raise SimulationError("cannot submit jobs to a finished simulation")
        profile = profile or JobResourceProfile()
        splits = self.hdfs.splits_for_job(job_config)
        job = MapReduceJob(
            job_id=self._next_job_id,
            config=job_config,
            profile=profile,
            splits=splits,
        )
        self._next_job_id += 1
        app_master = MRAppMaster(
            job=job,
            scheduler_config=self.scheduler_config,
            map_resource=Resource.from_spec(self.cluster_config.map_container),
            reduce_resource=Resource.from_spec(self.cluster_config.reduce_container),
            num_cluster_nodes=len(self.cluster),
            rng=spawn(self._rng, 1)[0],
        )
        self._jobs[job.job_id] = job
        self._contexts[job.job_id] = _JobContext(job=job, app_master=app_master)
        self._pending_jobs.add(job.job_id)
        self._events.push(job_config.submission_time, EventKind.JOB_SUBMIT, job.job_id)
        return job

    # -- main loop ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run the simulation until all submitted jobs complete."""
        if not self._jobs:
            raise SimulationError("no jobs submitted")
        if self._finished:
            raise SimulationError("simulation already ran")

        for _ in range(_MAX_ITERATIONS):
            if self._all_jobs_complete():
                break
            progressed = self._allocate()
            next_completion = self._engine.time_to_next_completion()
            next_event_time = self._events.peek_time()
            candidates = []
            if next_completion is not INFINITY:
                candidates.append(self._now + next_completion)
            if next_event_time is not None:
                candidates.append(max(next_event_time, self._now))
            if not candidates:
                if progressed:
                    # Allocation granted containers whose launch events were
                    # scheduled; loop again to pick them up.
                    continue
                raise SimulationError(
                    "simulation deadlock: no runnable work and no pending events "
                    f"at t={self._now:.2f}"
                )
            next_time = min(candidates)
            self._advance_to(next_time)
        else:
            raise SimulationError("simulation exceeded the iteration safety bound")

        self._finished = True
        return SimulationResult(
            jobs=list(self._jobs.values()),
            metrics=self.metrics,
            makespan=self.metrics.makespan,
            num_nodes=len(self.cluster),
            attempt_counts=self._attempt_numbers if self._failure_model else None,
        )

    # -- internals ---------------------------------------------------------------------

    def _all_jobs_complete(self) -> bool:
        return not self._pending_jobs

    def _advance_to(self, time: float) -> None:
        """Advance the fluid engine to ``time`` and process everything due."""
        dt = time - self._now
        if dt < -1e-9:
            raise SimulationError("time went backwards")
        completed = self._engine.advance(max(dt, 0.0), time)
        self._now = time
        for attempt in completed:
            self._on_task_completed(attempt)
        for event in self._events.pop_until(time):
            if event.kind is EventKind.JOB_SUBMIT:
                self._on_job_submit(event.payload)
            elif event.kind is EventKind.AM_READY:
                self._on_am_ready(event.payload)
            elif event.kind is EventKind.TASK_LAUNCH:
                self._on_task_launch(event.payload)
            elif event.kind is EventKind.NODE_FAILURE:
                self._on_node_failure(event.payload)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {event.kind}")

    def _allocate(self) -> bool:
        """Run one RM allocation pass; returns True if anything was granted.

        Passes are only run when capacity was released or new requests
        appeared since the previous pass; a rerun over unchanged state is a
        deterministic no-op (capacity only shrank since the last pass, so an
        ask that could not be placed then cannot be placed now).
        """
        if not self._needs_allocation:
            return False
        self._needs_allocation = False
        grants = self.resource_manager.allocate(self._now)
        if grants:
            self.metrics.allocation_passes += 1
        for grant in grants:
            context = self._contexts[grant.application.job.job_id]
            container = grant.container
            self.metrics.record_grant(container)
            node_manager = self.node_managers[container.node_id]
            ready_at = node_manager.start_container(container, self._now)
            if container.priority is Priority.AM:
                context.am_container = container
                grant.application.on_am_container_granted(container)
                self._events.push(
                    self._now + grant.application.job.profile.am_startup_seconds,
                    EventKind.AM_READY,
                    container.job_id,
                )
                continue
            task = grant.application.on_container_granted(
                container, self._now, grant.hinted_task_id
            )
            context.containers[task.task_id] = container
            launch_delay = grant.application.job.profile.container_launch_seconds
            self._events.push(
                max(ready_at, self._now + launch_delay),
                EventKind.TASK_LAUNCH,
                (container.job_id, task.task_id),
            )
        return bool(grants)

    def _on_job_submit(self, job_id: int) -> None:
        job = self._jobs[job_id]
        job.submitted_at = self._now
        self.resource_manager.submit_application(self._contexts[job_id].app_master)
        self._needs_allocation = True

    def _on_am_ready(self, job_id: int) -> None:
        context = self._contexts[job_id]
        context.app_master.on_registered(self._now)
        self._needs_allocation = True

    def _on_task_launch(self, payload: tuple[int, str]) -> None:
        job_id, task_id = payload
        skips = self._skip_launches.get(task_id)
        if skips:
            # The container behind this launch event was killed (node failure
            # or losing speculative attempt) before the task started.
            if skips == 1:
                del self._skip_launches[task_id]
            else:
                self._skip_launches[task_id] = skips - 1
            return
        context = self._contexts[job_id]
        task = context.job.task_by_id(task_id)
        context.app_master.build_stages(task)
        if self._failure_model is not None:
            self._apply_failure_plan(context, task)
        task.mark_running(self._now)
        if task.task_type is TaskType.MAP:
            split = context.job.split_for(task)
            data_local = task.assigned_node in split.preferred_nodes
        else:
            data_local = False
        self.metrics.record_launch(task, data_local)
        self._engine.add_task(task, self._now)

    def _on_task_completed(self, task: TaskAttempt) -> None:
        if self._failure_model is not None:
            if task.task_id in self._doomed:
                self._doomed.discard(task.task_id)
                self._on_task_failed(task)
                return
            pair = self._spec_pairs.get(task.task_id)
            if pair is not None:
                if pair.resolved:
                    if pair.winner is not task:
                        # Losing attempt finishing in the same engine batch as
                        # the winner; it has already been torn down.
                        return
                else:
                    self._resolve_speculation(pair, task)
        task.mark_completed(self._now)
        context = self._contexts[task.job_id]
        context.job.record_task_completion(task)
        if task.task_type is TaskType.MAP:
            context.job.record_map_completion(task)
        self.metrics.record_completion(task, self._now)
        container = context.containers.pop(task.task_id, None)
        if container is not None:
            self.node_managers[container.node_id].stop_container(container, self._now)
            self.resource_manager.release_container(container, self._now)
        context.app_master.on_task_completed(task, self._now)
        self._needs_allocation = True
        if context.job.is_complete:
            self._finish_job(context)

    def _finish_job(self, context: _JobContext) -> None:
        context.job.finished_at = self._now
        if context.am_container is not None:
            self.node_managers[context.am_container.node_id].stop_container(
                context.am_container, self._now
            )
            self.resource_manager.release_container(context.am_container, self._now)
            context.am_container = None
        self.resource_manager.unregister_application(context.app_master)
        self._pending_jobs.discard(context.job.job_id)

    # -- failure injection ---------------------------------------------------------

    def _apply_failure_plan(self, context: _JobContext, task: TaskAttempt) -> None:
        """Decide this attempt's fate at launch time (straggler / doomed / backup).

        A straggler scales every stage by the slowdown factor; a doomed
        attempt additionally truncates its stages to the work done before the
        failure point, so the engine "completes" it exactly when the failure
        strikes and :meth:`_on_task_completed` routes it to the failure path.
        """
        model = self._failure_model
        attempt = self._attempt_numbers.get(task.task_id, 0) + 1
        self._attempt_numbers[task.task_id] = attempt
        factor = model.straggler_factor(task.task_id, attempt)
        if factor != 1.0:
            for stage in task.stages:
                stage.scale(factor)
        if model.attempt_fails(task.task_id, attempt):
            point = model.failure_point(task.task_id, attempt)
            for stage in task.stages:
                stage.scale(point)
            self._doomed.add(task.task_id)
        if (
            model.spec.speculative
            and factor != 1.0
            and task.task_id not in self._spec_pairs
        ):
            self._launch_speculative(context, task)

    def _launch_speculative(self, context: _JobContext, task: TaskAttempt) -> None:
        """Request a backup attempt for a straggler; first finisher wins."""
        clone = TaskAttempt(
            task_id=task.task_id + "~spec",
            task_type=task.task_type,
            job_id=task.job_id,
            preferred_nodes=task.preferred_nodes,
        )
        context.job.register_speculative_attempt(clone, task)
        context.app_master.schedule_speculative(clone, self._now)
        pair = _SpeculationPair(original=task, clone=clone)
        self._spec_pairs[task.task_id] = pair
        self._spec_pairs[clone.task_id] = pair
        self.metrics.speculative_launched += 1
        self._needs_allocation = True

    def _on_task_failed(self, task: TaskAttempt) -> None:
        """A doomed attempt hit its failure point: tear down and re-execute."""
        context = self._contexts[task.job_id]
        self.metrics.task_failures += 1
        container = context.containers.pop(task.task_id, None)
        if container is not None:
            self.node_managers[container.node_id].stop_container(container, self._now)
            self.resource_manager.release_container(container, self._now)
        pair = self._spec_pairs.get(task.task_id)
        if pair is not None and pair.is_backup(task):
            # A failed backup just dies; the original attempt is still live.
            if not pair.resolved:
                pair.resolved = True
                pair.winner = pair.original
            context.app_master.on_task_killed(task)
            self._needs_allocation = True
            return
        context.app_master.reschedule_task(task, self._now)
        self.metrics.task_reexecutions += 1
        self._needs_allocation = True

    def _resolve_speculation(self, pair: _SpeculationPair, winner: TaskAttempt) -> None:
        """First finisher wins: adopt the winner, kill the other attempt."""
        pair.resolved = True
        pair.winner = winner
        context = self._contexts[winner.job_id]
        loser = pair.clone if winner is pair.original else pair.original
        if winner is pair.clone:
            context.job.adopt_speculative_winner(pair.clone, pair.original)
            self.metrics.speculative_wins += 1
        self._kill_attempt(context, loser)

    def _kill_attempt(self, context: _JobContext, task: TaskAttempt) -> None:
        """Tear down a live attempt without re-executing it (speculative loser)."""
        self._doomed.discard(task.task_id)
        self._engine.remove_task(task)
        container = context.containers.pop(task.task_id, None)
        if container is not None:
            self.node_managers[container.node_id].stop_container(container, self._now)
            self.resource_manager.release_container(container, self._now)
            self.metrics.containers_killed += 1
            if task.state is TaskState.ASSIGNED:
                # Granted but not launched: swallow the pending launch event.
                self._skip_launches[task.task_id] = (
                    self._skip_launches.get(task.task_id, 0) + 1
                )
        context.app_master.on_task_killed(task)
        self._needs_allocation = True

    def _on_node_failure(self, occurrence: int) -> None:
        """A whole node dies: kill its containers, lose its map outputs.

        Mirrors Hadoop semantics: running attempts are re-executed elsewhere,
        and the map outputs stored on the node become unfetchable, forcing
        re-execution of the affected completed maps (reducers stall until the
        output is regenerated).  Nodes hosting an ApplicationMaster are never
        picked (AM recovery is out of scope), and the last alive node is
        never killed so jobs can always finish.
        """
        model = self._failure_model
        am_nodes = {
            ctx.am_container.node_id
            for ctx in self._contexts.values()
            if ctx.am_container is not None
        }
        alive = sum(1 for node in self.cluster if node.alive)
        eligible = [
            node.node_id
            for node in self.cluster
            if node.alive and node.node_id not in am_nodes
        ]
        if not eligible or alive < 2:
            return
        victim_id = model.pick_victim(eligible, occurrence)
        node = self.cluster.node(victim_id)
        node.alive = False
        self.metrics.node_failures += 1
        node_manager = self.node_managers[victim_id]
        for container in list(node_manager.running_containers):
            context = self._contexts[container.job_id]
            task = context.job.task_by_id(container.assigned_task)
            self._doomed.discard(task.task_id)
            self._engine.remove_task(task)
            context.containers.pop(task.task_id, None)
            node_manager.stop_container(container, self._now)
            self.resource_manager.release_container(container, self._now)
            self.metrics.containers_killed += 1
            if task.state is TaskState.ASSIGNED:
                self._skip_launches[task.task_id] = (
                    self._skip_launches.get(task.task_id, 0) + 1
                )
            pair = self._spec_pairs.get(task.task_id)
            if pair is not None and pair.is_backup(task):
                if not pair.resolved:
                    pair.resolved = True
                    pair.winner = pair.original
                context.app_master.on_task_killed(task)
                continue
            context.app_master.reschedule_task(task, self._now)
            self.metrics.task_reexecutions += 1
        # Completed map outputs stored on the victim are gone: invalidate the
        # shuffle-availability counters (exact inverse of the completion
        # bookkeeping) and re-execute those maps through the normal AM path.
        for job_id in list(self._pending_jobs):
            context = self._contexts[job_id]
            for task in context.job.map_tasks:
                if (
                    task.state is TaskState.COMPLETED
                    and task.assigned_node == victim_id
                ):
                    context.job.invalidate_map_completion(task)
                    context.app_master.reschedule_task(task, self._now)
                    self.metrics.maps_invalidated += 1
                    self.metrics.task_reexecutions += 1
        self._needs_allocation = True
