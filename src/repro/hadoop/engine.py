"""Fluid processor-sharing execution engine (incremental core).

The engine advances the work stages of all running task attempts between
discrete events.  Between two events the set of active stages is constant, so
each stage progresses at a constant rate determined by the
:class:`~repro.hadoop.contention.SharingModel`; the next interesting instant
is the earliest stage completion (or shuffle stall boundary).

Each event costs work proportional to what changed, not to everything that
runs:

* **Rate classes.**  Every active stage on one node that uses one resource
  slot (CPU, disk or network) progresses at the same rate, so active stages
  are grouped into buckets keyed by ``(node, slot)``.  :meth:`advance`
  computes ``work = rate * dt`` once per bucket and subtracts it from each
  member -- the same IEEE operations as a per-stage ``remaining -= rate *
  dt`` -- while recording the bucket's smallest surviving ``remaining``.
  :meth:`ExecutionEngine.time_to_next_completion` then reads ``least / rate``
  once per bucket.  This is exact: correctly rounded division by a positive
  rate is monotone, so ``min(r_i) / rate == min(r_i / rate)`` bit for bit,
  and the ``1e-9`` clamp on a step is monotone too, so it can be applied to
  the minimum.  Reducer shuffle (network) stages stay outside the buckets
  and are handled one by one, because each is capped by the map output
  available to it.
* **Activation order.**  Stages that finish within one step are handled in
  the order their attempts started executing (a per-entry sequence number),
  whatever bucket they sit in.  That order drives the completion callbacks,
  and therefore the schedule, so it is what keeps results bit-identical to
  a scan over all running attempts in start order.
* **Bucket minima.**  A stage transition or completion inside
  :meth:`advance` leaves its bucket's minimum valid (``advance`` already
  excluded that entry), and an entry joining a bucket lowers it in O(1).
  Only an external :meth:`remove_task` (a kill) marks the minimum for a
  recompute.
* **Memoised shuffle stalls.**  Whether a reducer's shuffle is stalled
  depends only on its stage's ``remaining`` and on its job's completed map
  output, which :attr:`~repro.hadoop.job.MapReduceJob.map_output_version`
  counts.  A reducer is re-checked only when that pair changed since its
  last check; a stalled reducer does not progress, so it is re-checked
  only when a map of its job finishes or is lost.
* **Dirty-node rates.**  The per-node ``[cpu, disk, network]`` demand
  counts change only on membership, stage-transition and stall changes;
  each change marks its node, and only marked nodes get their stage rates
  recomputed (memoised by count triple: the cluster is homogeneous).

The engine deliberately knows nothing about YARN: it only sees running tasks,
the node each one runs on, and the shuffle availability tracker.  The
:class:`~repro.hadoop.simulator.ClusterSimulator` couples it with the
ResourceManager / ApplicationMaster logic.
"""

from __future__ import annotations

from operator import attrgetter

from ..exceptions import SimulationError
from .cluster import Cluster
from .contention import ResourceDemandCount, SharingModel
from .job import MapReduceJob
from .shuffle import ShuffleTracker
from .tasks import StageKind, TaskAttempt, TaskType, WorkStage

#: Numerical slack when deciding whether a stage has finished.
_EPSILON = 1e-9
#: Upper bound returned when no stage can complete (engine idle / all stalled).
INFINITY = float("inf")

#: Slot of each stage kind inside the per-node ``[cpu, disk, network]`` counts.
_KIND_SLOT = {StageKind.CPU: 0, StageKind.DISK: 1, StageKind.NETWORK: 2}
_SLOT_KINDS = tuple(_KIND_SLOT)
_NETWORK_SLOT = _KIND_SLOT[StageKind.NETWORK]

_activation_order = attrgetter("seq")


class _ActiveTask:
    """A running attempt plus the cached execution state the engine maintains."""

    __slots__ = (
        "attempt",
        "job",
        "node_id",
        "seq",
        "stage_index",
        "stage",
        "slot",
        "is_reduce_network",
        "stalled",
        "checked_version",
        "checked_remaining",
    )

    def __init__(
        self, attempt: TaskAttempt, job: MapReduceJob, node_id: int, seq: int, stage_index: int
    ) -> None:
        self.attempt = attempt
        self.job = job
        self.node_id = node_id
        #: Activation order: stages finishing in one step are handled by it.
        self.seq = seq
        self.enter_stage(stage_index)

    def enter_stage(self, stage_index: int) -> None:
        """Make ``stages[stage_index]`` current (its stall state unchecked)."""
        self.stage_index = stage_index
        self.stage: WorkStage = self.attempt.stages[stage_index]
        self.slot = _KIND_SLOT[self.stage.kind]
        self.is_reduce_network = (
            self.stage.kind is StageKind.NETWORK
            and self.attempt.task_type is TaskType.REDUCE
        )
        self.stalled = False
        #: ``(map_output_version, remaining)`` of the last stall check.
        self.checked_version = -1
        self.checked_remaining = -1.0


class _RateClass:
    """Active non-shuffle stages sharing one ``(node, slot)`` rate."""

    __slots__ = ("node_id", "slot", "members", "least")

    def __init__(self, node_id: int, slot: int) -> None:
        self.node_id = node_id
        self.slot = slot
        #: Members keyed by activation sequence number.
        self.members: dict[int, _ActiveTask] = {}
        #: Smallest ``stage.remaining`` among the members; ``None`` when it
        #: must be recomputed (after a kill).
        self.least: float | None = INFINITY


class ExecutionEngine:
    """Advances running task attempts under processor sharing."""

    def __init__(self, cluster: Cluster, shuffle_tracker: ShuffleTracker) -> None:
        self.cluster = cluster
        self.shuffle = shuffle_tracker
        self.sharing = SharingModel(cluster.config.node)
        #: Running attempts in activation order.
        self._active: dict[str, _ActiveTask] = {}
        self._next_seq = 0
        #: Rate classes of the active non-shuffle stages, keyed by (node, slot).
        self._buckets: dict[tuple[int, int], _RateClass] = {}
        #: Active reducers whose current stage is their network (shuffle) stage.
        self._network_entries: dict[str, _ActiveTask] = {}
        #: Per-node ``[cpu, disk, network]`` counts of active, non-stalled stages.
        self._demand: dict[int, list[int]] = {}
        #: Nodes whose demand counts changed since their rates were computed.
        self._dirty_nodes: set[int] = set()
        #: Entries added since the last advance whose leading zero-work stages
        #: still need their timestamps stamped at the next advance.
        self._pending_stamp: list[_ActiveTask] = []
        #: Per-node ``(cpu, disk, network)`` stage-rate vectors for the current
        #: demand counts, plus a memo keyed by the count triple.
        self._node_rates: dict[int, tuple[float, float, float]] = {}
        self._rates_by_counts: dict[tuple[int, int, int], tuple[float, float, float]] = {}

    # -- membership --------------------------------------------------------------

    def add_task(self, attempt: TaskAttempt, now: float) -> None:
        """Start executing ``attempt`` (its first stage becomes active)."""
        if attempt.task_id in self._active:
            raise SimulationError(f"task {attempt.task_id} is already executing")
        if attempt.assigned_node is None:
            raise SimulationError(f"task {attempt.task_id} has no node")
        stage_index = attempt.first_unfinished_index()
        if stage_index is None:
            raise SimulationError(f"task {attempt.task_id} has no work to do")
        entry = _ActiveTask(
            attempt,
            self.shuffle.job_for(attempt),
            attempt.assigned_node,
            self._next_seq,
            stage_index,
        )
        self._next_seq += 1
        entry.stage.started_at = now
        self._active[attempt.task_id] = entry
        self._enter(entry)
        self._demand_add(entry.node_id, entry.slot)
        if stage_index > 0:
            self._pending_stamp.append(entry)

    def remove_task(self, attempt: TaskAttempt) -> None:
        """Stop tracking a killed attempt."""
        entry = self._active.pop(attempt.task_id, None)
        if entry is not None:
            self._retire(entry, killed=True)

    def _enter(self, entry: _ActiveTask) -> None:
        """File ``entry`` under its current stage: a rate class or the shuffles."""
        if entry.is_reduce_network:
            self._network_entries[entry.attempt.task_id] = entry
            return
        key = (entry.node_id, entry.slot)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _RateClass(entry.node_id, entry.slot)
        bucket.members[entry.seq] = entry
        least = bucket.least
        if least is not None and entry.stage.remaining < least:
            bucket.least = entry.stage.remaining

    def _leave(self, entry: _ActiveTask, killed: bool) -> None:
        """Undo :meth:`_enter`; a kill invalidates the bucket's minimum."""
        if entry.is_reduce_network:
            del self._network_entries[entry.attempt.task_id]
            return
        key = (entry.node_id, entry.slot)
        bucket = self._buckets[key]
        del bucket.members[entry.seq]
        if not bucket.members:
            del self._buckets[key]
        elif killed:
            bucket.least = None

    def _retire(self, entry: _ActiveTask, killed: bool) -> None:
        """Drop an entry already popped from ``_active``."""
        self._leave(entry, killed)
        if not entry.stalled:
            self._demand_remove(entry.node_id, entry.slot)

    # -- incremental demand bookkeeping -------------------------------------------

    def _demand_add(self, node_id: int, slot: int) -> None:
        counts = self._demand.get(node_id)
        if counts is None:
            counts = self._demand[node_id] = [0, 0, 0]
        counts[slot] += 1
        self._dirty_nodes.add(node_id)

    def _demand_remove(self, node_id: int, slot: int) -> None:
        counts = self._demand.get(node_id)
        if counts is None or counts[slot] <= 0:
            raise SimulationError(
                f"demand underflow on node {node_id} for {_SLOT_KINDS[slot].value}"
            )
        counts[slot] -= 1
        self._dirty_nodes.add(node_id)

    def _refresh_stalls(self) -> None:
        """Re-check the stall state of reducers whose inputs changed."""
        is_stalled_stage = self.shuffle.is_stalled_stage
        for entry in self._network_entries.values():
            version = entry.job.map_output_version
            remaining = entry.stage.remaining
            if version == entry.checked_version and remaining == entry.checked_remaining:
                continue
            entry.checked_version = version
            entry.checked_remaining = remaining
            stalled = is_stalled_stage(entry.job, entry.attempt, entry.stage)
            if stalled != entry.stalled:
                entry.stalled = stalled
                if stalled:
                    self._demand_remove(entry.node_id, _NETWORK_SLOT)
                else:
                    self._demand_add(entry.node_id, _NETWORK_SLOT)

    def _compute_rates(self) -> None:
        """Recompute the stage-rate vectors of the nodes whose counts changed."""
        rate_for_count = self.sharing.rate_for_count
        memo = self._rates_by_counts
        node_rates = self._node_rates
        for node_id in self._dirty_nodes:
            counts = self._demand[node_id]
            key = (counts[0], counts[1], counts[2])
            rates = memo.get(key)
            if rates is None:
                rates = (
                    rate_for_count(StageKind.CPU, key[0]) if key[0] else 0.0,
                    rate_for_count(StageKind.DISK, key[1]) if key[1] else 0.0,
                    rate_for_count(StageKind.NETWORK, key[2]) if key[2] else 0.0,
                )
                memo[key] = rates
            node_rates[node_id] = rates
        self._dirty_nodes.clear()

    def _ensure_fresh(self) -> None:
        self._refresh_stalls()
        if self._dirty_nodes:
            self._compute_rates()

    # -- introspection (testing / debugging) ---------------------------------------

    def demand_snapshot(self) -> dict[int, ResourceDemandCount]:
        """The incrementally maintained per-node demand counts."""
        return {
            node_id: ResourceDemandCount(cpu=counts[0], disk=counts[1], network=counts[2])
            for node_id, counts in self._demand.items()
            if counts[0] or counts[1] or counts[2]
        }

    def recount_demand(self) -> dict[int, ResourceDemandCount]:
        """From-scratch recount of the demand counts (test oracle).

        Recomputes each attempt's current stage and stall state without using
        any cached engine state, exactly like the pre-incremental engine did
        on every event.
        """
        cpu: dict[int, int] = {}
        disk: dict[int, int] = {}
        network: dict[int, int] = {}
        for entry in self._active.values():
            stage = entry.attempt.current_stage()
            if stage is None:
                continue
            if stage.kind is StageKind.NETWORK and self.shuffle.is_stalled(entry.attempt):
                continue
            node = entry.node_id
            if stage.kind is StageKind.CPU:
                cpu[node] = cpu.get(node, 0) + 1
            elif stage.kind is StageKind.DISK:
                disk[node] = disk.get(node, 0) + 1
            else:
                network[node] = network.get(node, 0) + 1
        nodes = set(cpu) | set(disk) | set(network)
        return {
            node: ResourceDemandCount(
                cpu=cpu.get(node, 0), disk=disk.get(node, 0), network=network.get(node, 0)
            )
            for node in nodes
        }

    # -- time stepping -----------------------------------------------------------

    def time_to_next_completion(self) -> float:
        """Smallest time until some active stage completes (or hits its shuffle cap).

        Returns :data:`INFINITY` when nothing is running or everything is
        stalled waiting for map output.  The rates computed here are cached
        and reused by the immediately following :meth:`advance` call.
        """
        self._ensure_fresh()
        node_rates = self._node_rates
        horizon = INFINITY
        for bucket in self._buckets.values():
            rate = node_rates[bucket.node_id][bucket.slot]
            if rate <= 0:
                continue
            least = bucket.least
            if least is None:
                least = bucket.least = min(
                    entry.stage.remaining for entry in bucket.members.values()
                )
            step = least / rate
            if step < horizon:
                horizon = step
        processable = self.shuffle.processable_bytes_stage
        for entry in self._network_entries.values():
            if entry.stalled:
                continue
            rate = node_rates[entry.node_id][_NETWORK_SLOT]
            if rate <= 0:
                continue
            stage = entry.stage
            remaining = min(stage.remaining, processable(entry.job, entry.attempt, stage))
            if remaining <= _EPSILON:
                continue
            step = remaining / rate
            if step < horizon:
                horizon = step
        if horizon <= 1e-9:
            # Guard against zero-length progress steps from floating-point
            # residue; treat the stage as completing "now".
            horizon = 1e-9
        return horizon

    def advance(self, dt: float, now: float) -> list[TaskAttempt]:
        """Progress every active stage by ``dt`` seconds ending at time ``now``.

        Returns the attempts that completed their final stage during this
        step.  Intermediate stage transitions are handled internally (the
        next stage starts immediately at ``now``).
        """
        if dt < 0:
            raise SimulationError("cannot advance time backwards")
        completed: list[TaskAttempt] = []
        transitioned: list[_ActiveTask] = []
        if dt > 0:
            if self._dirty_nodes:
                self._ensure_fresh()
            node_rates = self._node_rates
            finish = transitioned.append
            for bucket in self._buckets.values():
                rate = node_rates[bucket.node_id][bucket.slot]
                if rate <= 0:
                    continue
                work = rate * dt
                least = INFINITY
                for entry in bucket.members.values():
                    stage = entry.stage
                    remaining = stage.remaining - work
                    if remaining > stage.finish_threshold:
                        stage.remaining = remaining
                        if remaining < least:
                            least = remaining
                    else:
                        stage.remaining = 0.0
                        finish(entry)
                bucket.least = least
            for entry in self._network_entries.values():
                if entry.stalled:
                    continue
                rate = node_rates[entry.node_id][_NETWORK_SLOT]
                if rate <= 0:
                    continue
                stage = entry.stage
                remaining = stage.remaining - rate * dt
                if remaining <= stage.finish_threshold:
                    remaining = 0.0
                    finish(entry)
                stage.remaining = remaining
                entry.attempt.shuffled_bytes = stage.amount - remaining
            if len(transitioned) > 1:
                transitioned.sort(key=_activation_order)
        # Stamp the leading zero-work stages of attempts added since the last
        # advance, at this very timestamp.
        if self._pending_stamp:
            for entry in self._pending_stamp:
                if self._active.get(entry.attempt.task_id) is not entry:
                    continue
                for stage in entry.attempt.stages[: entry.stage_index]:
                    if stage.finished_at is None:
                        stage.finished_at = now
                        if stage.started_at is None:
                            stage.started_at = now
            self._pending_stamp.clear()
        # Handle stage transitions and task completions at the new time: stamp
        # the finish time of every newly finished stage and the start time of
        # the stage that becomes current.
        for entry in transitioned:
            attempt = entry.attempt
            stages = attempt.stages
            finished_stage = entry.stage
            if finished_stage.finished_at is None:
                finished_stage.finished_at = now
                if finished_stage.started_at is None:
                    finished_stage.started_at = now
            index = entry.stage_index + 1
            while index < len(stages):
                stage = stages[index]
                if stage.is_finished:
                    # Zero-work stage: starts and finishes instantaneously.
                    if stage.finished_at is None:
                        stage.finished_at = now
                        if stage.started_at is None:
                            stage.started_at = now
                    index += 1
                    continue
                if stage.started_at is None:
                    stage.started_at = now
                break
            if index >= len(stages):
                completed.append(attempt)
                continue
            # The attempt moves on to its next stage: refile it and update the
            # per-node demand counts (the finished stage was necessarily
            # non-stalled, otherwise it could not have progressed).
            self._leave(entry, killed=False)
            self._demand_remove(entry.node_id, entry.slot)
            entry.enter_stage(index)
            self._enter(entry)
            self._demand_add(entry.node_id, entry.slot)
        for attempt in completed:
            self._retire(self._active.pop(attempt.task_id), killed=False)
        return completed
