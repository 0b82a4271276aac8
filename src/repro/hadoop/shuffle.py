"""Shuffle availability model.

The shuffle phase of a reduce task can only fetch the output of map tasks
that have already completed — this is the map→shuffle pipeline the paper
models through reducer slow start and through the dependency of the
shuffle-sort subtask on the first/last map task (Algorithm 1, lines 7-11).

:class:`ShuffleTracker` answers, for a running reduce task, how many bytes of
*remote* map output are currently available to fetch over the network.  The
execution engine uses this cap to stall a shuffle stage that has caught up
with the map wave, and un-stalls it as further maps finish.
"""

from __future__ import annotations

from ..exceptions import SimulationError
from .job import MapReduceJob
from .tasks import StageKind, TaskAttempt, TaskType, WorkStage


class ShuffleTracker:
    """Per-job view of how much shuffle data a reducer can currently fetch."""

    def __init__(self, jobs: dict[int, MapReduceJob]) -> None:
        self._jobs = jobs

    def job_for(self, task: TaskAttempt) -> MapReduceJob:
        """The job owning ``task``."""
        try:
            return self._jobs[task.job_id]
        except KeyError as exc:
            raise SimulationError(f"unknown job id {task.job_id}") from exc

    #: Shuffle amounts below one byte are treated as "nothing left to fetch";
    #: using a whole byte (rather than a tiny epsilon) keeps the fluid engine
    #: from scheduling zero-length progress steps when a reducer has caught up
    #: with the map wave.
    _STALL_THRESHOLD_BYTES = 1.0

    def is_stalled(self, task: TaskAttempt) -> bool:
        """Whether the reduce task's *current* network stage cannot progress now."""
        stage = task.current_stage()
        if stage is None or stage.kind is not StageKind.NETWORK:
            return False
        if task.task_type is not TaskType.REDUCE:
            return False
        return self.is_stalled_stage(self.job_for(task), task, stage)

    def is_stalled_stage(self, job: MapReduceJob, task: TaskAttempt, stage: WorkStage) -> bool:
        """O(1) stall check for a reduce of ``job`` whose current (network) stage is ``stage``.

        The execution engine caches each running reducer's job and current
        network stage, so this avoids the job lookup and stage rescan of
        :meth:`is_stalled`.
        """
        if job.all_maps_completed():
            return False
        processed = stage.amount - stage.remaining
        cap = min(float(stage.amount), job.shuffle_remote_available_bytes(task.assigned_node))
        return cap - processed <= self._STALL_THRESHOLD_BYTES

    def processable_bytes_stage(
        self, job: MapReduceJob, task: TaskAttempt, stage: WorkStage
    ) -> float:
        """Bytes the current network ``stage`` can still process before stalling.

        Before all maps of ``job`` finish, the reducer may only have fetched
        the remote portion of the map output already produced; afterwards the
        cap is the stage's full planned network work.
        """
        all_done = job.all_maps_completed()
        processed = stage.amount - stage.remaining
        if all_done:
            cap = float(stage.amount)
        else:
            cap = min(
                float(stage.amount),
                job.shuffle_remote_available_bytes(task.assigned_node),
            )
        available = min(stage.remaining, cap - processed)
        if available <= self._STALL_THRESHOLD_BYTES and not all_done:
            return 0.0
        return max(0.0, available)
