"""Initialisation of the per-task response times (activity A1).

Two strategies are supported, mirroring Section 4.2.1 of the paper:

* **profile-based** — take the average task response times observed in a job
  history trace (the "sample techniques" option);
* **Herodotou-based** — derive the initial response times from the static
  phase-level cost model, assuming maps run first with all resources and
  reduces afterwards.  The paper notes this option converges faster and is
  the one its prototype uses; the initialisation ablation bench quantifies
  the difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..exceptions import ModelError
from .parameters import TaskClass


class InitializationStrategy(enum.Enum):
    """How the initial per-class response times are obtained."""

    #: Response times equal the total uncontended service demand of the class.
    SERVICE_DEMAND = "service-demand"
    #: Response times derived from the Herodotou static phase model.
    HERODOTOU = "herodotou"
    #: Response times taken from a job-history trace / profile.
    PROFILE = "profile"


@dataclass(frozen=True)
class InitialResponseTimes:
    """Seed response times for the modified-MVA iteration."""

    values: dict[TaskClass, float]
    strategy: InitializationStrategy

    def __post_init__(self) -> None:
        for task_class in TaskClass.ordered():
            if task_class not in self.values:
                raise ModelError(
                    f"initial response time missing for class {task_class.value}"
                )
            if self.values[task_class] < 0:
                raise ModelError("initial response times must be non-negative")

    def response_time(self, task_class: TaskClass) -> float:
        """Seed response time of one class."""
        return self.values[task_class]


def initialize_from_profile(
    map_seconds: float,
    shuffle_sort_seconds: float,
    merge_seconds: float,
) -> InitialResponseTimes:
    """Seed the iteration with averages taken from a job profile / trace."""
    return InitialResponseTimes(
        values={
            TaskClass.MAP: map_seconds,
            TaskClass.SHUFFLE_SORT: shuffle_sort_seconds,
            TaskClass.MERGE: merge_seconds,
        },
        strategy=InitializationStrategy.PROFILE,
    )


def initialize_from_herodotou(
    dataflow,
    environment,
) -> InitialResponseTimes:
    """Seed the iteration from the Herodotou static phase model.

    Parameters
    ----------
    dataflow:
        :class:`repro.static_models.herodotou.DataflowStatistics` of the job.
    environment:
        :class:`repro.static_models.herodotou.HadoopEnvironment` describing
        the cluster and the cost statistics.

    Notes
    -----
    The map class receives the total map-task phase cost; the shuffle-sort
    class the shuffle phase cost; the merge class the remaining reduce phases
    (merge + reduce + write), matching the subtask grouping of Section 4.1.
    The import is local to avoid a package-level import cycle
    (``static_models`` also builds on ``core`` for its Vianna baseline).
    """
    from ..static_models.herodotou import estimate

    phases = estimate(dataflow, environment)
    return InitialResponseTimes(
        values={
            TaskClass.MAP: phases.map_task_seconds,
            TaskClass.SHUFFLE_SORT: phases.shuffle,
            TaskClass.MERGE: phases.final_merge_seconds + phases.startup,
        },
        strategy=InitializationStrategy.HERODOTOU,
    )
