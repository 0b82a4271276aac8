"""ARIA: makespan bounds and deadline-driven resource provisioning.

Verma, Cherkasova & Campbell's ARIA framework (paper Section 2.1) estimates
the completion time of a MapReduce job from its *job profile* (average and
maximum task durations for the map, shuffle and reduce stages) and the number
of allocated map/reduce slots, using the makespan theorem for greedy task
assignment::

    T_low  = n_tasks * avg_duration / slots
    T_up   = (n_tasks - 1) * avg_duration / slots + max_duration
    T_avg  = (T_up + T_low) / 2

ARIA also inverts these bounds to answer "how many slots do I need to finish
by deadline D", which we expose as :meth:`AriaModel.slots_for_deadline`.
``examples/deadline_provisioning.py`` asks the same question of the ``aria``
backend through the capacity planner, which searches cluster sizes instead.

:func:`stage_bounds` is written once over an array namespace ``xp``: the
``aria`` backend runs it on stacked NumPy columns for a grid and on Python
floats for one point, and :class:`AriaModel` runs it on floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..exceptions import ConfigurationError, ModelError
from .scalar import scalar


@dataclass(frozen=True)
class AriaJobProfile:
    """Stage-level job profile extracted from past executions."""

    num_maps: int
    num_reduces: int
    avg_map_seconds: float
    max_map_seconds: float
    avg_shuffle_seconds: float
    max_shuffle_seconds: float
    avg_reduce_seconds: float
    max_reduce_seconds: float

    def __post_init__(self) -> None:
        if self.num_maps <= 0 or self.num_reduces <= 0:
            raise ConfigurationError("task counts must be positive")
        pairs = (
            (self.avg_map_seconds, self.max_map_seconds),
            (self.avg_shuffle_seconds, self.max_shuffle_seconds),
            (self.avg_reduce_seconds, self.max_reduce_seconds),
        )
        for avg, maximum in pairs:
            if avg < 0 or maximum < 0:
                raise ConfigurationError("durations must be non-negative")
            if maximum + 1e-9 < avg:
                raise ConfigurationError("max duration cannot be below the average")


@dataclass(frozen=True)
class AriaBounds:
    """Lower/upper completion-time estimates (floats, or arrays over a grid)."""

    lower_seconds: Any
    upper_seconds: Any

    @property
    def average_seconds(self) -> Any:
        """The T_avg estimate ARIA recommends for deadline planning."""
        return 0.5 * (self.lower_seconds + self.upper_seconds)

    def __add__(self, other: "AriaBounds") -> "AriaBounds":
        """Bounds of two stages run one after the other."""
        return AriaBounds(
            lower_seconds=self.lower_seconds + other.lower_seconds,
            upper_seconds=self.upper_seconds + other.upper_seconds,
        )


def stage_bounds(num_tasks, avg, maximum, slots, xp=scalar) -> AriaBounds:
    """Makespan-theorem bounds for one stage executed on ``slots`` slots."""
    if xp.any(slots <= 0):
        raise ModelError("slots must be positive")
    lower = num_tasks * avg / slots
    upper = (num_tasks - 1) * avg / slots + maximum
    return AriaBounds(lower_seconds=lower, upper_seconds=upper)


class AriaModel:
    """ARIA completion-time bounds and slot provisioning."""

    def __init__(self, profile: AriaJobProfile) -> None:
        self.profile = profile

    # -- completion time --------------------------------------------------------

    def map_stage_bounds(self, map_slots: int) -> AriaBounds:
        """Bounds for the map stage on ``map_slots`` slots."""
        return stage_bounds(
            self.profile.num_maps,
            self.profile.avg_map_seconds,
            self.profile.max_map_seconds,
            map_slots,
        )

    def shuffle_stage_bounds(self, reduce_slots: int) -> AriaBounds:
        """Bounds for the shuffle stage on ``reduce_slots`` slots."""
        return stage_bounds(
            self.profile.num_reduces,
            self.profile.avg_shuffle_seconds,
            self.profile.max_shuffle_seconds,
            reduce_slots,
        )

    def reduce_stage_bounds(self, reduce_slots: int) -> AriaBounds:
        """Bounds for the reduce stage on ``reduce_slots`` slots."""
        return stage_bounds(
            self.profile.num_reduces,
            self.profile.avg_reduce_seconds,
            self.profile.max_reduce_seconds,
            reduce_slots,
        )

    def job_bounds(self, map_slots: int, reduce_slots: int) -> AriaBounds:
        """Bounds for the whole job (map, then shuffle, then reduce stages)."""
        return (
            self.map_stage_bounds(map_slots)
            + self.shuffle_stage_bounds(reduce_slots)
            + self.reduce_stage_bounds(reduce_slots)
        )

    def estimate_seconds(self, map_slots: int, reduce_slots: int) -> float:
        """The T_avg completion-time estimate for a given slot allocation."""
        return self.job_bounds(map_slots, reduce_slots).average_seconds

    # -- provisioning ------------------------------------------------------------

    def slots_for_deadline(
        self,
        deadline_seconds: float,
        max_slots: int = 10_000,
        reduce_slots: int | None = None,
    ) -> tuple[int, int]:
        """Smallest (map_slots, reduce_slots) meeting ``deadline_seconds``.

        A simple sweep over slot counts using the T_avg estimate, mirroring
        ARIA's resource-inference component.  When ``reduce_slots`` is given
        it is kept fixed and only map slots are sized.

        Raises
        ------
        ModelError
            If the deadline cannot be met with ``max_slots`` slots.
        """
        if deadline_seconds <= 0:
            raise ModelError("deadline must be positive")
        reduce_candidates = (
            [reduce_slots]
            if reduce_slots is not None
            else list(range(1, min(self.profile.num_reduces, max_slots) + 1))
        )
        best: tuple[int, int] | None = None
        for reduce_count in reduce_candidates:
            for map_count in range(1, max_slots + 1):
                estimate = self.estimate_seconds(map_count, reduce_count)
                if estimate <= deadline_seconds:
                    candidate = (map_count, reduce_count)
                    if best is None or sum(candidate) < sum(best):
                        best = candidate
                    break
        if best is None:
            raise ModelError(
                f"deadline of {deadline_seconds:.1f}s cannot be met with "
                f"{max_slots} slots"
            )
        return best
