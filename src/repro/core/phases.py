"""Phase segmentation of a timeline.

The paper defines a *phase* as "the maximum period of time during which all
tasks are executed simultaneously": every start or end of a task opens a new
phase, tasks within the same phase execute in parallel, and tasks of
different phases execute sequentially (Section 4.2.2).

For the precedence-tree construction we assign each task instance to the
phase in which it *starts*; the sequence of non-empty phases then becomes a
chain of S-operators over P-groups (see
:mod:`repro.core.precedence.builder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ModelError
from .timeline import Timeline, TimelineEntry


@dataclass(frozen=True)
class Phase:
    """One phase of the timeline."""

    index: int
    start: float
    end: float
    #: Entries whose execution *starts* in this phase.
    starting_entries: tuple[TimelineEntry, ...] = field(default_factory=tuple)
    #: Entries that are executing at any point during this phase.
    active_entries: tuple[TimelineEntry, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ModelError("phase ends before it starts")

    @property
    def duration(self) -> float:
        """Wall-clock length of the phase."""
        return self.end - self.start

    @property
    def parallelism(self) -> int:
        """Number of task instances simultaneously active in this phase."""
        return len(self.active_entries)


def segment_phases(timeline: Timeline) -> list[Phase]:
    """Split ``timeline`` into phases at every task start/end boundary.

    Zero-length boundary intervals (two tasks starting at exactly the same
    time) do not produce empty phases: consecutive boundaries that coincide
    are merged.
    """
    if not timeline.entries:
        return []
    boundaries = timeline.event_times()
    phases: list[Phase] = []
    for index in range(len(boundaries) - 1):
        start = boundaries[index]
        end = boundaries[index + 1]
        if end - start <= 1e-12:
            continue
        starting = tuple(
            entry
            for entry in timeline.entries
            if start - 1e-12 <= entry.start < end - 1e-12
        )
        active = tuple(
            entry
            for entry in timeline.entries
            if entry.start < end - 1e-12 and entry.end > start + 1e-12
        )
        phases.append(
            Phase(
                index=len(phases),
                start=start,
                end=end,
                starting_entries=starting,
                active_entries=active,
            )
        )
    return phases
