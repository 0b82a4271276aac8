"""Timed events processed by the cluster simulator.

Besides the "fluid" stage completions computed by the execution engine, the
simulation has a small number of discrete timed events: job submissions, the
ApplicationMaster start-up delay, and the container launch delay between a
grant and the moment the task begins executing.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, NamedTuple

from ..exceptions import SimulationError


class EventKind(enum.Enum):
    """Kind of a timed simulation event."""

    JOB_SUBMIT = "job-submit"
    AM_READY = "am-ready"
    TASK_LAUNCH = "task-launch"
    NODE_FAILURE = "node-failure"


class TimedEvent(NamedTuple):
    """An event scheduled at an absolute simulation time.

    Events order as tuples, by ``(time, sequence)``: sequence numbers are
    unique, so a comparison never reaches ``kind``.
    """

    time: float
    sequence: int
    kind: EventKind
    payload: Any = None


class EventQueue:
    """A simple monotonic priority queue of :class:`TimedEvent` objects."""

    def __init__(self) -> None:
        self._heap: list[TimedEvent] = []
        self._sequence = itertools.count()
        self._last_popped = float("-inf")

    def push(self, time: float, kind: EventKind, payload: Any = None) -> None:
        """Schedule an event at absolute ``time``."""
        if time < self._last_popped - 1e-9:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._last_popped})"
            )
        heapq.heappush(self._heap, TimedEvent(time, next(self._sequence), kind, payload))

    def peek_time(self) -> float | None:
        """Time of the earliest scheduled event, or ``None`` if empty."""
        if not self._heap:
            return None
        return self._heap[0].time

    def pop_until(self, time: float) -> list[TimedEvent]:
        """Pop every event scheduled at or before ``time`` (in order)."""
        events: list[TimedEvent] = []
        while self._heap and self._heap[0].time <= time + 1e-12:
            event = heapq.heappop(self._heap)
            self._last_popped = max(self._last_popped, event.time)
            events.append(event)
        return events

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
