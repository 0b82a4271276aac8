"""Timeline construction — Algorithm 1 of the paper.

The timeline places the task instances of one job onto the cluster nodes,
respecting the Hadoop 2.x container-allocation behaviour identified in the
paper's architecture analysis (Section 3):

* map containers are granted before reduce containers (higher priority);
* each node can host at most ``MaxMapPerNode`` concurrent map containers and
  ``MaxReducePerNode`` concurrent reduce containers;
* containers are handed to the node with the lowest occupancy rate
  (uniform spreading over a homogeneous cluster);
* with **slow start**, the shuffle-sort subtask of a reduce may begin as soon
  as the first map task finishes (``border`` = end of the first map);
  without slow start it begins only after the last map finishes;
* a reduce executing on node ``i`` pays an extra ``sd / |R|`` of shuffle time
  for every map task that ran on a *different* node (remote fetch), where
  ``sd`` is the per-map shuffle transfer time (Algorithm 1, lines 14-18).

One adaptation relative to the paper's pseudo-code: the reduce block is split
into its **shuffle-sort** and **merge** segments (the two reduce subtask
classes of Section 4.1), and — matching the running example of Figures 6-7 —
the merge segment cannot start before the last map task has finished, because
the final sort needs every map output fetched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError, ModelError
from .parameters import ModelInput, TaskClass
from .task_instances import TaskInstance


@dataclass(frozen=True)
class TimelineEntry:
    """Placement of one task instance on the timeline."""

    instance: TaskInstance
    node_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError("timeline entries cannot start before time zero")
        if self.end < self.start:
            raise ConfigurationError("timeline entry ends before it starts")

    @property
    def duration(self) -> float:
        """Wall-clock duration of the entry."""
        return self.end - self.start

    def overlap_with(self, other: "TimelineEntry") -> float:
        """Length of the time interval during which both entries execute."""
        return max(0.0, min(self.end, other.end) - max(self.start, other.start))


@dataclass
class Timeline:
    """A complete placement of one job's task instances."""

    entries: list[TimelineEntry]
    num_nodes: int
    slow_start: bool
    border: float = field(default=0.0)

    @property
    def makespan(self) -> float:
        """Completion time of the last task instance."""
        if not self.entries:
            return 0.0
        return max(entry.end for entry in self.entries)

    def entries_of_class(self, task_class: TaskClass) -> list[TimelineEntry]:
        """Entries belonging to one task class."""
        return [entry for entry in self.entries if entry.instance.task_class is task_class]

    def busy_time(self, task_class: TaskClass) -> float:
        """Total busy time of all instances of one class."""
        return sum(entry.duration for entry in self.entries_of_class(task_class))

    def last_map_end(self) -> float:
        """Completion time of the last map task."""
        maps = self.entries_of_class(TaskClass.MAP)
        if not maps:
            return 0.0
        return max(entry.end for entry in maps)

    def first_map_end(self) -> float:
        """Completion time of the first map task to finish."""
        maps = self.entries_of_class(TaskClass.MAP)
        if not maps:
            return 0.0
        return min(entry.end for entry in maps)

    def event_times(self) -> list[float]:
        """Sorted distinct start/end times (the phase boundaries)."""
        times = {0.0}
        for entry in self.entries:
            times.add(entry.start)
            times.add(entry.end)
        return sorted(times)


class _NodeLanes:
    """Per-node container lanes with an availability time each."""

    def __init__(self, num_nodes: int, lanes_per_node: int) -> None:
        self._lanes = [[0.0] * lanes_per_node for _ in range(num_nodes)]
        self._assigned = [0] * num_nodes

    def earliest_available(self, node_id: int) -> float:
        """Earliest time a lane of ``node_id`` becomes free."""
        return min(self._lanes[node_id])

    def occupancy(self, node_id: int) -> tuple[float, int, int]:
        """Sort key implementing the "lowest occupancy rate" rule.

        Nodes are compared by earliest lane availability, then by the number
        of tasks already assigned, then by node id (deterministic ties).
        """
        return (self.earliest_available(node_id), self._assigned[node_id], node_id)

    def pick_node(self) -> int:
        """Node with the lowest occupancy."""
        return min(range(len(self._lanes)), key=self.occupancy)

    def reserve(self, node_id: int, earliest_start: float) -> tuple[int, float]:
        """Pick the earliest lane of ``node_id``; return (lane index, actual start).

        ``earliest_start`` is a lower bound (e.g. the slow-start border); the
        actual start is the maximum of the bound and the lane availability.
        The caller must finish the reservation with :meth:`occupy`.
        """
        lanes = self._lanes[node_id]
        lane_index = min(range(len(lanes)), key=lambda i: lanes[i])
        actual_start = max(earliest_start, lanes[lane_index])
        return lane_index, actual_start

    def occupy(self, node_id: int, lane_index: int, until: float) -> None:
        """Mark a lane of ``node_id`` busy until ``until``."""
        self._lanes[node_id][lane_index] = until
        self._assigned[node_id] += 1


def build_timeline(
    model_input: ModelInput,
    map_duration: float,
    shuffle_sort_base_duration: float,
    shuffle_network_duration: float,
    merge_duration: float,
    enforce_merge_after_last_map: bool = True,
) -> Timeline:
    """Construct the timeline of one job (Algorithm 1).

    Parameters
    ----------
    model_input:
        Cluster and workload description (Table 2).
    map_duration:
        Current estimate of the map task response time (``m.d``).
    shuffle_sort_base_duration:
        Portion of the shuffle-sort subtask that does not depend on the
        placement of the maps (local disk + CPU work of the partial sorts).
    shuffle_network_duration:
        Time one reduce task would need to fetch its *entire* input over the
        network; each map located on a different node than the reduce adds
        ``shuffle_network_duration / num_maps`` to the reduce (this is the
        ``m.sd / |R|`` term of Algorithm 1).
    merge_duration:
        Current estimate of the merge subtask response time.
    enforce_merge_after_last_map:
        Keep the merge segment from starting before the last map finishes
        (matches Figures 6-7; set to ``False`` for the literal Algorithm 1
        behaviour).
    """
    for name, value in (
        ("map_duration", map_duration),
        ("shuffle_sort_base_duration", shuffle_sort_base_duration),
        ("shuffle_network_duration", shuffle_network_duration),
        ("merge_duration", merge_duration),
    ):
        if value < 0:
            raise ModelError(f"{name} must be non-negative, got {value}")

    entries: list[TimelineEntry] = []
    map_lanes = _NodeLanes(model_input.num_nodes, model_input.max_maps_per_node)
    reduce_lanes = _NodeLanes(model_input.num_nodes, model_input.max_reduces_per_node)

    # -- lines 4-6: place the map tasks -------------------------------------------
    map_entries: list[TimelineEntry] = []
    for index in range(model_input.num_maps):
        node_id = map_lanes.pick_node()
        lane_index, start = map_lanes.reserve(node_id, 0.0)
        map_lanes.occupy(node_id, lane_index, start + map_duration)
        entry = TimelineEntry(
            instance=TaskInstance(task_class=TaskClass.MAP, index=index),
            node_id=node_id,
            start=start,
            end=start + map_duration,
        )
        map_entries.append(entry)
        entries.append(entry)

    # -- lines 7-11: the slow-start border ------------------------------------------
    if map_entries:
        if model_input.slow_start:
            border = min(entry.end for entry in map_entries)
        else:
            border = max(entry.end for entry in map_entries)
    else:
        border = 0.0
    last_map_end = max((entry.end for entry in map_entries), default=0.0)

    # -- lines 12-21: place the reduce tasks (shuffle-sort + merge segments) --------
    per_map_network = (
        shuffle_network_duration / model_input.num_maps if model_input.num_maps else 0.0
    )
    for reduce_index in range(model_input.num_reduces):
        node_id = reduce_lanes.pick_node()
        remote_maps = sum(1 for entry in map_entries if entry.node_id != node_id)
        shuffle_duration = shuffle_sort_base_duration + remote_maps * per_map_network
        lane_index, shuffle_start = reduce_lanes.reserve(node_id, border)
        shuffle_end = shuffle_start + shuffle_duration
        if enforce_merge_after_last_map:
            shuffle_end = max(shuffle_end, last_map_end)
        merge_start = shuffle_end
        merge_end = merge_start + merge_duration
        reduce_lanes.occupy(node_id, lane_index, merge_end)
        entries.append(
            TimelineEntry(
                instance=TaskInstance(
                    task_class=TaskClass.SHUFFLE_SORT,
                    index=reduce_index,
                    reduce_index=reduce_index,
                ),
                node_id=node_id,
                start=shuffle_start,
                end=shuffle_end,
            )
        )
        entries.append(
            TimelineEntry(
                instance=TaskInstance(
                    task_class=TaskClass.MERGE,
                    index=reduce_index,
                    reduce_index=reduce_index,
                ),
                node_id=node_id,
                start=merge_start,
                end=merge_end,
            )
        )

    return Timeline(
        entries=entries,
        num_nodes=model_input.num_nodes,
        slow_start=model_input.slow_start,
        border=border,
    )
