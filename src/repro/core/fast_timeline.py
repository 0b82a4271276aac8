"""Array-based timeline placement — the MVA solver's A2/A3/A5 engine.

:func:`build_timeline` places every task instance through a per-instance
greedy loop (``pick_node`` scans all lanes of all nodes for each of the
``num_maps`` map tasks), which made the A2/A5 placement the dominant cost of
a solver iteration once grids grow past a few dozen maps.  This module is
the only placement :class:`~repro.core.mva_solver.ModifiedMVASolver` uses
(:mod:`.timeline` and :mod:`.overlap` remain as the reference it is tested
against), and computes the *same placement* directly:

* **Maps** are provably placed in round-robin waves: with identical map
  durations, the "lowest occupancy rate" rule degenerates to node
  ``k mod num_nodes`` and wave ``k // (num_nodes * max_maps_per_node)`` for
  the ``k``-th map.  Wave start times are accumulated (``start + duration``
  per wave) exactly as the lane bookkeeping would, so the placement is
  bit-identical to the loop's.
* **Reduces** keep the greedy loop (their count is small and their durations
  differ per node through the remote-fetch term), but run it over plain
  per-node availability lists instead of generic lane objects.

The resulting :class:`TimelinePlacement` answers the two questions the MVA
solver asks of a timeline — the overlap factors (vectorised with NumPy
instead of the O(entries²) Python double loop) and the full
:class:`~repro.core.timeline.Timeline` for the precedence tree (materialised
once per iteration, with entries identical to :func:`build_timeline`'s).

Scalar-path equivalence is pinned by ``tests/test_fast_timeline.py``: the
placement matches entry for entry (same floats), the overlap matrices
match to floating-point summation order, and whole solves match totals
recorded with the scalar path to 1e-12 relative, in the same iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError
from ..queueing.mva_overlap import OverlapFactors
from .parameters import ModelInput, TaskClass
from .task_instances import TaskInstance
from .timeline import Timeline, TimelineEntry


def _overlap_sum(
    starts_a: np.ndarray,
    ends_a: np.ndarray,
    starts_b: np.ndarray,
    ends_b: np.ndarray,
) -> float:
    """Total pairwise overlap seconds between two interval families."""
    if not len(starts_a) or not len(starts_b):
        return 0.0
    overlap = np.minimum(ends_a[:, None], ends_b[None, :]) - np.maximum(
        starts_a[:, None], starts_b[None, :]
    )
    return float(np.clip(overlap, 0.0, None).sum())


@dataclass
class TimelinePlacement:
    """Array form of one job's timeline (same placement as Algorithm 1).

    Map entries are stored wave-compressed (``map_wave_starts`` /
    ``map_wave_counts``) because every map of a wave shares the same
    interval; reduce subtask entries are stored per instance.
    """

    num_nodes: int
    slow_start: bool
    border: float
    last_map_end: float
    map_duration: float
    #: Start time of each map wave (ascending), and maps per wave.
    map_wave_starts: np.ndarray
    map_wave_counts: np.ndarray
    #: Node of the ``k``-th map task (round-robin).
    map_nodes: np.ndarray
    #: Per-reduce shuffle-sort and merge intervals (aligned arrays).
    shuffle_starts: np.ndarray
    shuffle_ends: np.ndarray
    merge_ends: np.ndarray
    reduce_nodes: np.ndarray

    # -- derived interval views ------------------------------------------------

    @property
    def num_maps(self) -> int:
        return len(self.map_nodes)

    @property
    def num_reduces(self) -> int:
        return len(self.reduce_nodes)

    def map_starts(self) -> np.ndarray:
        """Per-map start times (wave starts expanded to instances)."""
        return np.repeat(self.map_wave_starts, self.map_wave_counts)

    @property
    def makespan(self) -> float:
        """Completion time of the last task instance."""
        values = [self.last_map_end]
        if len(self.merge_ends):
            values.append(float(self.merge_ends.max()))
        return max(values)

    # -- overlap factors (A3) --------------------------------------------------

    def _class_intervals(self, task_class: TaskClass) -> tuple[np.ndarray, np.ndarray]:
        if task_class is TaskClass.MAP:
            starts = self.map_starts()
            return starts, starts + self.map_duration
        if task_class is TaskClass.SHUFFLE_SORT:
            return self.shuffle_starts, self.shuffle_ends
        return self.shuffle_ends, self.merge_ends

    def overlap_factors(self) -> OverlapFactors:
        """Overlap matrices, equivalent to :func:`~repro.core.overlap.compute_overlap_factors`.

        The intra-job matrix sums pairwise interval overlaps with NumPy
        broadcasting (map×map overlaps use the wave compression:
        ``counts ⊗ counts`` weighted wave-pair overlaps) instead of the
        scalar path's Python double loop; the self-overlap of an instance is
        subtracted from diagonal entries exactly as the scalar path skips it.
        """
        classes = TaskClass.ordered()
        intervals = {cls: self._class_intervals(cls) for cls in classes}
        durations = {
            cls: float((intervals[cls][1] - intervals[cls][0]).sum()) for cls in classes
        }
        populations = {
            cls: (self.num_maps if cls is TaskClass.MAP else self.num_reduces)
            for cls in classes
        }
        if not any(populations.values()):
            raise ModelError("cannot compute overlap factors of an empty timeline")

        def pair_overlap(class_i: TaskClass, class_j: TaskClass) -> float:
            if class_i is TaskClass.MAP and class_j is TaskClass.MAP:
                # Wave-compressed: all maps of a wave share one interval.
                wave_ends = self.map_wave_starts + self.map_duration
                overlap = np.clip(
                    np.minimum(wave_ends[:, None], wave_ends[None, :])
                    - np.maximum(
                        self.map_wave_starts[:, None], self.map_wave_starts[None, :]
                    ),
                    0.0,
                    None,
                )
                counts = self.map_wave_counts.astype(float)
                total = float(counts @ overlap @ counts)
            elif class_i is TaskClass.MAP or class_j is TaskClass.MAP:
                other = class_j if class_i is TaskClass.MAP else class_i
                wave_ends = self.map_wave_starts + self.map_duration
                starts_o, ends_o = intervals[other]
                if not len(starts_o):
                    return 0.0
                overlap = np.clip(
                    np.minimum(wave_ends[:, None], ends_o[None, :])
                    - np.maximum(self.map_wave_starts[:, None], starts_o[None, :]),
                    0.0,
                    None,
                )
                total = float(self.map_wave_counts.astype(float) @ overlap.sum(axis=1))
            else:
                total = _overlap_sum(*intervals[class_i], *intervals[class_j])
            if class_i is class_j:
                # The scalar path skips an entry's overlap with itself.
                total -= durations[class_i]
            return total

        size = len(classes)
        alpha = np.zeros((size, size))
        beta = np.zeros((size, size))
        makespan = self.makespan
        for row, class_i in enumerate(classes):
            busy_i = durations[class_i]
            for col, class_j in enumerate(classes):
                population_j = populations[class_j]
                if class_i is class_j:
                    population_j -= 1
                if busy_i > 0 and population_j > 0:
                    alpha[row, col] = pair_overlap(class_i, class_j) / (
                        busy_i * population_j
                    )
                if makespan > 0 and populations[class_j] > 0:
                    beta[row, col] = durations[class_j] / (
                        populations[class_j] * makespan
                    )
        return OverlapFactors(
            class_names=tuple(cls.value for cls in classes),
            intra_job=np.clip(alpha, 0.0, 1.0),
            inter_job=np.clip(beta, 0.0, 1.0),
        )

    # -- materialisation (A5) --------------------------------------------------

    def to_timeline(self) -> Timeline:
        """Materialise the full :class:`Timeline` (for the precedence tree).

        Entries are constructed in :func:`build_timeline`'s order — maps by
        index, then shuffle-sort/merge pairs by reduce index — with identical
        node assignments and instants.
        """
        entries: list[TimelineEntry] = []
        map_starts = self.map_starts()
        for index in range(self.num_maps):
            start = float(map_starts[index])
            entries.append(
                TimelineEntry(
                    instance=TaskInstance(task_class=TaskClass.MAP, index=index),
                    node_id=int(self.map_nodes[index]),
                    start=start,
                    end=start + self.map_duration,
                )
            )
        for reduce_index in range(self.num_reduces):
            node_id = int(self.reduce_nodes[reduce_index])
            shuffle_start = float(self.shuffle_starts[reduce_index])
            shuffle_end = float(self.shuffle_ends[reduce_index])
            merge_end = float(self.merge_ends[reduce_index])
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
                    start=shuffle_end,
                    end=merge_end,
                )
            )
        return Timeline(
            entries=entries,
            num_nodes=self.num_nodes,
            slow_start=self.slow_start,
            border=self.border,
        )


def place_tasks(
    model_input: ModelInput,
    map_duration: float,
    shuffle_sort_base_duration: float,
    shuffle_network_duration: float,
    merge_duration: float,
    enforce_merge_after_last_map: bool = True,
) -> TimelinePlacement:
    """Compute :func:`build_timeline`'s placement without the per-map loop.

    Takes the same duration estimates as :func:`build_timeline` and produces
    the same placement (see the module docstring for why the round-robin
    closed form is exact).
    """
    for name, value in (
        ("map_duration", map_duration),
        ("shuffle_sort_base_duration", shuffle_sort_base_duration),
        ("shuffle_network_duration", shuffle_network_duration),
        ("merge_duration", merge_duration),
    ):
        if value < 0:
            raise ModelError(f"{name} must be non-negative, got {value}")

    num_nodes = model_input.num_nodes
    num_maps = model_input.num_maps
    num_reduces = model_input.num_reduces
    map_capacity = num_nodes * model_input.max_maps_per_node

    # Maps: round-robin waves; wave starts accumulate like lane bookkeeping
    # (``start + duration`` per wave) so the floats match the scalar path.
    num_waves = -(-num_maps // map_capacity)
    wave_starts = np.empty(num_waves)
    start = 0.0
    for wave in range(num_waves):
        wave_starts[wave] = start
        start = start + map_duration
    wave_counts = np.full(num_waves, map_capacity, dtype=int)
    wave_counts[-1] = num_maps - map_capacity * (num_waves - 1)
    map_nodes = np.arange(num_maps, dtype=int) % num_nodes
    maps_per_node = np.bincount(map_nodes, minlength=num_nodes)
    last_map_end = float(wave_starts[-1]) + map_duration
    border = map_duration if model_input.slow_start else last_map_end

    # Reduces: the greedy loop of Algorithm 1 over flat per-node lane lists.
    per_map_network = shuffle_network_duration / num_maps if num_maps else 0.0
    lanes = [[0.0] * model_input.max_reduces_per_node for _ in range(num_nodes)]
    assigned = [0] * num_nodes
    node_range = range(num_nodes)
    shuffle_durations = [
        shuffle_sort_base_duration + (num_maps - int(maps_per_node[node])) * per_map_network
        for node in node_range
    ]
    shuffle_starts = np.empty(num_reduces)
    shuffle_ends = np.empty(num_reduces)
    merge_ends = np.empty(num_reduces)
    reduce_nodes = np.empty(num_reduces, dtype=int)
    for reduce_index in range(num_reduces):
        node_id = min(node_range, key=lambda j: (min(lanes[j]), assigned[j], j))
        node_lanes = lanes[node_id]
        lane_index = min(
            range(len(node_lanes)), key=lambda i: node_lanes[i]
        )
        shuffle_start = max(border, node_lanes[lane_index])
        shuffle_end = shuffle_start + shuffle_durations[node_id]
        if enforce_merge_after_last_map:
            shuffle_end = max(shuffle_end, last_map_end)
        merge_end = shuffle_end + merge_duration
        node_lanes[lane_index] = merge_end
        assigned[node_id] += 1
        shuffle_starts[reduce_index] = shuffle_start
        shuffle_ends[reduce_index] = shuffle_end
        merge_ends[reduce_index] = merge_end
        reduce_nodes[reduce_index] = node_id

    return TimelinePlacement(
        num_nodes=num_nodes,
        slow_start=model_input.slow_start,
        border=border,
        last_map_end=last_map_end,
        map_duration=map_duration,
        map_wave_starts=wave_starts,
        map_wave_counts=wave_counts,
        map_nodes=map_nodes,
        shuffle_starts=shuffle_starts,
        shuffle_ends=shuffle_ends,
        merge_ends=merge_ends,
        reduce_nodes=reduce_nodes,
    )
