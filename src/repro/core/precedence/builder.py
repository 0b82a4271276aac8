"""Precedence-tree construction from a placement or a timeline.

Following Section 4.2.2 of the paper, the timeline determines which task
instances execute in parallel and which sequentially, and the tree is built
with binary P and S operators (unique up to isomorphism for a given
timeline).  The builder works on *interval groups* ``(start, end, class,
chain keys)``: task instances that share one interval.  A
:class:`~repro.core.fast_timeline.TimelinePlacement` gives one group per
map wave and two per reduce (shuffle-sort, merge); a
:class:`~repro.core.timeline.Timeline` gives one group per entry.  The
concrete construction:

1. **Cut points.**  A time ``t`` is a cut point when no task instance is
   strictly executing across it (every instance either ends at or before
   ``t`` or starts at or after ``t``).  Cut points split the timeline into
   *segments*; instances of different segments execute strictly
   sequentially, so segments are chained with S operators.
2. **Chains.**  Within a segment, the subtasks of one reduce task
   (shuffle-sort followed by merge) execute sequentially and form an S-chain;
   every map instance forms a singleton chain.
3. **Parallel groups.**  The chains of a segment execute concurrently and are
   combined into a balanced binary P-subtree (the balancing procedure the
   paper applies to limit the maximal tree depth; ``balanced=False`` produces
   the left-deep variant used by the balancing ablation).

Compared to a naive "group by identical start time" construction, using cut
points guarantees that two *overlapping* instances are never placed under an
S operator, which would double-count their execution time.

Every predicate (cut point, segment membership, the trailing segment of
leftovers) reads an instance's ``(start, end)`` only, so it is evaluated
once per group and holds for each of the group's instances.

**Shared subtrees.**  The leaves of a placement are shared: one
:class:`LeafNode` per distinct ``(class, duration, CV)``, labelled with the
first instance that has it.  Operator nodes are built once per distinct
``(operator, left, right)`` children, and a P-group pairs its chains as
run-lengths (:func:`~.balancer.balanced_parallel_runs`), so the ``k``
identical maps of a wave cost ``O(log k)`` nodes, not ``k - 1``.  The shared
tree *is* the per-instance tree with equal subtrees merged: every
estimator and metric is a pure function of a subtree's shape and leaf
values, so a shared subtree folds to the same bits wherever it occurs, and
folding it once (:func:`~.metrics.fold_tree`) gives exactly the estimate of
folding every copy.  A timeline keeps one leaf per instance, so
:func:`~.tree.render_tree` labels every instance.
"""

from __future__ import annotations

from typing import NamedTuple

from ...exceptions import ModelError
from ..fast_timeline import TimelinePlacement
from ..parameters import TaskClass
from ..task_instances import TaskInstance
from ..timeline import Timeline
from .balancer import balanced_parallel_runs, left_deep_parallel_tree
from .tree import LeafNode, OperatorKind, OperatorNode, PrecedenceNode

#: Numerical tolerance when comparing timeline instants.
_TIME_EPSILON = 1e-9


class _Group(NamedTuple):
    """Task instances sharing one interval, class and chain-key block."""

    start: float
    end: float
    task_class: TaskClass
    #: First chain key covered: ``("map", index)`` or ``("reduce", index)``.
    chain: tuple[str, int]
    #: Number of consecutive chain keys covered (the maps of a wave).  Two
    #: groups' blocks are either equal or disjoint.
    width: int
    #: The timeline entry's instance (its own leaf); ``None`` for a
    #: placement group, whose leaf is shared.
    instance: TaskInstance | None


def _timeline_groups(timeline: Timeline) -> list[_Group]:
    groups = []
    for entry in timeline.entries:
        instance = entry.instance
        if instance.task_class is TaskClass.MAP:
            chain = ("map", instance.index)
        else:
            chain = ("reduce", instance.reduce_index)
        groups.append(_Group(entry.start, entry.end, instance.task_class, chain, 1, instance))
    return groups


def _placement_groups(placement: TimelinePlacement) -> list[_Group]:
    """Groups in :meth:`TimelinePlacement.to_timeline`'s entry order, same instants."""
    groups = []
    first = 0
    for start, count in zip(
        placement.map_wave_starts.tolist(), placement.map_wave_counts.tolist()
    ):
        end = start + placement.map_duration
        groups.append(_Group(start, end, TaskClass.MAP, ("map", first), count, None))
        first += count
    reduces = zip(
        placement.shuffle_starts.tolist(),
        placement.shuffle_ends.tolist(),
        placement.merge_ends.tolist(),
    )
    for index, (shuffle_start, shuffle_end, merge_end) in enumerate(reduces):
        chain = ("reduce", index)
        groups.append(_Group(shuffle_start, shuffle_end, TaskClass.SHUFFLE_SORT, chain, 1, None))
        groups.append(_Group(shuffle_end, merge_end, TaskClass.MERGE, chain, 1, None))
    return groups


def _cut_points(groups: list[_Group]) -> list[float]:
    """Sorted times that no group strictly spans (segment boundaries).

    A candidate ``t`` is spanned when some group has ``start < t - eps`` and
    ``end > t + eps``.  Candidates ascend, so the groups starting before
    ``t - eps`` grow as a prefix of the groups sorted by start, and ``t`` is
    spanned exactly when the largest end of that prefix exceeds ``t + eps``.
    """
    candidates = sorted({group.start for group in groups} | {group.end for group in groups})
    by_start = sorted((group.start, group.end) for group in groups)
    cuts = []
    reach = float("-inf")
    position = 0
    for time in candidates:
        while position < len(by_start) and by_start[position][0] < time - _TIME_EPSILON:
            reach = max(reach, by_start[position][1])
            position += 1
        if not reach > time + _TIME_EPSILON:
            cuts.append(time)
    return cuts


def _segments(groups: list[_Group]) -> list[list[_Group]]:
    """Partition groups into maximal sets separated by cut points."""
    cuts = _cut_points(groups)
    segments: list[list[_Group]] = []
    captured: set[int] = set()
    for lower, upper in zip(cuts, cuts[1:]):
        members = [
            index
            for index, group in enumerate(groups)
            if group.start >= lower - _TIME_EPSILON and group.end <= upper + _TIME_EPSILON
            # Zero-length groups sitting exactly on a boundary belong to the
            # segment that starts there (avoids duplicating them).
            and (group.start < upper - _TIME_EPSILON or lower == upper)
        ]
        if members:
            segments.append([groups[index] for index in members])
            captured.update(members)
    # Zero-duration instances sitting exactly on the final boundary (or
    # floating-point pathologies) may escape the interval test above; attach
    # them as a trailing segment instead of losing them.
    leftovers = [group for index, group in enumerate(groups) if index not in captured]
    if leftovers:
        segments.append(leftovers)
    return segments


class _SharedNodes:
    """Leaf and operator constructors of one build, sharing equal nodes."""

    def __init__(self, cv_by_class: dict[TaskClass, float]) -> None:
        self._cv_by_class = cv_by_class
        self._leaves: dict[tuple, LeafNode] = {}
        # Keyed by the children's identities: they stay referenced here, so
        # an id is never reused while the build runs.
        self._operators: dict[tuple, OperatorNode] = {}

    def leaf(self, group: _Group) -> LeafNode:
        duration = group.end - group.start
        cv = self._cv_by_class.get(group.task_class, 0.0)
        if group.instance is not None:
            return LeafNode(
                instance=group.instance, mean_response_time=duration, coefficient_of_variation=cv
            )
        key = (group.task_class, duration, cv)
        leaf = self._leaves.get(key)
        if leaf is None:
            kind, index = group.chain
            instance = TaskInstance(
                task_class=group.task_class,
                index=index,
                reduce_index=None if kind == "map" else index,
            )
            leaf = self._leaves[key] = LeafNode(
                instance=instance, mean_response_time=duration, coefficient_of_variation=cv
            )
        return leaf

    def operator(
        self, operator: OperatorKind, left: PrecedenceNode, right: PrecedenceNode
    ) -> OperatorNode:
        key = (operator, id(left), id(right))
        node = self._operators.get(key)
        if node is None:
            node = self._operators[key] = OperatorNode(operator=operator, left=left, right=right)
        return node

    def serial(self, left: PrecedenceNode, right: PrecedenceNode) -> OperatorNode:
        return self.operator(OperatorKind.SERIAL, left, right)

    def parallel(self, left: PrecedenceNode, right: PrecedenceNode) -> OperatorNode:
        return self.operator(OperatorKind.PARALLEL, left, right)


def build_precedence_tree(
    source: TimelinePlacement | Timeline,
    coefficient_of_variation: dict[TaskClass, float] | None = None,
    balanced: bool = True,
) -> PrecedenceNode:
    """Build the (binary) precedence tree of a placement or timeline.

    Parameters
    ----------
    source:
        Placement of one job's task instances: the solver's wave-compressed
        :class:`TimelinePlacement` (shared leaves and subtrees) or a
        :class:`Timeline` (one leaf per instance).
    coefficient_of_variation:
        Optional per-class CV attached to the leaves (used by the Tripathi
        estimator and the fork/join premium); defaults to 0 (deterministic
        leaves).
    balanced:
        Build each P-group as a balanced subtree (paper default).  Setting it
        to ``False`` produces left-deep P-chains, used by the balancing
        ablation bench.

    Raises
    ------
    ModelError
        If the timeline has no entries.
    """
    if isinstance(source, Timeline):
        groups = _timeline_groups(source)
    else:
        groups = _placement_groups(source)
    if not groups:
        raise ModelError("cannot build a precedence tree from an empty timeline")
    nodes = _SharedNodes(coefficient_of_variation or {})

    tree: PrecedenceNode | None = None
    for segment in _segments(groups):
        chains: dict[tuple, list[_Group]] = {}
        for group in segment:
            chains.setdefault((group.chain, group.width), []).append(group)
        runs: list[list] = []
        for (_, width), members in sorted(chains.items(), key=lambda item: item[0]):
            ordered = sorted(members, key=lambda group: (group.start, group.task_class.value))
            chain = nodes.leaf(ordered[0])
            for group in ordered[1:]:
                chain = nodes.serial(chain, nodes.leaf(group))
            runs.append([chain, width])
        if balanced:
            parallel = balanced_parallel_runs(runs, nodes.parallel)
        else:
            parallel = left_deep_parallel_tree(
                [chain for chain, width in runs for _ in range(width)]
            )
        tree = parallel if tree is None else nodes.serial(tree, parallel)
    return tree
