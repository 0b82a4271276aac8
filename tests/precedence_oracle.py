"""The per-entry precedence-tree builder, kept as the oracle of the shared one.

This is :func:`repro.core.precedence.builder.build_precedence_tree` as it
was written over :class:`~repro.core.timeline.TimelineEntry` objects: one
leaf per task instance, an O(entries x instants) cut scan, and a balanced
P-group over every chain.  The builder now works on interval groups (one
per map wave of a placement) and shares identical subtrees;
``tests/test_precedence_sharing.py`` checks that both trees fold to the
same estimates, bit for bit.  The list-based P-group balancing it used is
copied here too, so that the oracle shares no pairing code with the builder.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.parameters import TaskClass
from repro.core.precedence.tree import LeafNode, OperatorKind, OperatorNode, PrecedenceNode
from repro.core.timeline import Timeline, TimelineEntry
from repro.exceptions import ModelError


def left_deep_parallel_tree(nodes: Sequence[PrecedenceNode]) -> PrecedenceNode:
    """Combine ``nodes`` with P-operators into a left-deep (unbalanced) chain."""
    if not nodes:
        raise ModelError("cannot build a parallel tree from zero nodes")
    result = nodes[0]
    for node in nodes[1:]:
        result = OperatorNode(operator=OperatorKind.PARALLEL, left=result, right=node)
    return result


def balanced_parallel_tree(nodes: Sequence[PrecedenceNode]) -> PrecedenceNode:
    """Combine ``nodes`` with P-operators into a balanced binary tree.

    The resulting depth is ``ceil(log2(k))`` instead of ``k - 1``, which is
    the balancing procedure the paper applies to every P-subtree.
    """
    if not nodes:
        raise ModelError("cannot build a parallel tree from zero nodes")
    current: list[PrecedenceNode] = list(nodes)
    while len(current) > 1:
        paired: list[PrecedenceNode] = []
        for index in range(0, len(current) - 1, 2):
            paired.append(
                OperatorNode(
                    operator=OperatorKind.PARALLEL,
                    left=current[index],
                    right=current[index + 1],
                )
            )
        if len(current) % 2 == 1:
            paired.append(current[-1])
        current = paired
    return current[0]


#: Numerical tolerance when comparing timeline instants.
_TIME_EPSILON = 1e-9


def _cut_points(entries: list[TimelineEntry]) -> list[float]:
    """Sorted times that no entry strictly spans (segment boundaries)."""
    candidates = sorted({entry.start for entry in entries} | {entry.end for entry in entries})
    cuts = []
    for time in candidates:
        spanning = any(
            entry.start < time - _TIME_EPSILON and entry.end > time + _TIME_EPSILON
            for entry in entries
        )
        if not spanning:
            cuts.append(time)
    return cuts


def _segments(entries: list[TimelineEntry]) -> list[list[TimelineEntry]]:
    """Partition entries into maximal groups separated by cut points."""
    cuts = _cut_points(entries)
    segments: list[list[TimelineEntry]] = []
    for index in range(len(cuts) - 1):
        lower = cuts[index]
        upper = cuts[index + 1]
        members = [
            entry
            for entry in entries
            if entry.start >= lower - _TIME_EPSILON and entry.end <= upper + _TIME_EPSILON
            # Zero-length entries sitting exactly on a boundary belong to the
            # segment that starts there (avoids duplicating them).
            and (entry.start < upper - _TIME_EPSILON or lower == upper)
        ]
        if members:
            segments.append(members)
    # Zero-duration instances sitting exactly on the final boundary (or
    # floating-point pathologies) may escape the interval test above; attach
    # them as a trailing segment instead of losing them.
    captured_ids = {
        id(entry) for segment in segments for entry in segment
    }
    leftovers = [entry for entry in entries if id(entry) not in captured_ids]
    if leftovers:
        segments.append(leftovers)
    return segments


def _chain_key(entry: TimelineEntry) -> tuple:
    """Key grouping entries that execute sequentially within a segment."""
    instance = entry.instance
    if instance.task_class is TaskClass.MAP:
        return ("map", instance.index)
    return ("reduce", instance.reduce_index)


def _build_chain(
    entries: list[TimelineEntry],
    cv_by_class: dict[TaskClass, float],
) -> PrecedenceNode:
    """S-chain the entries of one chain (sorted by start time)."""
    ordered = sorted(entries, key=lambda entry: (entry.start, entry.instance.task_class.value))
    nodes: list[PrecedenceNode] = [
        LeafNode(
            instance=entry.instance,
            mean_response_time=entry.duration,
            coefficient_of_variation=cv_by_class.get(entry.instance.task_class, 0.0),
        )
        for entry in ordered
    ]
    chain = nodes[0]
    for node in nodes[1:]:
        chain = OperatorNode(operator=OperatorKind.SERIAL, left=chain, right=node)
    return chain


def build_precedence_tree_per_entry(
    timeline: Timeline,
    coefficient_of_variation: dict[TaskClass, float] | None = None,
    balanced: bool = True,
) -> PrecedenceNode:
    """Build the (binary) precedence tree of ``timeline``.

    Parameters
    ----------
    timeline:
        Placement of one job's task instances.
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
    if not timeline.entries:
        raise ModelError("cannot build a precedence tree from an empty timeline")
    cv_by_class = coefficient_of_variation or {}

    groups: list[PrecedenceNode] = []
    for segment in _segments(timeline.entries):
        chains: dict[tuple, list[TimelineEntry]] = {}
        for entry in segment:
            chains.setdefault(_chain_key(entry), []).append(entry)
        chain_nodes = [
            _build_chain(entries, cv_by_class)
            for _, entries in sorted(chains.items(), key=lambda item: item[0])
        ]
        if balanced:
            groups.append(balanced_parallel_tree(chain_nodes))
        else:
            groups.append(left_deep_parallel_tree(chain_nodes))

    if not groups:
        raise ModelError("timeline produced no segments")
    tree = groups[0]
    for group in groups[1:]:
        tree = OperatorNode(operator=OperatorKind.SERIAL, left=tree, right=group)
    return tree
