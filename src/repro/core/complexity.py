"""Computational-cost accounting (paper Section 4.3).

The paper derives the complexity of the whole solution as::

    O(C^2 N^2 K)                                      -- the MVA algorithm
  + O((m + r(m+1)) * n * max(pMaxMapsPerNode,
                             pMaxReducePerNode))      -- one timeline build
    * numberOfIterations

where ``C`` is the number of task classes, ``N`` the number of jobs, ``K``
the number of service centers, ``m``/``r`` the map/reduce task counts and
``n`` the number of nodes.  :func:`estimate_complexity` evaluates these
operation counts for a given :class:`~repro.core.parameters.ModelInput`, so
the complexity bench can verify the claimed scaling empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parameters import ModelInput, ServiceCenterName, TaskClass


@dataclass(frozen=True)
class ComplexityReport:
    """Operation counts predicted by the paper's complexity formulas."""

    mva_operations: int
    timeline_operations_per_iteration: int
    iterations: int

    @property
    def timeline_operations(self) -> int:
        """Timeline operations across all iterations."""
        return self.timeline_operations_per_iteration * self.iterations


def timeline_task_count(model_input: ModelInput) -> int:
    """The ``C = m + r(m+1)`` task count of the timeline cost formula.

    The paper counts every map task plus, for every reduce task, one merge
    subtask and one shuffle-sort interaction per map (the ``r * m`` term).
    """
    m = model_input.num_maps
    r = model_input.num_reduces
    return m + r * (m + 1)


def container_count(model_input: ModelInput) -> int:
    """The ``T = n * max(pMaxMapsPerNode, pMaxReducePerNode)`` container count."""
    return model_input.num_nodes * max(
        model_input.max_maps_per_node, model_input.max_reduces_per_node
    )


def estimate_complexity(model_input: ModelInput, iterations: int) -> ComplexityReport:
    """Evaluate the Section 4.3 cost formulas for ``model_input``."""
    num_classes = len(TaskClass.ordered())
    num_centers = len(ServiceCenterName.ordered())
    mva_operations = num_classes**2 * model_input.num_jobs**2 * num_centers
    timeline_operations = timeline_task_count(model_input) * container_count(model_input)
    return ComplexityReport(
        mva_operations=mva_operations,
        timeline_operations_per_iteration=timeline_operations,
        iterations=max(1, iterations),
    )
