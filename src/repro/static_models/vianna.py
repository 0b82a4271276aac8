"""Vianna et al.'s Hadoop 1.x performance model (the paper's starting point).

Vianna et al. combine a precedence tree with a closed queueing network for
MapReduce on Hadoop 1.x, where every node has a *fixed* number of map and
reduce slots.  The paper adapts that model to YARN's dynamic containers; the
original serves as the baseline whose ~15 % single-job error the new model
improves to 11–13.5 % (paper Section 5.2).

We reuse the same solver machinery (:mod:`repro.core`) with two differences
that characterise the Hadoop 1.x model:

* the per-node concurrency comes from the static slot configuration, not from
  container sizing (``map_slots_per_node`` / ``reduce_slots_per_node``);
* the job response time uses the original fork/join estimate with the full
  harmonic premium (``literal`` fork/join), which is what makes it slightly
  more pessimistic than the Hadoop 2.x model's estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.estimators import ForkJoinEstimator
from ..core.mva_solver import ModifiedMVASolver, SolverTrace
from ..core.parameters import ModelInput, TaskClass
from ..exceptions import ConfigurationError, ModelError


@dataclass(frozen=True)
class ViannaPrediction:
    """Prediction of the Hadoop 1.x baseline model."""

    job_response_time: float
    class_response_times: dict[TaskClass, float]
    iterations: int
    converged: bool


class ViannaHadoop1Model:
    """Slot-based Hadoop 1.x baseline model."""

    def __init__(
        self,
        model_input: ModelInput,
        map_slots_per_node: int = 2,
        reduce_slots_per_node: int = 2,
        epsilon: float = 1e-7,
        max_iterations: int = 60,
    ) -> None:
        if map_slots_per_node <= 0 or reduce_slots_per_node <= 0:
            raise ConfigurationError("slot counts must be positive")
        #: The Hadoop 1.x view of the same workload: static slots per node.
        self.model_input = model_input.with_updates(
            max_maps_per_node=map_slots_per_node,
            max_reduces_per_node=reduce_slots_per_node,
        )
        self.map_slots_per_node = map_slots_per_node
        self.reduce_slots_per_node = reduce_slots_per_node
        self._solver = ModifiedMVASolver(
            estimator=ForkJoinEstimator(literal=True),
            epsilon=epsilon,
            max_iterations=max_iterations,
        )
        self._trace: SolverTrace | None = None

    def predict(self) -> ViannaPrediction:
        """Estimate the average job response time with the Hadoop 1.x model."""
        trace = self._solver.solve(self.model_input)
        self._trace = trace
        return ViannaPrediction(
            job_response_time=trace.job_response_time,
            class_response_times=trace.class_response_times,
            iterations=trace.num_iterations,
            converged=trace.converged,
        )

    @property
    def trace(self) -> SolverTrace:
        """Solver trace of the last :meth:`predict` call."""
        if self._trace is None:
            raise ModelError("no prediction has been computed yet")
        return self._trace
