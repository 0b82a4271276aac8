"""The backends on the modified-MVA solver: ``mva-forkjoin``, ``mva-tripathi``, ``vianna``.

Their declarations are records in :mod:`~repro.api.backends`.
"""

from __future__ import annotations

from ..core.estimators import EstimatorKind
from ..core.model import Hadoop2PerformanceModel
from ..static_models.vianna import ViannaHadoop1Model
from .backends import declared
from .formula_backends import AnalyticBackend
from .results import PredictionResult
from .scenario import Scenario, ScenarioResolver


def _phases(prediction) -> dict[str, float]:
    """A model prediction's per-class response times, keyed by phase name."""
    return {cls.value: seconds for cls, seconds in prediction.class_response_times.items()}


class _MvaBackend(AnalyticBackend):
    """Shared implementation of the two analytic-model backends.

    Both solve over the resolver's trajectory of the scenario, so within
    one dispatch the second estimator reuses the first one's A2–A5 work.
    Subclasses set ``kind``, the estimator.
    """

    def predict(self, scenario: Scenario) -> PredictionResult:
        factor = self._factor(scenario)
        trajectory = ScenarioResolver.current().mva_trajectory(scenario)
        prediction = Hadoop2PerformanceModel(trajectory.model_input).predict(
            self.kind, trajectory=trajectory
        )
        return self._result(
            scenario,
            factor,
            prediction.job_response_time,
            _phases(prediction),
            {
                "estimator": prediction.estimator.value,
                "iterations": prediction.iterations,
                "converged": prediction.converged,
                "tree_depth": prediction.tree_depth,
                "num_leaves": prediction.num_leaves,
                "timeline_makespan": prediction.timeline_makespan,
            },
        )


@declared("mva-forkjoin")
class MvaForkJoinBackend(_MvaBackend):
    """Analytic Hadoop 2.x model with the fork/join estimator."""

    kind = EstimatorKind.FORK_JOIN


@declared("mva-tripathi")
class MvaTripathiBackend(_MvaBackend):
    """Analytic Hadoop 2.x model with the Tripathi-based estimator."""

    kind = EstimatorKind.TRIPATHI


@declared("vianna")
class ViannaBackend(AnalyticBackend):
    """Vianna et al.'s slot-based Hadoop 1.x baseline model.

    It declines every failure spec, so the inflation of what it accepts is 1.
    """

    def __init__(self, map_slots_per_node: int = 2, reduce_slots_per_node: int = 2) -> None:
        self.map_slots_per_node = map_slots_per_node
        self.reduce_slots_per_node = reduce_slots_per_node

    def predict(self, scenario: Scenario) -> PredictionResult:
        factor = self._factor(scenario)
        prediction = ViannaHadoop1Model(
            scenario.model_input(),
            map_slots_per_node=self.map_slots_per_node,
            reduce_slots_per_node=self.reduce_slots_per_node,
        ).predict()
        return self._result(
            scenario,
            factor,
            prediction.job_response_time,
            _phases(prediction),
            {
                "iterations": prediction.iterations,
                "converged": prediction.converged,
                "map_slots_per_node": self.map_slots_per_node,
                "reduce_slots_per_node": self.reduce_slots_per_node,
            },
        )
