"""The closed-form ``aria`` and ``herodotou`` backends, and the analytic base class.

Each runs one evaluation body over a namespace ``xp``: Python floats
(:data:`~repro.static_models.scalar.scalar`) for ``predict``, NumPy for
``predict_batch``, the only place this module imports NumPy.  Their
declarations are records in :mod:`~repro.api.backends`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from types import SimpleNamespace

from ..core.parameters import TaskClass
from ..exceptions import BackendCapabilityError
from ..hadoop.failures import expected_inflation
from ..static_models import herodotou
from ..static_models.aria import stage_bounds
from ..static_models.herodotou import CostStatistics
from ..static_models.scalar import scalar
from .backends import ALL_PHASES, declared
from .results import PredictionResult
from .scenario import Scenario, ScenarioResolver

#: Sigmas of task-duration spread assumed when deriving ARIA's max durations.
_ARIA_SPREAD_SIGMAS = 2.0

#: The herodotou inputs stacked per grid point: the dataflow's sizing, and
#: every per-byte cost statistic (read off the dataclass, so the list
#: cannot drift from :class:`~repro.static_models.herodotou.CostStatistics`).
_DATAFLOW_COLUMNS = (
    "split_bytes",
    "map_output_bytes",
    "sort_buffer_bytes",
    "reduce_input_bytes",
    "reduce_output_bytes",
    "num_maps",
    "num_reduces",
    "output_replication",
)
_COST_COLUMNS = tuple(field.name for field in dataclasses.fields(CostStatistics))


class AnalyticBackend:
    """Analytic backends: inflate mean-field faults, decline the rest up front.

    A direct ``predict`` of a declined point raises the reason (the service
    never dispatches one).
    """

    def _factor(self, scenario: Scenario) -> float:
        """The expected failure inflation of a scenario this backend accepts, or raise."""
        if (reason := self.declines(scenario)) is not None:
            raise BackendCapabilityError(reason)
        spec = scenario.failures
        return 1.0 if spec is None else expected_inflation(spec)

    def _result(
        self, scenario: Scenario, factor: float, total: float, phases: dict, metadata: dict
    ) -> PredictionResult:
        """The clean prediction scaled by the inflation ``factor`` (>= 1)."""
        if factor != 1.0:
            total *= factor
            phases = {name: seconds * factor for name, seconds in phases.items()}
            metadata = {**metadata, "failure_inflation": factor}
        return PredictionResult(self.name, scenario, total, phases, metadata)


class _FormulaBackend(AnalyticBackend):
    """One ``_evaluate(scenarios, xp)`` body: Python floats per point, NumPy per grid."""

    def predict(self, scenario: Scenario) -> PredictionResult:
        return self._evaluate([scenario], scalar)[0]

    def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]:
        """The whole grid at once, each formula over NumPy columns."""
        import numpy

        return self._evaluate(scenarios, numpy)


def _rows(columns: tuple, xp) -> Iterable[tuple]:
    """One tuple of Python numbers per point of formula result ``columns``.

    The scalar namespace's results are the one point's numbers already.
    """
    if xp is scalar:
        return (columns,)
    return zip(*(column.tolist() for column in columns))


def _stack(objects: Sequence, names: Sequence[str], xp, **columns):
    """One ``xp`` column per attribute name over ``objects``, plus ``columns``.

    The scalar namespace holds one point, and that point's object already
    has its values under those names.
    """
    if xp is scalar:
        (point,) = objects
        return point
    for name in names:
        columns[name] = xp.asarray([getattr(item, name) for item in objects])
    return SimpleNamespace(**columns)


@declared("aria")
class AriaBackend(_FormulaBackend):
    """ARIA makespan bounds on a profile derived from the scenario's demands.

    Stage averages are the uncontended per-task service demands the analytic
    model uses; maxima assume a ``_ARIA_SPREAD_SIGMAS``-sigma spread at the
    scenario's task-duration CV.  Concurrent jobs get a fair share of the
    cluster's container slots.
    """

    def _evaluate(self, scenarios: Sequence[Scenario], xp) -> list[PredictionResult]:
        """:func:`~repro.static_models.aria.stage_bounds` over ``xp`` columns.

        What an :class:`~repro.static_models.aria.AriaJobProfile` checks
        holds by construction: the task counts are positive (a scenario's
        ``input_size_bytes > 0`` gives at least one map, and it requires
        ``num_reduces > 0``), the averages are sums of demands that
        ``TaskClassDemands`` keeps non-negative, and ``duration_cv >= 0``
        makes ``spread >= 1``, so no maximum is below its average.
        """
        factors = [self._factor(scenario) for scenario in scenarios]
        resolve = ScenarioResolver.current()
        rows = []
        for scenario in scenarios:
            model_input = resolve.model_input(scenario)
            demands = model_input.demands
            rows.append(
                (
                    model_input.num_maps,
                    model_input.num_reduces,
                    *resolve.fair_share_slots(scenario),
                    1.0 + _ARIA_SPREAD_SIGMAS * scenario.duration_cv,
                    *(demands[task_class].total_seconds for task_class in TaskClass.ordered()),
                )
            )
        num_maps, num_reduces, map_slots, reduce_slots, spread, *averages = (
            rows[0] if xp is scalar else map(xp.asarray, zip(*rows))
        )
        stage_tasks = (
            (num_maps, map_slots), (num_reduces, reduce_slots), (num_reduces, reduce_slots)
        )
        stages = [
            stage_bounds(tasks, avg, avg * spread, slots, xp)
            for avg, (tasks, slots) in zip(averages, stage_tasks)
        ]
        job = stages[0] + stages[1] + stages[2]
        columns = (
            job.average_seconds,
            job.lower_seconds,
            job.upper_seconds,
            map_slots,
            reduce_slots,
            *(stage.average_seconds for stage in stages),
        )
        return [
            self._result(
                scenario,
                factor,
                total,
                dict(zip(ALL_PHASES, phases)),
                {
                    "lower_seconds": lower,
                    "upper_seconds": upper,
                    "map_slots": map_count,
                    "reduce_slots": reduce_count,
                },
            )
            for scenario, factor, (total, lower, upper, map_count, reduce_count, *phases) in zip(
                scenarios, factors, _rows(columns, xp)
            )
        ]


@declared("herodotou")
class HerodotouBackend(_FormulaBackend):
    """Herodotou static phase model (waves over fair-share slots)."""

    def _evaluate(self, scenarios: Sequence[Scenario], xp) -> list[PredictionResult]:
        """:func:`~repro.static_models.herodotou.estimate` over ``xp`` columns."""
        factors = [self._factor(scenario) for scenario in scenarios]
        resolve = ScenarioResolver.current()
        environments = [resolve.herodotou_environment(scenario) for scenario in scenarios]
        dataflows = [resolve.herodotou_dataflow(scenario) for scenario in scenarios]
        estimate = herodotou.estimate(
            _stack(dataflows, _DATAFLOW_COLUMNS, xp),
            _stack(
                environments,
                ("num_nodes", "total_map_slots", "total_reduce_slots"),
                xp,
                costs=_stack([item.costs for item in environments], _COST_COLUMNS, xp),
            ),
            xp,
        )
        columns = (
            estimate.total_seconds,
            estimate.map_stage_seconds,
            estimate.reduce_stage_seconds,
            estimate.map_waves,
            estimate.reduce_waves,
            estimate.map_task_seconds,
            estimate.reduce_task_seconds,
        )
        return [
            self._result(
                scenario,
                factor,
                total,
                {"map": map_stage, "shuffle-sort": 0.0, "merge": reduce_stage},
                {
                    "map_waves": int(map_waves),
                    "reduce_waves": int(reduce_waves),
                    "map_task_seconds": map_task,
                    "reduce_task_seconds": reduce_task,
                },
            )
            for scenario, factor, (
                total, map_stage, reduce_stage, map_waves, reduce_waves, map_task, reduce_task
            ) in zip(scenarios, factors, _rows(columns, xp))
        ]
