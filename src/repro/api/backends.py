"""Prediction backends: one uniform ``predict(scenario)`` over every engine.

The registry maps short string keys to backend classes:

* ``mva-forkjoin`` / ``mva-tripathi`` — the paper's analytic Hadoop 2.x model
  (:class:`~repro.core.model.Hadoop2PerformanceModel`) with either estimator;
* ``aria`` — ARIA makespan bounds from a job profile derived from the same
  uncontended service demands the analytic model uses;
* ``herodotou`` — the Herodotou phase model on dataflow/cost statistics;
* ``vianna`` — the slot-based Hadoop 1.x baseline model;
* ``simulator`` — the discrete-event YARN simulator (median of the mean job
  response time over ``scenario.repetitions`` seeded runs — the "measured"
  value of the evaluation figures).

Backends are stateless: every :meth:`PredictionBackend.predict` call builds
its engine from the scenario alone, so instances can be shared across threads
and a result is a pure function of (scenario, backend, backend version).
Derived inputs come from :meth:`ScenarioResolver.current`, the dispatch's
resolver inside a service dispatch; in particular the two MVA backends of
one scenario read one fixed-point trajectory from it.  Every shared value is
a pure function of the scenario, so sharing it changes no bit of a result.
Only the closed-form ``aria`` and ``herodotou`` backends add a vectorised
``predict_batch``: each runs one evaluation body, over NumPy for a grid and
over Python floats (:data:`~repro.static_models.scalar.scalar`) for
``predict``.  The fixed-point and simulation backends evaluate one scenario
at a time.  What a backend cannot model it declares up front
(:func:`backend_declines`), and the service checks that before dispatch.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections.abc import Iterable, Sequence
from types import SimpleNamespace
from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from ..core.estimators import EstimatorKind
from ..core.model import Hadoop2PerformanceModel
from ..core.parameters import TaskClass
from ..exceptions import BackendCapabilityError, BackendError
from ..hadoop.failures import expected_inflation
from ..hadoop.simulator import ClusterSimulator
from ..static_models import herodotou
from ..static_models.aria import stage_bounds
from ..static_models.herodotou import CostStatistics
from ..static_models.scalar import scalar
from ..static_models.vianna import ViannaHadoop1Model
from .results import PredictionResult
from .scenario import Scenario, ScenarioResolver

#: Sigmas of task-duration spread assumed when deriving ARIA's max durations.
_ARIA_SPREAD_SIGMAS = 2.0

#: Every phase a result reports, in execution order.
ALL_PHASES = tuple(task_class.value for task_class in TaskClass.ordered())

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


@runtime_checkable
class PredictionBackend(Protocol):
    """A named engine that turns a :class:`Scenario` into a :class:`PredictionResult`.

    Backends may additionally declare these class attributes:

    * ``version`` (int, default 1) — bump whenever the backend's numerical
      behaviour changes; stored results recorded under an older version are
      treated as stale;
    * ``cpu_bound`` (bool, default False) — marks backends whose ``predict``
      does enough Python-level work that the GIL serialises a thread pool;
      the service's ``execution="process"`` mode ships those to a process
      pool instead;
    * ``modelled_phases`` (default :data:`ALL_PHASES`) — the phases the
      accuracy report scores;
    * ``declines(scenario) -> str | None`` (a classmethod; default: none) —
      why the backend cannot model ``scenario``.  The service never
      dispatches a declined point; ``predict`` raises the reason as a
      :class:`~repro.exceptions.BackendCapabilityError` for direct calls.

    Backends may also implement an optional batch capability::

        def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]

    evaluating a whole grid in one call (vectorised arithmetic).  The
    service dispatches suite misses to ``predict_batch`` when present (see
    :meth:`~repro.api.service.PredictionService.evaluate_suite`); results
    must be returned in input order, and each must be bitwise equal to
    per-scenario ``predict`` of the same scenario.  The built-in batch
    backends get that by construction: ``predict`` and ``predict_batch``
    run the same formulas, over a scalar namespace or over NumPy.
    """

    name: ClassVar[str]

    def predict(self, scenario: Scenario) -> PredictionResult:
        """Evaluate one scenario."""
        ...


_REGISTRY: dict[str, type] = {}


def register_backend(name: str):
    """Class decorator registering a backend under a string key."""

    def decorator(cls):
        if name in _REGISTRY:
            raise BackendError(f"backend {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def backend_names() -> list[str]:
    """Sorted names of all registered backends."""
    return sorted(_REGISTRY)


def backend_version(name: str) -> int | None:
    """Behaviour version of a registered backend; ``None`` when unregistered.

    The persistent result store records this next to every result and treats
    any mismatch on load as a stale record.
    """
    cls = _REGISTRY.get(name)
    return getattr(cls, "version", 1) if cls is not None else None


def backend_is_cpu_bound(name: str) -> bool:
    """Whether a backend benefits from process-pool (GIL-free) execution."""
    return bool(getattr(_REGISTRY.get(name), "cpu_bound", False))


def backend_declines(name: str, scenario: Scenario) -> str | None:
    """Why a registered backend cannot model ``scenario``; ``None`` if it can."""
    declines = getattr(_REGISTRY.get(name), "declines", None)
    return None if declines is None else declines(scenario)


def backend_phases(name: str) -> tuple[str, ...]:
    """The phases a backend models (all of :data:`ALL_PHASES` by default)."""
    return tuple(getattr(_REGISTRY.get(name), "modelled_phases", ALL_PHASES))


def backend_supports_batch(name: str) -> bool:
    """Whether a registered backend implements ``predict_batch``."""
    return callable(getattr(_REGISTRY.get(name), "predict_batch", None))


def create_backend(name: str, **options) -> PredictionBackend:
    """Instantiate a backend by name (``options`` go to its constructor)."""
    try:
        cls = _REGISTRY[name]
    except KeyError as exc:
        raise BackendError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from exc
    return cls(**options)


# -- graceful degradation under failure specs ----------------------------------
#
# Only the simulator models failures mechanistically.  The analytic backends
# follow a strict contract: apply an expected-value inflation correction where
# the model supports it (stragglers + task re-execution are mean-field
# effects), and *decline* — a reason declared by ``declines`` before any
# dispatch, never a silently failure-free number — where it doesn't (mid-run
# node loss and speculative races are scheduling-history dependent).


def _failure_inflation_factor(scenario: Scenario) -> float:
    """Expected-value correction factor of a scenario (1.0 when failure-free)."""
    spec = scenario.failures
    return 1.0 if spec is None else expected_inflation(spec)


class _InflationCorrected:
    """Analytic backends that inflate mean-field faults and decline the rest."""

    name: ClassVar[str]

    @classmethod
    def declines(cls, scenario: Scenario) -> str | None:
        """Node failures and speculative execution have no closed-form correction."""
        spec = scenario.failures
        if spec is None or spec.is_noop:
            return None
        if spec.node_failure_times:
            return (
                f"backend {cls.name!r} cannot model mid-run node failures; "
                "use the simulator backend for this failure spec"
            )
        if spec.speculative:
            return (
                f"backend {cls.name!r} cannot model speculative execution; "
                "use the simulator backend for this failure spec"
            )
        return None

    def _checked_factor(self, scenario: Scenario) -> float:
        """The inflation factor of a scenario this backend accepts, or raise."""
        if (reason := self.declines(scenario)) is not None:
            raise BackendCapabilityError(reason)
        return _failure_inflation_factor(scenario)


def _inflate_result(result: PredictionResult, factor: float) -> PredictionResult:
    """Scale a clean prediction by the expected failure inflation (>= 1)."""
    if factor == 1.0:
        return result
    return PredictionResult(
        backend=result.backend,
        scenario=result.scenario,
        total_seconds=result.total_seconds * factor,
        phases={name: seconds * factor for name, seconds in result.phases.items()},
        metadata={**result.metadata, "failure_inflation": factor},
    )


class _MvaBackend(_InflationCorrected):
    """Shared implementation of the two analytic-model backends.

    Both solve over the resolver's trajectory of the scenario, so within
    one dispatch the second estimator reuses the first one's A2–A5 work.
    """

    kind: ClassVar[EstimatorKind]
    #: 2: the solver places tasks with the array timeline only and always
    #: starts cold (totals moved by ~1e-14 from version 1's scalar path).
    #: 3: the overlap MVA and overlap factors make no BLAS call, so the bits
    #: no longer depend on the host's OpenBLAS kernel (totals moved <4e-16).
    version: ClassVar[int] = 3

    def predict(self, scenario: Scenario) -> PredictionResult:
        factor = self._checked_factor(scenario)
        trajectory = ScenarioResolver.current().mva_trajectory(scenario)
        prediction = Hadoop2PerformanceModel(trajectory.model_input).predict(
            self.kind, trajectory=trajectory
        )
        result = PredictionResult(
            backend=self.name,
            scenario=scenario,
            total_seconds=prediction.job_response_time,
            phases={
                task_class.value: seconds
                for task_class, seconds in prediction.class_response_times.items()
            },
            metadata={
                "estimator": prediction.estimator.value,
                "iterations": prediction.iterations,
                "converged": prediction.converged,
                "tree_depth": prediction.tree_depth,
                "num_leaves": prediction.num_leaves,
                "timeline_makespan": prediction.timeline_makespan,
            },
        )
        return _inflate_result(result, factor)


@register_backend("mva-forkjoin")
class MvaForkJoinBackend(_MvaBackend):
    """Analytic Hadoop 2.x model with the fork/join estimator."""

    kind = EstimatorKind.FORK_JOIN


@register_backend("mva-tripathi")
class MvaTripathiBackend(_MvaBackend):
    """Analytic Hadoop 2.x model with the Tripathi-based estimator."""

    kind = EstimatorKind.TRIPATHI
    #: 3: the P-node maximum of two built-in distributions is exact (closed
    #: form moments instead of a 4,096-point trapezoid; totals moved <1e-12).
    #: 4: no BLAS call on the solver path, as for the fork/join version 3.
    version: ClassVar[int] = 4


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


@register_backend("aria")
class AriaBackend(_InflationCorrected):
    """ARIA makespan bounds on a profile derived from the scenario's demands.

    Stage averages are the uncontended per-task service demands the analytic
    model uses; maxima assume a ``_ARIA_SPREAD_SIGMAS``-sigma spread at the
    scenario's task-duration CV.  Concurrent jobs get a fair share of the
    cluster's container slots.
    """

    def predict(self, scenario: Scenario) -> PredictionResult:
        return self._evaluate([scenario], scalar)[0]

    def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]:
        """The whole grid at once: each stage's bounds evaluate over NumPy columns."""
        return self._evaluate(scenarios, np)

    def _evaluate(self, scenarios: Sequence[Scenario], xp) -> list[PredictionResult]:
        """:func:`~repro.static_models.aria.stage_bounds` over ``xp`` columns.

        What an :class:`~repro.static_models.aria.AriaJobProfile` checks
        holds by construction: the task counts are positive (a scenario's
        ``input_size_bytes > 0`` gives at least one map, and it requires
        ``num_reduces > 0``), the averages are sums of demands that
        ``TaskClassDemands`` keeps non-negative, and ``duration_cv >= 0``
        makes ``spread >= 1``, so no maximum is below its average.
        """
        factors = [self._checked_factor(scenario) for scenario in scenarios]
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
            (num_maps, map_slots),
            (num_reduces, reduce_slots),
            (num_reduces, reduce_slots),
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
            _inflate_result(
                PredictionResult(
                    backend=self.name,
                    scenario=scenario,
                    total_seconds=total,
                    phases=dict(zip(ALL_PHASES, phases)),
                    metadata={
                        "lower_seconds": lower,
                        "upper_seconds": upper,
                        "map_slots": map_count,
                        "reduce_slots": reduce_count,
                    },
                ),
                factor,
            )
            for scenario, factor, (total, lower, upper, map_count, reduce_count, *phases) in zip(
                scenarios, factors, _rows(columns, xp)
            )
        ]


@register_backend("herodotou")
class HerodotouBackend(_InflationCorrected):
    """Herodotou static phase model (waves over fair-share slots)."""

    #: Shuffle-sort is folded into merge; its reported 0.0 is no estimate.
    modelled_phases: ClassVar[tuple[str, ...]] = ("map", "merge")

    def predict(self, scenario: Scenario) -> PredictionResult:
        return self._evaluate([scenario], scalar)[0]

    def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]:
        """All phase costs evaluated once over NumPy columns of the grid."""
        return self._evaluate(scenarios, np)

    def _evaluate(self, scenarios: Sequence[Scenario], xp) -> list[PredictionResult]:
        """:func:`~repro.static_models.herodotou.estimate` over ``xp`` columns."""
        factors = [self._checked_factor(scenario) for scenario in scenarios]
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
            _inflate_result(
                PredictionResult(
                    backend=self.name,
                    scenario=scenario,
                    total_seconds=total,
                    phases={"map": map_stage, "shuffle-sort": 0.0, "merge": reduce_stage},
                    metadata={
                        "map_waves": int(map_waves),
                        "reduce_waves": int(reduce_waves),
                        "map_task_seconds": map_task,
                        "reduce_task_seconds": reduce_task,
                    },
                ),
                factor,
            )
            for scenario, factor, (
                total,
                map_stage,
                reduce_stage,
                map_waves,
                reduce_waves,
                map_task,
                reduce_task,
            ) in zip(scenarios, factors, _rows(columns, xp))
        ]


@register_backend("vianna")
class ViannaBackend:
    """Vianna et al.'s slot-based Hadoop 1.x baseline model."""

    name: ClassVar[str]
    #: 2: same solver change as the MVA backends (array timeline, cold start).
    #: 3: same solver change as the MVA backends (no BLAS call).
    version: ClassVar[int] = 3

    def __init__(self, map_slots_per_node: int = 2, reduce_slots_per_node: int = 2) -> None:
        self.map_slots_per_node = map_slots_per_node
        self.reduce_slots_per_node = reduce_slots_per_node

    @classmethod
    def declines(cls, scenario: Scenario) -> str | None:
        spec = scenario.failures
        if spec is not None and not spec.is_noop:
            return (
                f"backend {cls.name!r} has no failure model or correction; "
                "use the simulator backend for this failure spec"
            )
        return None

    def predict(self, scenario: Scenario) -> PredictionResult:
        if (reason := self.declines(scenario)) is not None:
            raise BackendCapabilityError(reason)
        prediction = ViannaHadoop1Model(
            scenario.model_input(),
            map_slots_per_node=self.map_slots_per_node,
            reduce_slots_per_node=self.reduce_slots_per_node,
        ).predict()
        return PredictionResult(
            backend=self.name,
            scenario=scenario,
            total_seconds=prediction.job_response_time,
            phases={
                task_class.value: seconds
                for task_class, seconds in prediction.class_response_times.items()
            },
            metadata={
                "iterations": prediction.iterations,
                "converged": prediction.converged,
                "map_slots_per_node": self.map_slots_per_node,
                "reduce_slots_per_node": self.reduce_slots_per_node,
            },
        )


@register_backend("simulator")
class SimulatorBackend:
    """Discrete-event YARN simulator — the evaluation's "measured" series.

    Runs ``scenario.repetitions`` simulations with seeds ``seed + i`` and
    reports the median of the per-run mean job response times, exactly as the
    experiment runner has always derived the measurement.
    """

    name: ClassVar[str]
    #: The discrete-event loop is pure Python: fan it out over processes.
    cpu_bound: ClassVar[bool] = True

    #: Failure counters surfaced in result metadata (summed over repetitions).
    _FAILURE_COUNTERS = (
        "task_failures",
        "task_reexecutions",
        "node_failures",
        "containers_killed",
        "maps_invalidated",
        "speculative_launched",
        "speculative_wins",
    )

    def predict(self, scenario: Scenario) -> PredictionResult:
        workload = scenario.workload_spec()
        cluster = scenario.cluster_config()
        scheduler = scenario.scheduler_config()
        simulator_profile = workload.profile.simulator_profile()
        failures = scenario.failures
        inject = failures is not None and not failures.is_noop
        means: list[float] = []
        first_result = None
        failure_counts = dict.fromkeys(self._FAILURE_COUNTERS, 0)
        for repetition in range(scenario.repetitions):
            simulator = ClusterSimulator(
                cluster,
                scheduler,
                seed=scenario.seed + repetition,
                failures=failures,
            )
            for job_config in workload.job_configs():
                simulator.submit_job(job_config, simulator_profile)
            result = simulator.run()
            if first_result is None:
                first_result = result
            means.append(result.mean_response_time)
            if inject:
                for counter in self._FAILURE_COUNTERS:
                    failure_counts[counter] += getattr(result.metrics, counter)
        traces = first_result.job_traces
        metadata = {
            "repetitions": scenario.repetitions,
            "repetition_means": tuple(means),
            "makespan": first_result.makespan,
            "data_local_fraction": first_result.metrics.data_local_fraction,
        }
        if inject:
            metadata["failures"] = failure_counts
        return PredictionResult(
            backend=self.name,
            scenario=scenario,
            total_seconds=statistics.median(means),
            phases={
                "map": _mean(trace.average_map_duration() for trace in traces),
                "shuffle-sort": _mean(
                    trace.average_shuffle_sort_duration() for trace in traces
                ),
                "merge": _mean(trace.average_merge_duration() for trace in traces),
            },
            metadata=metadata,
        )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
