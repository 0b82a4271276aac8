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
``predict_batch``; the fixed-point and simulation backends evaluate one
scenario at a time.  What a backend cannot model it declares up front
(:func:`backend_declines`), and the service checks that before dispatch.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections.abc import Sequence
from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from ..core.estimators import EstimatorKind
from ..core.model import Hadoop2PerformanceModel
from ..core.parameters import TaskClass
from ..exceptions import BackendCapabilityError, BackendError
from ..hadoop.failures import expected_inflation
from ..hadoop.simulator import ClusterSimulator
from ..static_models.aria import AriaJobProfile, AriaModel, batch_stage_bounds
from ..static_models.herodotou import CostStatistics, HerodotouJobModel, batch_estimate
from ..static_models.vianna import ViannaHadoop1Model
from .results import PredictionResult
from .scenario import Scenario, ScenarioResolver

#: Sigmas of task-duration spread assumed when deriving ARIA's max durations.
_ARIA_SPREAD_SIGMAS = 2.0

#: Every phase a result reports, in execution order.
ALL_PHASES = tuple(task_class.value for task_class in TaskClass.ordered())


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
    per-scenario ``predict`` of the same scenario.
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
    version: ClassVar[int] = 2

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
    version: ClassVar[int] = 3


@register_backend("aria")
class AriaBackend(_InflationCorrected):
    """ARIA makespan bounds on a profile derived from the scenario's demands.

    Stage averages are the uncontended per-task service demands the analytic
    model uses; maxima assume a ``_ARIA_SPREAD_SIGMAS``-sigma spread at the
    scenario's task-duration CV.  Concurrent jobs get a fair share of the
    cluster's container slots.
    """

    def predict(self, scenario: Scenario) -> PredictionResult:
        factor = self._checked_factor(scenario)
        resolve = ScenarioResolver.current()
        model_input = resolve.model_input(scenario)
        spread = 1.0 + _ARIA_SPREAD_SIGMAS * scenario.duration_cv

        def demand_seconds(task_class: TaskClass) -> float:
            demands = model_input.demands[task_class]
            return demands.cpu_seconds + demands.disk_seconds + demands.network_seconds

        avg_map = demand_seconds(TaskClass.MAP)
        avg_shuffle = demand_seconds(TaskClass.SHUFFLE_SORT)
        avg_reduce = demand_seconds(TaskClass.MERGE)
        profile = AriaJobProfile(
            num_maps=model_input.num_maps,
            num_reduces=model_input.num_reduces,
            avg_map_seconds=avg_map,
            max_map_seconds=avg_map * spread,
            avg_shuffle_seconds=avg_shuffle,
            max_shuffle_seconds=avg_shuffle * spread,
            avg_reduce_seconds=avg_reduce,
            max_reduce_seconds=avg_reduce * spread,
        )
        map_slots, reduce_slots = resolve.fair_share_slots(scenario)
        model = AriaModel(profile)
        bounds = model.job_bounds(map_slots, reduce_slots)
        result = PredictionResult(
            backend=self.name,
            scenario=scenario,
            total_seconds=bounds.average_seconds,
            phases={
                "map": model.map_stage_bounds(map_slots).average_seconds,
                "shuffle-sort": model.shuffle_stage_bounds(reduce_slots).average_seconds,
                "merge": model.reduce_stage_bounds(reduce_slots).average_seconds,
            },
            metadata={
                "lower_seconds": bounds.lower_seconds,
                "upper_seconds": bounds.upper_seconds,
                "map_slots": map_slots,
                "reduce_slots": reduce_slots,
            },
        )
        return _inflate_result(result, factor)

    def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]:
        """Vectorised sweep: the whole grid's bounds as stacked arrays.

        Per-scenario primitives (task counts, demand totals, fair-share
        slots) are stacked into NumPy arrays and the makespan-theorem bounds
        evaluate once per stage over the grid
        (:func:`~repro.static_models.aria.batch_stage_bounds`), with the
        scalar path's exact arithmetic.
        """
        factors = [self._checked_factor(scenario) for scenario in scenarios]
        count = len(scenarios)
        num_maps = np.empty(count)
        num_reduces = np.empty(count)
        stage_avgs = {
            TaskClass.MAP: np.empty(count),
            TaskClass.SHUFFLE_SORT: np.empty(count),
            TaskClass.MERGE: np.empty(count),
        }
        spread = np.empty(count)
        map_slots = np.empty(count, dtype=int)
        reduce_slots = np.empty(count, dtype=int)
        resolve = ScenarioResolver.current()
        for index, scenario in enumerate(scenarios):
            model_input = resolve.model_input(scenario)
            num_maps[index] = model_input.num_maps
            num_reduces[index] = model_input.num_reduces
            for task_class, values in stage_avgs.items():
                demands = model_input.demands[task_class]
                values[index] = (
                    demands.cpu_seconds + demands.disk_seconds + demands.network_seconds
                )
            spread[index] = 1.0 + _ARIA_SPREAD_SIGMAS * scenario.duration_cv
            map_slots[index], reduce_slots[index] = resolve.fair_share_slots(scenario)
        stage_tasks = {
            TaskClass.MAP: (num_maps, map_slots),
            TaskClass.SHUFFLE_SORT: (num_reduces, reduce_slots),
            TaskClass.MERGE: (num_reduces, reduce_slots),
        }
        averages: dict[TaskClass, np.ndarray] = {}
        lower_total = np.zeros(count)
        upper_total = np.zeros(count)
        for task_class, (tasks, slots) in stage_tasks.items():
            avg = stage_avgs[task_class]
            lower, upper = batch_stage_bounds(tasks, avg, avg * spread, slots)
            averages[task_class] = 0.5 * (lower + upper)
            lower_total = lower_total + lower
            upper_total = upper_total + upper
        total = 0.5 * (lower_total + upper_total)
        return [
            _inflate_result(
                PredictionResult(
                    backend=self.name,
                    scenario=scenario,
                    total_seconds=float(total[index]),
                    phases={
                        task_class.value: float(averages[task_class][index])
                        for task_class in TaskClass.ordered()
                    },
                    metadata={
                        "lower_seconds": float(lower_total[index]),
                        "upper_seconds": float(upper_total[index]),
                        "map_slots": int(map_slots[index]),
                        "reduce_slots": int(reduce_slots[index]),
                    },
                ),
                factors[index],
            )
            for index, scenario in enumerate(scenarios)
        ]


@register_backend("herodotou")
class HerodotouBackend(_InflationCorrected):
    """Herodotou static phase model (waves over fair-share slots)."""

    #: Shuffle-sort is folded into merge; its reported 0.0 is no estimate.
    modelled_phases: ClassVar[tuple[str, ...]] = ("map", "merge")

    def predict(self, scenario: Scenario) -> PredictionResult:
        factor = self._checked_factor(scenario)
        resolve = ScenarioResolver.current()
        estimate = HerodotouJobModel(resolve.herodotou_environment(scenario)).estimate(
            resolve.herodotou_dataflow(scenario)
        )
        result = PredictionResult(
            backend=self.name,
            scenario=scenario,
            total_seconds=estimate.total_seconds,
            phases={
                "map": estimate.map_stage_seconds,
                "shuffle-sort": 0.0,
                "merge": estimate.reduce_stage_seconds,
            },
            metadata={
                "map_waves": estimate.map_waves,
                "reduce_waves": estimate.reduce_waves,
                "map_task_seconds": estimate.map_phases.total,
                "reduce_task_seconds": estimate.reduce_phases.total,
            },
        )
        return _inflate_result(result, factor)

    def predict_batch(self, scenarios: Sequence[Scenario]) -> list[PredictionResult]:
        """Vectorised sweep: all phase costs evaluated as stacked arrays.

        Dataflow and cost statistics are stacked per grid point and the
        phase-cost formulas run once over the grid
        (:func:`~repro.static_models.herodotou.batch_estimate`), mirroring
        the scalar model's arithmetic.
        """
        factors = [self._checked_factor(scenario) for scenario in scenarios]
        # Per-byte cost statistics, stacked straight off the dataclass so the
        # name list cannot drift from CostStatistics (and batch_estimate's
        # matching keyword raises immediately if it does).
        cost_names = tuple(
            field.name for field in dataclasses.fields(CostStatistics)
        )
        dataflow_names = (
            "split_bytes",
            "map_output_bytes",
            "sort_buffer_bytes",
            "reduce_input_bytes",
            "reduce_output_bytes",
            "num_maps",
            "num_reduces",
            "output_replication",
        )
        environment_names = ("total_map_slots", "total_reduce_slots")
        fields: dict[str, list[float]] = {
            name: []
            for name in (
                *dataflow_names,
                *environment_names,
                "remote_fraction",
                *cost_names,
            )
        }
        resolve = ScenarioResolver.current()
        for scenario in scenarios:
            environment = resolve.herodotou_environment(scenario)
            dataflow = resolve.herodotou_dataflow(scenario)
            for name in dataflow_names:
                fields[name].append(getattr(dataflow, name))
            for name in environment_names:
                fields[name].append(getattr(environment, name))
            fields["remote_fraction"].append(
                (environment.num_nodes - 1) / environment.num_nodes
                if environment.num_nodes > 1
                else 0.0
            )
            for name in cost_names:
                fields[name].append(getattr(environment.costs, name))
        estimate = batch_estimate(
            **{name: np.asarray(values) for name, values in fields.items()}
        )
        map_stage = estimate.map_stage_seconds
        reduce_stage = estimate.reduce_stage_seconds
        total = estimate.total_seconds
        return [
            _inflate_result(
                PredictionResult(
                    backend=self.name,
                    scenario=scenario,
                    total_seconds=float(total[index]),
                    phases={
                        "map": float(map_stage[index]),
                        "shuffle-sort": 0.0,
                        "merge": float(reduce_stage[index]),
                    },
                    metadata={
                        "map_waves": int(estimate.map_waves[index]),
                        "reduce_waves": int(estimate.reduce_waves[index]),
                        "map_task_seconds": float(estimate.map_task_seconds[index]),
                        "reduce_task_seconds": float(
                            estimate.reduce_task_seconds[index]
                        ),
                    },
                ),
                factors[index],
            )
            for index, scenario in enumerate(scenarios)
        ]


@register_backend("vianna")
class ViannaBackend:
    """Vianna et al.'s slot-based Hadoop 1.x baseline model."""

    name: ClassVar[str]
    #: 2: same solver change as the MVA backends (array timeline, cold start).
    version: ClassVar[int] = 2

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
