"""Run experiment points through the unified prediction-backend API.

An *experiment point* fixes the number of nodes, the input size, the block
size, and the number of concurrent jobs.  Each point is a
:class:`~repro.api.Scenario` evaluated by the shared
:class:`~repro.api.PredictionService` with three backends:

1. ``simulator`` — the YARN simulator run ``repetitions`` times with seeds
   ``base_seed + i`` (the paper repeats every experiment 5 times); the median
   of the per-run mean job response times is the **measured** value;
2. ``mva-forkjoin`` and ``mva-tripathi`` — the analytic model variants built
   from the same workload;

and we record the relative errors of both estimates.  Series evaluation fans
the sweep points out over the service's thread pool, and the keyed result
cache makes repeated figure runs (and overlapping sweeps) free.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..analysis.errors import relative_error
from ..api import (
    WORKLOAD_PROFILES,
    BaseResultStore,
    PredictionService,
    Scenario,
    ScenarioSuite,
    SweepOutcome,
    SweepScheduler,
)
from ..config import ClusterConfig, SchedulerConfig
from ..core.estimators import EstimatorKind
from ..exceptions import ExperimentError
from ..workloads.generators import WorkloadSpec

logger = logging.getLogger(__name__)

#: Number of simulator repetitions per point (the paper uses 5).
DEFAULT_REPETITIONS = 3
#: Base seed from which the per-repetition seeds are derived.
DEFAULT_BASE_SEED = 1234

#: Backends an experiment point evaluates (measurement + both estimators).
POINT_BACKENDS = ("simulator", "mva-forkjoin", "mva-tripathi")


def _resolve_service(
    service: PredictionService | None,
    store: BaseResultStore | str | None = None,
    execution: str | None = None,
) -> PredictionService:
    """A caller-provided service, or a fresh one per run.

    Each run defaults to its own service so repeated runs (in particular the
    pytest-benchmark figure rounds) re-measure real work instead of hitting a
    process-global cache; within one run the cache still deduplicates
    overlapping sweep points.  Pass an explicit ``service`` to share the
    cache across calls, or ``store`` / ``execution`` to give the per-run
    service a persistent result store (figure runs survive restarts) and an
    execution mode (``"process"`` uses every core for the simulator points).
    """
    if service is not None:
        return service
    return PredictionService(
        backends=list(POINT_BACKENDS),
        store=store,
        execution=execution or "thread",
    )


@dataclass(frozen=True)
class ExperimentPoint:
    """Result of one experiment point."""

    num_nodes: int
    num_jobs: int
    input_size_bytes: int
    block_size_bytes: int
    measured_seconds: float
    forkjoin_seconds: float
    tripathi_seconds: float

    @property
    def forkjoin_error(self) -> float:
        """Signed relative error of the fork/join estimate."""
        return relative_error(self.forkjoin_seconds, self.measured_seconds)

    @property
    def tripathi_error(self) -> float:
        """Signed relative error of the Tripathi estimate."""
        return relative_error(self.tripathi_seconds, self.measured_seconds)


@dataclass
class ExperimentSeries:
    """A sweep over one x-axis (nodes or jobs) at fixed other parameters."""

    x_label: str
    x_values: list[float] = field(default_factory=list)
    points: list[ExperimentPoint] = field(default_factory=list)

    def series(self) -> dict[str, list[float]]:
        """Figure-style series: measured, fork/join, Tripathi."""
        return {
            "HadoopSetup": [point.measured_seconds for point in self.points],
            "Fork/join": [point.forkjoin_seconds for point in self.points],
            "Tripathi": [point.tripathi_seconds for point in self.points],
        }

    def errors(self, estimator: EstimatorKind) -> list[float]:
        """Signed relative errors of one estimator over the series."""
        if estimator is EstimatorKind.FORK_JOIN:
            return [point.forkjoin_error for point in self.points]
        return [point.tripathi_error for point in self.points]


def scenario_for_workload(
    workload: WorkloadSpec,
    num_nodes: int,
    repetitions: int = DEFAULT_REPETITIONS,
    base_seed: int = DEFAULT_BASE_SEED,
    cluster: ClusterConfig | None = None,
    scheduler: SchedulerConfig | None = None,
) -> Scenario:
    """Translate a legacy :class:`WorkloadSpec` into an API :class:`Scenario`.

    A scenario identifies its workload by registry name + ``duration_cv``, so
    the workload's profile must be reconstructible from the registry; a
    customised profile would otherwise be silently replaced by the canonical
    one, and is rejected instead.
    """
    name = workload.profile.name
    factory = WORKLOAD_PROFILES.get(name)
    if factory is None or factory(workload.profile.duration_cv) != workload.profile:
        raise ExperimentError(
            f"workload profile {name!r} is not reconstructible from the registry; "
            "register it with repro.api.register_workload_profile before running "
            "experiments with it"
        )
    if cluster is not None and cluster.num_nodes != num_nodes:
        cluster = cluster.with_nodes(num_nodes)
    return Scenario(
        workload=workload.profile.name,
        input_size_bytes=workload.input_size_bytes,
        block_size_bytes=workload.block_size_bytes,
        num_nodes=num_nodes,
        num_jobs=workload.num_jobs,
        num_reduces=workload.num_reduces,
        duration_cv=workload.profile.duration_cv,
        submission_gap_seconds=workload.submission_gap_seconds,
        seed=base_seed,
        repetitions=repetitions,
        cluster=cluster,
        scheduler=scheduler,
    )


def _point_from_results(scenario: Scenario, results) -> ExperimentPoint:
    return ExperimentPoint(
        num_nodes=scenario.num_nodes,
        num_jobs=scenario.num_jobs,
        input_size_bytes=scenario.input_size_bytes,
        block_size_bytes=scenario.block_size_bytes,
        measured_seconds=results["simulator"].total_seconds,
        forkjoin_seconds=results["mva-forkjoin"].total_seconds,
        tripathi_seconds=results["mva-tripathi"].total_seconds,
    )


def simulate_measured_response(
    workload: WorkloadSpec,
    cluster: ClusterConfig,
    scheduler: SchedulerConfig,
    repetitions: int = DEFAULT_REPETITIONS,
    base_seed: int = DEFAULT_BASE_SEED,
    service: PredictionService | None = None,
    store: BaseResultStore | str | None = None,
) -> float:
    """Median over repetitions of the mean job response time (the "measurement")."""
    if repetitions <= 0:
        raise ExperimentError("repetitions must be positive")
    scenario = scenario_for_workload(
        workload,
        cluster.num_nodes,
        repetitions=repetitions,
        base_seed=base_seed,
        cluster=cluster,
        scheduler=scheduler,
    )
    return (
        _resolve_service(service, store=store)
        .evaluate(scenario, "simulator")
        .total_seconds
    )


def run_experiment_point(
    workload: WorkloadSpec,
    num_nodes: int,
    repetitions: int = DEFAULT_REPETITIONS,
    base_seed: int = DEFAULT_BASE_SEED,
    cluster: ClusterConfig | None = None,
    scheduler: SchedulerConfig | None = None,
    service: PredictionService | None = None,
    store: BaseResultStore | str | None = None,
) -> ExperimentPoint:
    """Run the simulator and both model variants for one experiment point."""
    if repetitions <= 0:
        raise ExperimentError("repetitions must be positive")
    scenario = scenario_for_workload(
        workload,
        num_nodes,
        repetitions=repetitions,
        base_seed=base_seed,
        cluster=cluster,
        scheduler=scheduler,
    )
    results = _resolve_service(service, store=store).evaluate_many(
        scenario, POINT_BACKENDS
    )
    return _point_from_results(scenario, results)


def run_suite_grid(
    suite: ScenarioSuite,
    backends: Sequence[str],
    service: PredictionService | None = None,
    store: BaseResultStore | str | None = None,
    execution: str | None = None,
    on_error: str | None = None,
) -> SweepOutcome:
    """Schedule one ``suite × backends`` grid through the sweep scheduler.

    This is the single grid-execution path shared by the figure series and
    the accuracy dashboard: with a store-backed service, completed points
    replay from disk and only the missing remainder is evaluated (the plan
    is logged at debug level).  ``on_error`` forwards the sweep's
    partial-results contract (``"raise"`` / ``"skip"`` / ``"record"``;
    ``None`` keeps the service's configured mode).
    """
    if service is None:
        service = PredictionService(
            backends=list(backends), store=store, execution=execution or "thread"
        )
    outcome = SweepScheduler(service).run(suite, backends, on_error=on_error)
    logger.debug("%s", outcome.plan.describe())
    return outcome


def run_suite_series(
    suite: ScenarioSuite,
    x_label: str,
    x_values: list[float],
    service: PredictionService | None = None,
    store: BaseResultStore | str | None = None,
    execution: str | None = None,
) -> ExperimentSeries:
    """Evaluate a scenario suite (aligned with ``x_values``) into a series."""
    if len(suite.scenarios) != len(x_values):
        raise ExperimentError("suite and x_values must align")
    outcome = run_suite_grid(
        suite,
        POINT_BACKENDS,
        service=_resolve_service(service, store=store, execution=execution),
    )
    series = ExperimentSeries(x_label=x_label, x_values=list(x_values))
    for scenario, row in zip(suite.scenarios, outcome.result.rows):
        series.points.append(_point_from_results(scenario, row))
    return series


def run_series(
    workloads: list[WorkloadSpec],
    node_counts: list[int],
    x_label: str,
    x_values: list[float],
    repetitions: int = DEFAULT_REPETITIONS,
    base_seed: int = DEFAULT_BASE_SEED,
    service: PredictionService | None = None,
    store: BaseResultStore | str | None = None,
    execution: str | None = None,
) -> ExperimentSeries:
    """Run a sweep; ``workloads`` and ``node_counts`` are aligned with ``x_values``."""
    if not (len(workloads) == len(node_counts) == len(x_values)):
        raise ExperimentError("workloads, node_counts and x_values must align")
    suite = ScenarioSuite(
        name="series",
        scenarios=tuple(
            scenario_for_workload(
                workload, num_nodes, repetitions=repetitions, base_seed=base_seed
            )
            for workload, num_nodes in zip(workloads, node_counts)
        ),
    )
    return run_suite_series(
        suite, x_label, x_values, service=service, store=store, execution=execution
    )
