"""The ``simulator`` backend; its declarations are a record in :mod:`~repro.api.backends`."""

from __future__ import annotations

import statistics

from ..hadoop.simulator import ClusterSimulator
from .backends import declared
from .results import PredictionResult
from .scenario import Scenario


@declared("simulator")
class SimulatorBackend:
    """Discrete-event YARN simulator — the evaluation's "measured" series.

    Runs ``scenario.repetitions`` simulations with seeds ``seed + i`` and
    reports the median of the per-run mean job response times: the
    measurement every figure and dashboard compares the models against.
    """

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
