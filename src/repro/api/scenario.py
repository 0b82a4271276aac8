"""Scenario specifications: the single input type of every prediction backend.

A :class:`Scenario` freezes everything a backend needs to produce a job
response-time estimate — the cluster (explicit :class:`~repro.config.ClusterConfig`
or the paper's testbed scaled to ``num_nodes``), the workload (a registered
application profile plus sizing), the scheduler, and the randomness contract
(``seed`` + ``repetitions`` for stochastic backends).  Scenarios serialise to
plain JSON dictionaries (:meth:`Scenario.to_dict` / :meth:`Scenario.from_dict`)
so suites can be stored in files, shipped over the wire, and used as cache
keys.

A :class:`ScenarioSuite` is an ordered collection of scenarios, either listed
explicitly or expanded from a base scenario plus a sweep grid over
``num_nodes`` / ``num_jobs`` / ``input_size_bytes`` — the three axes of the
paper's evaluation figures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..config import (
    ClusterConfig,
    ContainerSpec,
    FailureSpec,
    JobConfig,
    NodeSpec,
    SchedulerConfig,
)
from ..core.parameters import ModelInput
from ..exceptions import ConfigurationError, ValidationError
from ..static_models.herodotou import DataflowStatistics, HadoopEnvironment
from ..units import GiB, MiB, parse_size
from ..workloads.generators import WorkloadSpec, paper_cluster, paper_scheduler
from ..workloads.grep import grep_profile
from ..workloads.iterative import iterative_profile
from ..workloads.profiles import ApplicationProfile, model_input_from_profile
from ..workloads.recovery import recovery_profile
from ..workloads.terasort import terasort_profile
from ..workloads.wordcount import wordcount_profile

if TYPE_CHECKING:
    from ..core.mva_solver import Trajectory

#: Version of the scenario specification semantics.  Bump whenever the
#: meaning of a scenario field (or how backends consume one) changes in a way
#: that invalidates previously computed results; the persistent result store
#: records this version and skips records written under a different one.
SCENARIO_SPEC_VERSION = 1

#: Registered application-profile factories, keyed by workload name.
WORKLOAD_PROFILES: dict[str, Callable[[float], ApplicationProfile]] = {
    "wordcount": wordcount_profile,
    "terasort": terasort_profile,
    "grep": grep_profile,
}

#: Sweep axes accepted by :meth:`ScenarioSuite.from_sweep` and suite JSON.
_SWEEP_AXES = ("num_nodes", "num_jobs", "input_size_bytes")


def register_workload_profile(
    name: str, factory: Callable[[float], ApplicationProfile]
) -> None:
    """Register a new workload profile factory (``factory(duration_cv)``).

    Re-registering an existing name is rejected: scenarios (and the service's
    result cache) identify workloads by name, so swapping the factory under a
    live name would silently invalidate cached predictions.
    """
    if not name:
        raise ValidationError("workload name must be non-empty")
    if name in WORKLOAD_PROFILES:
        raise ValidationError(f"workload {name!r} is already registered")
    WORKLOAD_PROFILES[name] = factory


# The iterative/ML-style and failure-recovery profiles arrive through the
# public registration path, exactly as downstream users register their own.
register_workload_profile("iterative-ml", iterative_profile)
register_workload_profile("failure-recovery", recovery_profile)


# -- nested config (de)serialisation ------------------------------------------


def _node_to_dict(node: NodeSpec) -> dict:
    return dataclasses.asdict(node)


def _cluster_to_dict(cluster: ClusterConfig) -> dict:
    return {
        "num_nodes": cluster.num_nodes,
        "node": _node_to_dict(cluster.node),
        "map_container": dataclasses.asdict(cluster.map_container),
        "reduce_container": dataclasses.asdict(cluster.reduce_container),
        "yarn_memory_fraction": cluster.yarn_memory_fraction,
        "yarn_vcore_fraction": cluster.yarn_vcore_fraction,
        "max_maps_per_node": cluster.max_maps_per_node,
        "max_reduces_per_node": cluster.max_reduces_per_node,
        "num_racks": cluster.num_racks,
    }


def _cluster_from_dict(data: Mapping) -> ClusterConfig:
    payload = dict(data)
    try:
        if "node" in payload:
            payload["node"] = NodeSpec(**payload["node"])
        for key in ("map_container", "reduce_container"):
            if key in payload:
                payload[key] = ContainerSpec(**payload[key])
        return ClusterConfig(**payload)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid cluster specification: {exc}") from exc


def _scheduler_from_dict(data: Mapping) -> SchedulerConfig:
    try:
        return SchedulerConfig(**dict(data))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid scheduler specification: {exc}") from exc


def _failures_from_dict(data: Mapping) -> FailureSpec:
    try:
        return FailureSpec.from_dict(dict(data))
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise ValidationError(f"invalid failure specification: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """One fully specified prediction scenario (cluster + workload + scheduler + seed)."""

    workload: str = "wordcount"
    input_size_bytes: int = 1 * GiB
    block_size_bytes: int = 128 * MiB
    num_nodes: int = 4
    num_jobs: int = 1
    num_reduces: int = 4
    duration_cv: float = 0.3
    submission_gap_seconds: float = 0.0
    #: Base seed of stochastic backends (the simulator uses seed + repetition).
    seed: int = 1234
    #: Number of simulator repetitions the measured value is the median of.
    repetitions: int = 3
    #: Explicit cluster; ``None`` means the paper testbed with ``num_nodes`` nodes.
    cluster: ClusterConfig | None = None
    #: Explicit scheduler; ``None`` means the paper's Capacity configuration.
    scheduler: SchedulerConfig | None = None
    #: Failure injection; ``None`` (or a no-op spec) means failure-free.
    #: Omitted from :meth:`to_dict` when ``None`` so the cache keys of every
    #: pre-existing scenario are preserved.
    failures: FailureSpec | None = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_PROFILES:
            raise ValidationError(
                f"unknown workload {self.workload!r}; "
                f"registered: {sorted(WORKLOAD_PROFILES)}"
            )
        if self.input_size_bytes <= 0:
            raise ValidationError("input_size_bytes must be positive")
        if self.block_size_bytes <= 0:
            raise ValidationError("block_size_bytes must be positive")
        if self.num_nodes <= 0:
            raise ValidationError("num_nodes must be positive")
        if self.num_jobs <= 0:
            raise ValidationError("num_jobs must be positive")
        if self.num_reduces <= 0:
            raise ValidationError("num_reduces must be positive")
        if self.duration_cv < 0:
            raise ValidationError("duration_cv must be non-negative")
        if self.submission_gap_seconds < 0:
            raise ValidationError("submission_gap_seconds must be non-negative")
        if self.repetitions <= 0:
            raise ValidationError("repetitions must be positive")
        if self.cluster is not None and self.cluster.num_nodes != self.num_nodes:
            raise ValidationError(
                "explicit cluster has "
                f"{self.cluster.num_nodes} nodes but the scenario says {self.num_nodes}"
            )

    # -- resolved views -------------------------------------------------------

    def profile(self) -> ApplicationProfile:
        """The application profile of this scenario's workload."""
        return WORKLOAD_PROFILES[self.workload](self.duration_cv)

    def cluster_config(self) -> ClusterConfig:
        """Explicit cluster, or the paper testbed scaled to ``num_nodes``."""
        if self.cluster is not None:
            return self.cluster
        return paper_cluster(self.num_nodes)

    def scheduler_config(self) -> SchedulerConfig:
        """Explicit scheduler, or the paper's Capacity-scheduler configuration."""
        if self.scheduler is not None:
            return self.scheduler
        return paper_scheduler()

    def workload_spec(self) -> WorkloadSpec:
        """The multi-job workload specification of this scenario."""
        return WorkloadSpec(
            profile=self.profile(),
            input_size_bytes=self.input_size_bytes,
            block_size_bytes=self.block_size_bytes,
            num_reduces=self.num_reduces,
            num_jobs=self.num_jobs,
            submission_gap_seconds=self.submission_gap_seconds,
        )

    def job_configs(self) -> list[JobConfig]:
        """One :class:`~repro.config.JobConfig` per concurrent job."""
        return self.workload_spec().job_configs()

    def model_input(self) -> ModelInput:
        """Analytic-model input, as the analytic backends build it (one per dispatch)."""
        return ScenarioResolver.current().model_input(self)

    def with_updates(self, **changes) -> "Scenario":
        """Copy of the scenario with ``changes`` applied (convenience for sweeps)."""
        return dataclasses.replace(self, **changes)

    # -- (de)serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable dictionary; inverse of :meth:`from_dict`."""
        data = {
            "workload": self.workload,
            "input_size_bytes": self.input_size_bytes,
            "block_size_bytes": self.block_size_bytes,
            "num_nodes": self.num_nodes,
            "num_jobs": self.num_jobs,
            "num_reduces": self.num_reduces,
            "duration_cv": self.duration_cv,
            "submission_gap_seconds": self.submission_gap_seconds,
            "seed": self.seed,
            "repetitions": self.repetitions,
        }
        if self.cluster is not None:
            data["cluster"] = _cluster_to_dict(self.cluster)
        if self.scheduler is not None:
            data["scheduler"] = dataclasses.asdict(self.scheduler)
        if self.failures is not None:
            data["failures"] = self.failures.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        """Build a scenario from a dictionary (sizes may be strings like ``"5GB"``)."""
        if not isinstance(data, Mapping):
            raise ValidationError(f"scenario must be a mapping, got {type(data).__name__}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(
                f"unknown scenario fields {sorted(unknown)}; known: {sorted(known)}"
            )
        payload = dict(data)
        for key in ("input_size_bytes", "block_size_bytes"):
            if key in payload:
                payload[key] = parse_size(payload[key])
        if payload.get("cluster") is not None:
            payload["cluster"] = _cluster_from_dict(payload["cluster"])
        if payload.get("scheduler") is not None:
            payload["scheduler"] = _scheduler_from_dict(payload["scheduler"])
        if payload.get("failures") is not None and not isinstance(
            payload["failures"], FailureSpec
        ):
            payload["failures"] = _failures_from_dict(payload["failures"])
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ValidationError(f"invalid scenario: {exc}") from exc

    def to_json(self, **dumps_kwargs) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(data)

    def cache_key(self) -> str:
        """Stable key identifying this scenario (used by the prediction cache).

        Computed once per instance and kept in the instance dict, outside the
        dataclass fields, so equality, hashing and ``replace`` ignore it.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_cache_key", key)
        return key

    def describe(self) -> str:
        """Short human-readable label for tables and logs."""
        gib = self.input_size_bytes / GiB
        label = (
            f"{self.workload} {gib:g}GiB x{self.num_jobs} "
            f"on {self.num_nodes} nodes (r={self.num_reduces})"
        )
        if self.failures is not None and not self.failures.is_noop:
            parts = []
            if self.failures.task_failure_rate > 0:
                parts.append(f"p={self.failures.task_failure_rate:g}")
            if self.failures.straggler_fraction > 0:
                parts.append(
                    f"strag={self.failures.straggler_fraction:g}"
                    f"x{self.failures.straggler_slowdown:g}"
                )
            if self.failures.node_failure_times:
                parts.append(f"nodes={len(self.failures.node_failure_times)}")
            if self.failures.speculative:
                parts.append("spec")
            label += f" [faults: {', '.join(parts)}]"
        return label


def _fair_share(total: int, num_jobs: int) -> int:
    """Per-job share of ``total`` slots when ``num_jobs`` run concurrently."""
    return max(1, total // num_jobs)


#: How many MVA trajectories a resolver keeps after their last use.  The
#: service dispatches a scenario's backends next to each other, so the
#: other estimator finds the trajectory among the most recent ones; the
#: bound keeps a long dispatch from holding every scenario's iterations.
#: Eviction prefers a trajectory both estimators have read; an evicted one
#: is recomputed, with the same bits.
KEPT_TRAJECTORIES = 4

#: The resolver of the dispatch running in this context, if any.
_DISPATCH_RESOLVER: ContextVar["ScenarioResolver | None"] = ContextVar(
    "repro_dispatch_resolver", default=None
)


class ScenarioResolver:
    """Derived model inputs of scenarios, each built once per dispatch.

    Every view is memoised on exactly the scenario fields it reads (its key
    below), so a nodes x sizes x jobs grid builds each distinct cluster,
    profile and job config once, and the two MVA backends of one scenario
    read one fixed-point trajectory (:meth:`mva_trajectory`).

    One resolver serves one dispatch and is then dropped: nothing is cached
    on a scenario or across dispatches, so a cold evaluation stays cold.
    The service opens it (:meth:`dispatch`) around ``evaluate_many`` and
    each slice a grid run settles (the whole grid for ``evaluate_suite``,
    scenario slices for a stream or a cooperative worker; a scenario's
    backends always share a slice); backends read it through
    :meth:`current`, which outside a dispatch returns a fresh resolver.  It
    travels in a context variable: the service's thread pool runs every task
    in a copy of the dispatching context, so thread-mode workers inherit the
    dispatch's resolver, while process-pool workers start from an empty
    context and build their own (they share nothing, and give the same
    bits).  Views and trajectories are safe to read from several threads.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple, Any] = {}
        self._lock = threading.Lock()
        #: The most recently used trajectories and their read counts, oldest first.
        self._trajectories: OrderedDict[tuple, list] = OrderedDict()

    @classmethod
    def current(cls) -> "ScenarioResolver":
        """The resolver of the running dispatch, or a fresh one outside any."""
        resolver = _DISPATCH_RESOLVER.get()
        return cls() if resolver is None else resolver

    @classmethod
    @contextlib.contextmanager
    def dispatch(cls) -> Iterator["ScenarioResolver"]:
        """A fresh resolver, :meth:`current` for the ``with`` body."""
        resolver = cls()
        token = _DISPATCH_RESOLVER.set(resolver)
        try:
            yield resolver
        finally:
            _DISPATCH_RESOLVER.reset(token)

    def _view(self, key: tuple, build: Callable[[], Any]) -> Any:
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def cluster(self, scenario: Scenario) -> ClusterConfig:
        if scenario.cluster is not None:
            return scenario.cluster
        return self._view(("cluster", scenario.num_nodes), scenario.cluster_config)

    def profile(self, scenario: Scenario) -> ApplicationProfile:
        key = ("profile", scenario.workload, scenario.duration_cv)
        return self._view(key, scenario.profile)

    def scheduler(self, scenario: Scenario) -> SchedulerConfig:
        if scenario.scheduler is not None:
            return scenario.scheduler
        return self._view(("scheduler",), scenario.scheduler_config)

    def job_config(self, scenario: Scenario) -> JobConfig:
        """The first job's config: the one the analytic models size."""
        return self._view(
            ("job", *_job_fields(scenario)),
            lambda: self.profile(scenario).job_config(
                scenario.input_size_bytes, scenario.block_size_bytes, scenario.num_reduces
            ),
        )

    def model_input(self, scenario: Scenario) -> ModelInput:
        """Analytic-model input from the resolved views (itself not memoised)."""
        return model_input_from_profile(
            self.profile(scenario),
            self.cluster(scenario),
            self.job_config(scenario),
            num_jobs=scenario.num_jobs,
            slow_start=self.scheduler(scenario).slowstart_enabled,
        )

    def mva_trajectory(self, scenario: Scenario) -> Trajectory:
        """The A1–A5 trajectory of the scenario's model input (default seed and tree).

        Keyed on the fields :meth:`model_input` reads, so the fork/join and
        Tripathi backends of a scenario (and scenarios that differ only in
        seed, repetitions or failures) extend one trajectory.
        """
        from ..core.mva_solver import Trajectory  # the solver loads on first use

        key = (
            "trajectory",
            *_job_fields(scenario),
            scenario.cluster or scenario.num_nodes,
            scenario.num_jobs,
            self.scheduler(scenario).slowstart_enabled,
        )
        with self._lock:
            entry = self._trajectories.pop(key, None) or [Trajectory(self.model_input(scenario)), 0]
            entry[1] += 1
            self._trajectories[key] = entry
            if len(self._trajectories) > KEPT_TRAJECTORIES:
                # Evict the least recently used one both estimators have read:
                # one whose second reader has not come yet (a stalled thread)
                # stays, unless every kept trajectory is waiting.
                done = (kept for kept, (_, reads) in self._trajectories.items() if reads > 1)
                del self._trajectories[next(done, next(iter(self._trajectories)))]
            return entry[0]

    def fair_share_slots(self, scenario: Scenario) -> tuple[int, int]:
        """Per-job ``(map, reduce)`` container slots of the whole cluster."""
        cluster, jobs = self.cluster(scenario), scenario.num_jobs
        return self._view(
            ("slots", scenario.cluster or scenario.num_nodes, jobs),
            lambda: (
                _fair_share(cluster.total_map_capacity(), jobs),
                _fair_share(cluster.total_reduce_capacity(), jobs),
            ),
        )

    def herodotou_environment(self, scenario: Scenario) -> HadoopEnvironment:
        """Herodotou cost statistics, per-node slots fair-shared among jobs."""
        jobs = scenario.num_jobs

        def build() -> HadoopEnvironment:
            environment = self.profile(scenario).herodotou_environment(self.cluster(scenario))
            if jobs == 1:
                return environment
            return dataclasses.replace(
                environment,
                map_slots_per_node=_fair_share(environment.map_slots_per_node, jobs),
                reduce_slots_per_node=_fair_share(environment.reduce_slots_per_node, jobs),
            )

        profile_fields = (scenario.workload, scenario.duration_cv)
        key = ("environment", *profile_fields, scenario.cluster or scenario.num_nodes, jobs)
        return self._view(key, build)

    def herodotou_dataflow(self, scenario: Scenario) -> DataflowStatistics:
        """Herodotou dataflow statistics of the first job."""
        return self._view(
            ("dataflow", *_job_fields(scenario)),
            lambda: self.profile(scenario).herodotou_dataflow(self.job_config(scenario)),
        )


def _job_fields(scenario: Scenario) -> tuple:
    """What a first job config reads: the profile key and the job's sizing."""
    return (
        scenario.workload,
        scenario.duration_cv,
        scenario.input_size_bytes,
        scenario.block_size_bytes,
        scenario.num_reduces,
    )


@dataclass(frozen=True)
class ScenarioSuite:
    """An ordered, named collection of scenarios (one sweep or benchmark)."""

    name: str
    scenarios: tuple[Scenario, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("suite name must be non-empty")
        if not self.scenarios:
            raise ValidationError("suite must contain at least one scenario")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    @classmethod
    def from_sweep(
        cls,
        name: str,
        base: Scenario,
        *,
        num_nodes: Sequence[int] | None = None,
        num_jobs: Sequence[int] | None = None,
        input_size_bytes: Sequence[int | str] | None = None,
        description: str = "",
    ) -> "ScenarioSuite":
        """Cross product of the given axes applied on top of ``base``.

        Axis order is nodes (outer) → jobs → input size (inner), so a sweep
        over one axis preserves the order in which values were given.
        """
        node_values = list(num_nodes) if num_nodes else [base.num_nodes]
        job_values = list(num_jobs) if num_jobs else [base.num_jobs]
        size_values = (
            [parse_size(value) for value in input_size_bytes]
            if input_size_bytes
            else [base.input_size_bytes]
        )
        scenarios = [
            base.with_updates(
                num_nodes=nodes,
                num_jobs=jobs,
                input_size_bytes=size,
                # An explicit cluster scales with the node axis.
                cluster=(
                    base.cluster.with_nodes(nodes) if base.cluster is not None else None
                ),
            )
            for nodes in node_values
            for jobs in job_values
            for size in size_values
        ]
        return cls(name=name, scenarios=tuple(scenarios), description=description)

    def to_dict(self) -> dict:
        """JSON-serialisable dictionary; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "description": self.description,
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSuite":
        """Build a suite from an explicit list or a base + sweep grid.

        Two shapes are accepted::

            {"name": ..., "scenarios": [{...}, {...}]}
            {"name": ..., "base": {...}, "sweep": {"num_nodes": [4, 6, 8]}}
        """
        if not isinstance(data, Mapping):
            raise ValidationError(f"suite must be a mapping, got {type(data).__name__}")
        name = data.get("name")
        if not name:
            raise ValidationError("suite requires a non-empty 'name'")
        description = data.get("description", "")
        if "scenarios" in data:
            scenarios = tuple(Scenario.from_dict(entry) for entry in data["scenarios"])
            return cls(name=name, scenarios=scenarios, description=description)
        if "base" in data:
            sweep = data.get("sweep", {})
            unknown = set(sweep) - set(_SWEEP_AXES)
            if unknown:
                raise ValidationError(
                    f"unknown sweep axes {sorted(unknown)}; known: {list(_SWEEP_AXES)}"
                )
            return cls.from_sweep(
                name,
                Scenario.from_dict(data["base"]),
                num_nodes=sweep.get("num_nodes"),
                num_jobs=sweep.get("num_jobs"),
                input_size_bytes=sweep.get("input_size_bytes"),
                description=description,
            )
        raise ValidationError("suite requires either 'scenarios' or 'base' (+ 'sweep')")

    def to_json(self, **dumps_kwargs) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSuite":
        """Parse a suite from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid suite JSON: {exc}") from exc
        return cls.from_dict(data)
