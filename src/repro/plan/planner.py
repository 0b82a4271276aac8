"""The capacity-planning search engine: coarse-to-fine over a frozen grid.

The :class:`CapacityPlanner` inverts the prediction service.  Given a
:class:`~repro.plan.spec.PlanSpec` it searches the declared
:class:`~repro.plan.spec.SearchSpace` for the candidate that optimises the
:class:`~repro.plan.spec.Objective` subject to the
:class:`~repro.plan.spec.Constraint`:

1. **Prune** — candidates that violate the static memory ceiling or do not
   materialise into a valid scenario (container larger than a node's YARN
   envelope) are rejected without touching a backend.
2. **Coarse pass** — up to ``spec.coarse`` evenly spaced values per axis
   (endpoints always included) are crossed into a batch and evaluated as
   one :class:`~repro.api.scenario.ScenarioSuite` through the
   :class:`~repro.api.sweep.SweepScheduler` — so cached points replay from
   the result store, batch-capable backends (``aria``, ``herodotou``)
   evaluate the whole round in one ``predict_batch`` call, and an
   interrupted plan resumes exactly like an interrupted sweep.
3. **Surrogate (optional)** — a per-slice interpolant fitted on the coarse
   probes nominates promising unevaluated candidates; the real backend
   evaluates every nomination before it can lead.
4. **Refine** — repeatedly bisect (by grid index) between the incumbent and
   its nearest evaluated neighbour along every axis, evaluating each round
   as one batch, until no unevaluated midpoint remains or the evaluation
   budget is spent.
5. **Confirm (optional)** — a second backend re-evaluates the winner.

Everything is deterministic: batches are built in sorted candidate order,
ties break towards smaller clusters, and no step consults wall-clock time —
re-running a spec reproduces the identical :class:`PlanReport` ``result``
section whether the store is cold or warm.
"""

from __future__ import annotations

from ..api.scenario import Scenario, ScenarioSuite
from ..api.service import PredictionService
from ..api.sweep import SweepScheduler
from ..exceptions import ConfigurationError, ValidationError
from .report import PlanProbe, PlanReport, PlanRound
from .spec import PlanPoint, PlanSpec
from .surrogate import InterpolationSurrogate

#: How many surrogate nominations are confirmed with the real backend.
SURROGATE_NOMINATIONS = 3


def _point_sort_key(point: PlanPoint) -> tuple:
    return (
        point.num_nodes,
        point.container_memory_bytes or 0,
        point.num_reduces or 0,
    )


def _probe_sort_key(probe: PlanProbe) -> tuple:
    return (probe.objective_value, *_point_sort_key(probe.point))


class CapacityPlanner:
    """Run capacity-planning searches against a prediction service."""

    def __init__(self, service: PredictionService | None = None) -> None:
        self._service = service if service is not None else PredictionService()
        self._scheduler = SweepScheduler(self._service)

    @property
    def service(self) -> PredictionService:
        """The prediction service evaluating the probes."""
        return self._service

    def plan(self, spec: PlanSpec) -> PlanReport:
        """Search the spec's space and return the full :class:`PlanReport`."""
        run = _PlanRun(self._scheduler, spec)
        return run.execute()


def plan(spec: PlanSpec, service: PredictionService | None = None) -> PlanReport:
    """One-shot convenience: ``CapacityPlanner(service).plan(spec)``."""
    return CapacityPlanner(service).plan(spec)


class _PlanRun:
    """Mutable state of one planning search (one spec, one report)."""

    def __init__(self, scheduler: SweepScheduler, spec: PlanSpec) -> None:
        self.scheduler = scheduler
        self.spec = spec
        self.space = spec.resolved_space()
        self.probes: list[PlanProbe] = []
        self.rounds: list[PlanRound] = []
        self.evaluated: dict[PlanPoint, PlanProbe] = {}
        self.failed: list[dict] = []
        self.failed_points: set[PlanPoint] = set()
        self.pruned: list[tuple[PlanPoint, str]] = []
        self.scenarios: dict[PlanPoint, Scenario] = {}
        self.candidates: list[PlanPoint] = []
        self.submitted = 0
        self.live_evaluations = 0
        self.cached_points = 0
        self.batch_index = 0

    # -- candidate materialisation --------------------------------------

    def _materialise(self) -> None:
        for point in self.space.points():
            if not self.spec.constraint.admits(point):
                self.pruned.append((point, "memory ceiling"))
                continue
            try:
                self.scenarios[point] = point.scenario(self.spec.scenario)
            except (ValidationError, ConfigurationError) as exc:
                self.pruned.append((point, str(exc)))
                continue
            self.candidates.append(point)
        if not self.candidates:
            raise ValidationError(
                "every candidate of the search space was pruned before "
                "evaluation; relax the memory ceiling or widen the space"
            )

    # -- evaluation -----------------------------------------------------

    def _budget_left(self) -> int:
        return max(0, self.spec.max_evaluations - self.submitted)

    def _evaluate(self, points: list[PlanPoint], phase: str) -> list[PlanProbe]:
        """Evaluate a batch (budget-clipped, deduplicated, sorted) as one suite."""
        todo = [
            point
            for point in sorted(set(points), key=_point_sort_key)
            if point not in self.evaluated and point not in self.failed_points
        ]
        todo = todo[: self._budget_left()]
        if not todo:
            return []
        self.submitted += len(todo)
        self.batch_index += 1
        suite = ScenarioSuite(
            name=f"plan:{self.spec.fingerprint()}:{self.batch_index:02d}-{phase}",
            scenarios=tuple(self.scenarios[point] for point in todo),
            description=f"capacity-plan {phase} batch",
        )
        outcome = self.scheduler.run(suite, [self.spec.backend], on_error="record")
        self.live_evaluations += outcome.stats.evaluations
        self.cached_points += outcome.plan.cached_points
        fresh: list[PlanProbe] = []
        for point, row in zip(todo, outcome.result.rows):
            result = row.get(self.spec.backend)
            if result is None or not result.ok:
                entry = {"point": point.to_dict(), "backend": self.spec.backend}
                if result is not None:
                    entry["error_type"] = result.error_type
                    entry["error"] = result.error
                self.failed.append(entry)
                self.failed_points.add(point)
                continue
            total_seconds = result.total_seconds
            cost = self.spec.objective.cost(point.num_nodes, total_seconds)
            violations = self.spec.constraint.violations(total_seconds, cost)
            probe = PlanProbe(
                order=len(self.probes),
                phase=phase,
                point=point,
                backend=self.spec.backend,
                total_seconds=total_seconds,
                cost=cost,
                objective_value=self.spec.objective.value(
                    point.num_nodes, total_seconds
                ),
                feasible=not violations,
                violations=violations,
            )
            self.probes.append(probe)
            self.evaluated[point] = probe
            fresh.append(probe)
        return fresh

    def _incumbent(self) -> PlanProbe | None:
        feasible = [probe for probe in self.probes if probe.feasible]
        if not feasible:
            return None
        return min(feasible, key=_probe_sort_key)

    def _record_round(self, phase: str, fresh: list[PlanProbe]) -> None:
        incumbent = self._incumbent()
        self.rounds.append(
            PlanRound(
                phase=phase,
                probes=tuple(probe.order for probe in fresh),
                incumbent=None if incumbent is None else incumbent.order,
            )
        )

    # -- search stages --------------------------------------------------

    def _coarse_points(self) -> list[PlanPoint]:
        axes = self.space.axes()
        selected = {
            name: _spread(values, self.spec.coarse) for name, values in axes.items()
        }
        grid = [
            PlanPoint(
                num_nodes=nodes, container_memory_bytes=memory, num_reduces=reduces
            )
            for nodes in selected["num_nodes"]
            for memory in selected["container_memory_bytes"]
            for reduces in selected["num_reduces"]
        ]
        valid = set(self.candidates)
        return [point for point in grid if point in valid]

    def _surrogate_round(self) -> None:
        if not self.probes or self._budget_left() == 0:
            return
        surrogate = InterpolationSurrogate.fit(self.probes)
        remaining = [
            point for point in self.candidates if point not in self.evaluated
        ]
        nominated = surrogate.nominate(
            remaining,
            self.spec.objective,
            self.spec.constraint,
            min(SURROGATE_NOMINATIONS, self._budget_left()),
        )
        if not nominated:
            return
        fresh = self._evaluate(nominated, "surrogate")
        if fresh:
            self._record_round("surrogate", fresh)

    def _refine_candidates(self, incumbent: PlanProbe) -> list[PlanPoint]:
        """Index-midpoints between the incumbent and its evaluated neighbours."""
        axes = self.space.axes()
        origin = incumbent.point
        coordinates = {
            "num_nodes": origin.num_nodes,
            "container_memory_bytes": origin.container_memory_bytes,
            "num_reduces": origin.num_reduces,
        }
        proposals: list[PlanPoint] = []
        for axis, values in axes.items():
            if len(values) < 2:
                continue
            position = values.index(coordinates[axis])
            evaluated_positions = sorted(
                values.index(getattr(point, axis))
                for point in self.evaluated
                if all(
                    getattr(point, other) == coordinates[other]
                    for other in coordinates
                    if other != axis
                )
            )
            for direction in (-1, 1):
                beyond = [
                    p for p in evaluated_positions if (p - position) * direction > 0
                ]
                boundary = (len(values) - 1) if direction > 0 else 0
                neighbour = (
                    min(beyond, key=lambda p: abs(p - position)) if beyond else boundary
                )
                midpoint = (position + neighbour) // 2
                if midpoint == position or (midpoint == neighbour and beyond):
                    continue
                replaced = dict(coordinates)
                replaced[axis] = values[midpoint]
                proposals.append(PlanPoint(**replaced))
        valid = set(self.candidates)
        return [
            point
            for point in proposals
            if point in valid
            and point not in self.evaluated
            and point not in self.failed_points
        ]

    def _confirm_round(self, incumbent: PlanProbe) -> None:
        backend = self.spec.confirm_backend
        if backend is None:
            return
        point = incumbent.point
        suite = ScenarioSuite(
            name=f"plan:{self.spec.fingerprint()}:confirm",
            scenarios=(self.scenarios[point],),
            description="capacity-plan optimum confirmation",
        )
        outcome = self.scheduler.run(suite, [backend], on_error="record")
        self.live_evaluations += outcome.stats.evaluations
        self.cached_points += outcome.plan.cached_points
        result = outcome.result.rows[0].get(backend)
        if result is None or not result.ok:
            entry = {"point": point.to_dict(), "backend": backend}
            if result is not None:
                entry["error_type"] = result.error_type
                entry["error"] = result.error
            self.failed.append(entry)
            self._record_round("confirm", [])
            return
        total_seconds = result.total_seconds
        cost = self.spec.objective.cost(point.num_nodes, total_seconds)
        violations = self.spec.constraint.violations(total_seconds, cost)
        probe = PlanProbe(
            order=len(self.probes),
            phase="confirm",
            point=point,
            backend=backend,
            total_seconds=total_seconds,
            cost=cost,
            objective_value=self.spec.objective.value(point.num_nodes, total_seconds),
            feasible=not violations,
            violations=violations,
        )
        self.probes.append(probe)
        self._record_round("confirm", [probe])

    # -- driver ---------------------------------------------------------

    def execute(self) -> PlanReport:
        self._materialise()
        fresh = self._evaluate(self._coarse_points(), "coarse")
        self._record_round("coarse", fresh)
        if self.spec.surrogate:
            self._surrogate_round()
        while self._budget_left() > 0:
            incumbent = self._incumbent()
            if incumbent is None:
                # Nothing feasible yet: widen deterministically by probing
                # the cheapest (by sort order) unevaluated candidates.
                remaining = [
                    point
                    for point in self.candidates
                    if point not in self.evaluated
                    and point not in self.failed_points
                ]
                if not remaining:
                    break
                fresh = self._evaluate(remaining[: self.spec.coarse], "refine")
            else:
                targets = self._refine_candidates(incumbent)
                if not targets:
                    break
                fresh = self._evaluate(targets, "refine")
            if not fresh:
                break
            self._record_round("refine", fresh)
        incumbent = self._incumbent()
        if incumbent is not None:
            self._confirm_round(incumbent)
        return PlanReport(
            spec=self.spec,
            probes=tuple(self.probes),
            rounds=tuple(self.rounds),
            best=incumbent,
            pruned=tuple(self.pruned),
            failed=tuple(self.failed),
            grid_size=len(self.candidates),
            evaluations=self.live_evaluations,
            cached=self.cached_points,
        )


def _spread(values: tuple, count: int) -> tuple:
    """Up to ``count`` evenly spaced elements of ``values`` (ends included)."""
    if len(values) <= count:
        return values
    last = len(values) - 1
    positions = sorted({round(index * last / (count - 1)) for index in range(count)})
    return tuple(values[position] for position in positions)
