"""Store-aware sweep scheduling: evaluate only the missing grid points.

A parameter sweep is a :class:`~repro.api.scenario.ScenarioSuite` × a set of
backends.  With a persistent :class:`~repro.api.store.SqliteResultStore`
attached to the service, most of a re-run (or a resumed, previously
interrupted run) is already answered on disk; the :class:`SweepScheduler`
makes that explicit:

* :meth:`SweepScheduler.plan` partitions the target grid into memory hits,
  store hits, and missing ``(scenario, backend)`` points — without
  evaluating anything (the store is bulk-probed with
  :meth:`~repro.api.store.SqliteResultStore.get_many`, one indexed
  ``SELECT`` per 500 points not in memory).  The plan keeps what that
  probe read (:attr:`SweepPlan.probed`);
* :meth:`SweepScheduler.run` executes the plan through
  :meth:`~repro.api.service.PredictionService.evaluate_suite` — cached
  points replay from memory and from the plan's probe, so the store is
  not read twice; missing points fan out per the service's execution mode
  with batch-capable backends dispatched in one ``predict_batch`` call —
  and reports what was actually evaluated.  Every completed point is
  persisted when it finishes, so re-running an interrupted sweep
  re-executes only the remainder.

:meth:`SweepScheduler.iter_results` (the daemon's streaming sweep) and
:meth:`SweepScheduler.run_cooperative` (*k concurrent workers* draining one
grid against one shared store) settle the missing points in **scenario
slices** of 1, 2, 4, ... up to :data:`SLICE_SCENARIOS` scenarios, each one
``predict_batch`` and one store transaction per batch backend.  A stream
yields each slice as soon as it is settled; a cooperative worker claims each
slice through the store's lease namespace (:mod:`repro.api.store.leases`),
and a crashed worker's leases expire so survivors finish its points.

Every entry point answers its cells through one settle step (the service's
``_GridRun``), which counts a repeated cell once as ``coalesced``: one grid
gives the same rows and counters whichever entry point runs it.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from ..exceptions import ValidationError
from .resilience import RetryPolicy
from .results import FailedResult, PredictionResult
from .scenario import Scenario, ScenarioSuite
from .service import PredictionService, Probed, ServiceStats, SuiteResult, _GridRun
from .store import SqliteResultStore, TokenMemo
from .store.leases import LeaseManager

#: One sweep point: (scenario index in the suite, backend name).
SweepPoint = tuple[int, str]

#: The most scenarios one slice of a streaming or cooperative sweep holds.
#: Slices grow 1, 2, 4, ... up to it, so a stream's first points wait for
#: one scenario while a long grid still settles in few batches.
SLICE_SCENARIOS = 256


def _slices(points: Sequence[SweepPoint], limit: int) -> Iterator[list[SweepPoint]]:
    """Cut index-major ``points`` into slices of 1, 2, 4, ... up to ``limit`` scenarios."""
    size, count, last, chunk = 1, 0, None, []
    for point in points:
        if point[0] != last:
            if count == size:
                yield chunk
                size, count, chunk = min(2 * size, limit), 0, []
            count, last = count + 1, point[0]
        chunk.append(point)
    if chunk:
        yield chunk


@dataclass(frozen=True)
class SweepPlan:
    """Partition of a sweep grid by where each point's answer will come from."""

    suite: ScenarioSuite
    backends: tuple[str, ...]
    #: Points answered by the service's in-memory cache.
    memory_hits: tuple[SweepPoint, ...]
    #: Points answered by the persistent result store.
    store_hits: tuple[SweepPoint, ...]
    #: Points that must actually be evaluated.
    missing: tuple[SweepPoint, ...]
    #: Missing points currently claimed by a *live peer worker* (populated
    #: only when :meth:`SweepScheduler.plan` is given a lease manager); they
    #: are excluded from :attr:`missing` — a cooperative worker neither
    #: evaluates nor waits on a point a peer is already computing.
    leased: tuple[SweepPoint, ...] = field(default=())
    #: What the plan's store probe read, per ``(cache key, backend)`` point
    #: not in memory: the stored result, or ``None`` for a miss.  Running
    #: the plan answers its store hits from here instead of the store.
    probed: Probed = field(default_factory=dict, repr=False, compare=False)

    @property
    def total_points(self) -> int:
        """Number of (scenario, backend) points in the grid."""
        return len(self.suite.scenarios) * len(self.backends)

    @property
    def cached_points(self) -> int:
        """Points that will replay from memory or store."""
        return len(self.memory_hits) + len(self.store_hits)

    def describe(self) -> str:
        """One-line human-readable plan summary.

        Reports where every already-answered point comes from — memory hits
        and store hits separately, not just the missing-point count — so a
        resumed sweep's log shows how much the persistent store saved.
        Points leased to live peer workers are reported when a cooperative
        plan found any.
        """
        leased = f", {len(self.leased)} leased to peers" if self.leased else ""
        return (
            f"sweep {self.suite.name!r}: {self.total_points} points "
            f"({len(self.suite.scenarios)} scenarios x {len(self.backends)} backends), "
            f"{len(self.memory_hits)} memory hits, {len(self.store_hits)} store hits, "
            f"{len(self.missing)} to evaluate{leased}"
        )


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one scheduled sweep run."""

    plan: SweepPlan
    result: SuiteResult
    #: Service counters accumulated by this run (after minus before).
    #: Exact for a service driven by one sweep at a time — the CLI and the
    #: dashboard; a service shared by *concurrent* sweep runs
    #: interleaves counter updates between the two snapshots, so these
    #: deltas then include the other runs' work (use :attr:`plan` for the
    #: per-run intent in that case).
    stats: ServiceStats

    @property
    def evaluated_points(self) -> int:
        """Backend evaluations this run actually performed."""
        return self.stats.evaluations


@dataclass(frozen=True)
class CooperativeOutcome(SweepOutcome):
    """One worker's share of a cooperatively drained sweep.

    :attr:`SweepOutcome.result` holds the cells this worker settled — the
    *complete* grid once drained, peers' points read back as store hits —
    while the counters below describe what this worker itself did: summed
    across workers, ``evaluated`` equals the number of unique missing
    points when no worker crashed mid-claim.
    """

    worker_id: str = "?"
    #: Claim → evaluate → release cycles (one per slice) plus empty plans.
    rounds: int = 0
    #: Leases this worker won and settled (including points that then failed).
    claimed: int = 0
    #: Points this worker successfully evaluated.
    evaluated: int = 0
    #: Rounds spent sleeping because live peers held every remaining point.
    waits: int = 0
    #: Points that failed terminally for this worker (never taken up again by it).
    failed: int = 0
    #: Leases this worker lost to peer takeover (it stalled past the TTL).
    lost: int = 0

    def describe(self) -> str:
        """One-line summary of this worker's share of the sweep."""
        return (
            f"worker {self.worker_id!r}: {self.evaluated} evaluated of "
            f"{self.claimed} claimed over {self.rounds} round(s), "
            f"{self.waits} wait(s), {self.failed} failed, {self.lost} lease(s) lost"
        )


class SweepScheduler:
    """Plan and run sweeps against a (possibly store-backed) service."""

    def __init__(self, service: PredictionService) -> None:
        self._service = service

    @property
    def service(self) -> PredictionService:
        """The prediction service executing the sweeps."""
        return self._service

    def _resolve_backends(self, backends: Sequence[str] | None) -> tuple[str, ...]:
        return (
            tuple(backends) if backends is not None else tuple(self._service.backends())
        )

    def plan(
        self,
        suite: ScenarioSuite,
        backends: Sequence[str] | None = None,
        leases: LeaseManager | None = None,
        *,
        tokens: TokenMemo | None = None,
    ) -> SweepPlan:
        """Compute which points of ``suite`` × ``backends`` still need work.

        Purely a read: probes the service cache and bulk-probes the store,
        evaluates nothing, and leaves the service's hit counters untouched.
        Duplicate scenarios share one underlying point; every (scenario
        index, backend) pair is still reported so the plan's point counts
        match the grid the caller asked for.

        With ``leases`` (a cooperative worker's manager), missing points
        whose lease is currently held by a *live peer* move to
        :attr:`SweepPlan.leased` — advisory only; the atomic claim still
        happens through :meth:`~repro.api.store.leases.LeaseManager.claim_many`
        at evaluation time.

        A caller that goes on to evaluate the suite passes a store-token
        memo (``tokens``) it will hand to the evaluation too, so no token is
        computed twice; the rows the probe read travel in
        :attr:`SweepPlan.probed`.
        """
        names = self._resolve_backends(backends)
        keys = [scenario.cache_key() for scenario in suite.scenarios]
        unique_points = list(
            dict.fromkeys((key, name) for key in keys for name in names)
        )
        memory_found, stored_found = self._service.probe_points(unique_points, tokens)
        probed = {
            point: stored_found.get(point) for point in unique_points if point not in memory_found
        }
        memory: list[SweepPoint] = []
        stored: list[SweepPoint] = []
        missing: list[SweepPoint] = []
        leased: list[SweepPoint] = []
        peer_held: set[tuple[str, str]] = set()
        if leases is not None:
            peer_tokens = {
                info.token
                for info in leases.scan()
                if info.worker != leases.worker_id and not info.expired()
            }
            if peer_tokens:
                peer_held = {
                    point
                    for point, result in probed.items()
                    if result is None and self._service.point_token(*point) in peer_tokens
                }
        for index, key in enumerate(keys):
            for name in names:
                point = (index, name)
                if (key, name) in memory_found:
                    memory.append(point)
                elif (key, name) in stored_found:
                    stored.append(point)
                elif (key, name) in peer_held:
                    leased.append(point)
                else:
                    missing.append(point)
        return SweepPlan(
            suite=suite,
            backends=names,
            memory_hits=tuple(memory),
            store_hits=tuple(stored),
            missing=tuple(missing),
            leased=tuple(leased),
            probed=probed,
        )

    def run(
        self,
        suite: ScenarioSuite,
        backends: Sequence[str] | None = None,
        on_error: str | None = None,
        plan: SweepPlan | None = None,
    ) -> SweepOutcome:
        """Plan, then evaluate — completed points replay, the rest execute.

        Re-running after an interruption (with a store attached) resumes the
        sweep: the plan shrinks to the unfinished remainder and only those
        points are evaluated.  That resume contract also covers *failing*
        runs: every completed point is persisted the moment it finishes, so
        an exception escaping mid-run (``on_error="raise"``, the default)
        loses only the failing points.  ``on_error="skip"`` / ``"record"``
        instead finish the sweep with partial rows (see
        :meth:`~repro.api.service.PredictionService.evaluate_suite`).

        ``plan`` short-circuits the probe: a caller that already computed
        (and, say, printed) the plan passes it in, so what was announced is
        exactly what executes.  Either way the run answers the plan's store
        hits from :attr:`SweepPlan.probed`: no second store probe.
        """
        tokens: TokenMemo = {}
        if plan is None:
            plan = self.plan(suite, backends, tokens=tokens)
        before = self._service.stats()
        result = self._service.evaluate_suite(
            suite,
            plan.backends,
            on_error=on_error,
            tokens=tokens,
            probed=plan.probed,
        )
        after = self._service.stats()
        return SweepOutcome(plan=plan, result=result, stats=after.delta(before))

    def run_cooperative(
        self,
        suite: ScenarioSuite,
        backends: Sequence[str] | None = None,
        *,
        worker_id: str,
        lease_ttl: float | None = None,
        on_error: str | None = None,
        poll_interval: float | None = None,
        claim_limit: int | None = None,
    ) -> "CooperativeOutcome":
        """Drain the grid cooperatively with every peer sharing the store.

        Requires a store-backed service (the store carries both the results
        and the claim namespace).  Each pass plans once against the shared
        store (points peers completed become store hits) and settles the
        plan's cells this worker has not settled yet: the answered ones in
        one slice, then the missing ones slice by slice with the claim as
        the settle step's hook.  It claims a slice with one guarded
        statement, probes the won points once, gives back those a peer
        already answered, and releases the rest once their results are
        durably stored.  Points a peer claimed first are skipped, not
        waited on; ``claim_limit=n`` caps a slice at ``n`` scenarios.  A
        background heartbeat renews held claims; when every remaining point
        is leased to live peers the worker sleeps ``poll_interval`` (default
        ``lease_ttl / 10``) and re-plans, and a *crashed* peer's claims
        expire within one TTL and are taken over.

        A settled cell is never taken up again: a point that failed
        terminally (``on_error="skip"``/``"record"``) is attempted once, and
        under ``"raise"`` a failing slice raises with the points it
        evaluated persisted and its claims released.  The outcome holds the
        cells this worker settled (the whole grid, with no replay) and its
        share of the work.
        """
        if not isinstance(self._service.store, SqliteResultStore):
            raise ValidationError(
                "cooperative sweeps require a store-backed service "
                "(the store carries the results and the claim namespace)"
            )
        leases = self._service.store.lease_manager(worker_id, ttl=lease_ttl)
        wait = poll_interval if poll_interval is not None else leases.ttl / 10.0
        if wait <= 0:
            raise ValidationError(f"poll_interval must be positive, got {wait}")
        if claim_limit is not None and claim_limit < 1:
            raise ValidationError(f"claim_limit must be at least 1, got {claim_limit}")
        limit = min(claim_limit or SLICE_SCENARIOS, SLICE_SCENARIOS)
        before = self._service.stats()
        tokens: TokenMemo = {}
        grid = _GridRun(self._service, suite, on_error, tokens)
        taken: list[tuple[str, str]] = []  # every point this worker won
        waits = rounds = 0

        @contextlib.contextmanager
        def claim(fresh: dict[tuple[str, str], Scenario]) -> Iterator[dict]:
            named = {self._service.point_token(*point): point for point in fresh}
            claims = leases.claim_many(named)
            won = {point: token for token, point in named.items() if token in claims}
            # A peer may have answered a point between our plan and our claim.
            # Peers persist *before* releasing, so holding the lease makes this
            # probe definitive: give such points back (the next plan reads them).
            answered = self._service.probe_points(list(won), tokens)
            leases.release_many([won.pop(p) for found in answered for p in found])
            taken.extend(won)
            try:
                yield {point: fresh[point] for point in won}
            finally:
                # Successes are durably stored before this release; a failed
                # point's release lets a peer retry it.
                leases.release_many(won.values())

        def unsettled(cells: Sequence[SweepPoint]) -> list[SweepPoint]:
            return [(index, name) for index, name in cells if name not in grid.rows[index]]

        with leases.heartbeat():
            try:
                while True:
                    plan = self.plan(suite, backends, leases=leases, tokens=tokens)
                    grid.settle(unsettled([*plan.memory_hits, *plan.store_hits]), plan.probed)
                    todo = unsettled(plan.missing)
                    rounds += not todo
                    if not todo and not unsettled(plan.leased):
                        break  # every cell is settled
                    for cells in _slices(todo, limit):
                        rounds += 1
                        grid.settle(cells, plan.probed, claim)
                    if len(unsettled(todo)) == len(todo):
                        # Every missing point is leased to live peers: wait
                        # for them to finish (or their leases to expire).
                        waits += 1
                        time.sleep(wait)
            finally:
                leases.release_all()
        evaluated = sum(getattr(grid.settled.get(point), "ok", False) for point in taken)
        return CooperativeOutcome(
            plan=plan,
            result=grid.result(plan.backends),
            stats=self._service.stats().delta(before),
            worker_id=worker_id,
            rounds=rounds,
            claimed=len(taken),
            evaluated=evaluated,
            waits=waits,
            failed=len(taken) - evaluated,
            lost=len(leases.lost),
        )

    def iter_results(
        self,
        suite: ScenarioSuite,
        backends: Sequence[str] | None = None,
        *,
        on_error: str | None = None,
        plan: SweepPlan | None = None,
        retry: "RetryPolicy | int | None" = None,
        timeout: float | None = None,
    ) -> Iterator[tuple[int, str, "PredictionResult | FailedResult | None"]]:
        """Stream the sweep: yield each slice of points the moment it is settled.

        Yields ``(scenario index, backend, result)`` tuples — first every
        already-answered point (memory/store hits, settled together without
        evaluating anything), then the missing points slice by slice, each
        slice as soon as its one batch completes.  This is the serving
        layer's sweep path: an HTTP client sees points arrive incrementally
        instead of waiting for the whole grid.  Concurrency inside a slice
        follows the service's execution mode.

        Points that fail terminally follow ``on_error`` exactly as
        :meth:`~repro.api.service.PredictionService.evaluate_point` does
        (``"skip"`` yields ``None``, ``"record"`` yields a
        :class:`~repro.api.results.FailedResult`), except that under
        ``"raise"`` a failing slice yields none of its points; those it
        evaluated are persisted when the error propagates.  ``retry`` /
        ``timeout`` are per-call policy overrides.  Closing the generator
        early (a disconnected client) evaluates nothing more; every settled
        slice is already in cache and store, so a re-run resumes from it.
        """
        tokens: TokenMemo = {}
        if plan is None:
            plan = self.plan(suite, backends, tokens=tokens)
        grid = _GridRun(self._service, suite, on_error, tokens, retry, timeout)
        hits = [*plan.memory_hits, *plan.store_hits]
        for cells in (hits, *_slices(plan.missing, SLICE_SCENARIOS)):
            grid.settle(cells, plan.probed)
            for index, name in cells:
                yield index, name, grid.rows[index][name]
