"""Batch prediction service: suites × backends with caching and parallelism.

:class:`PredictionService` is the one entry point the CLI, the daemon, the
dashboard and library users share.  It

* resolves backend names through the registry and shares the (stateless)
  backend instances across calls;
* memoises every ``(scenario, backend)`` evaluation under the scenario's
  stable :meth:`~repro.api.scenario.Scenario.cache_key`, so sweeps that
  revisit a point (and repeated figure runs) pay for it once;
* optionally persists every evaluation through a
  :class:`~repro.api.store.SqliteResultStore`, so sweeps survive process
  restarts and repeated runs replay completed points from disk;
* fans a :class:`~repro.api.scenario.ScenarioSuite` out over a pluggable
  executor layer — ``execution="serial"`` (no pool, deterministic debugging),
  ``"thread"`` (the default, though never measured faster than serial:
  every backend holds the GIL for nearly all of its work, the closed-form
  NumPy ones included), or ``"process"`` (CPU-bound backends such as the
  pure-Python simulator are shipped to a
  :class:`~concurrent.futures.ProcessPoolExecutor`, sidestepping the GIL).

Results are deterministic in every mode because every backend derives its
seeds from the scenario alone; the execution-mode equivalence tests pin this
down backend by backend.

Failures are expected events, not crashes.  The service threads a
:class:`~repro.api.resilience.RetryPolicy` (bounded retries, deterministic
backoff), optional per-evaluation deadlines, and per-backend
:class:`~repro.api.resilience.CircuitBreaker`\\ s through every evaluation
path, and degrades along a ladder instead of dying: a failed batch dispatch
falls back to the scalar path, a crashed process pool is rebuilt once and
then replaced by threads (observably — counted and warned), and a point that
exhausts its retries becomes a structured
:class:`~repro.api.results.FailedResult` under the suite-level
``on_error="raise" | "skip" | "record"`` contract.  A point its backend
declines (:func:`~repro.api.backends.backend_declines`) never enters the
ladder: it is settled under ``on_error`` before any probe or dispatch.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import logging
import multiprocessing
import os
import sys
import threading
import time
from collections.abc import Callable, Collection, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields

from ..exceptions import (
    BackendCapabilityError,
    BackendError,
    CircuitOpenError,
    EvaluationTimeoutError,
    StoreError,
    ValidationError,
)
from .backends import (
    PredictionBackend,
    backend_declines,
    backend_is_cpu_bound,
    backend_names,
    backend_supports_batch,
    create_backend,
)
from .resilience import (
    ON_ERROR_MODES,
    BreakerPolicy,
    BreakerSnapshot,
    CircuitBreaker,
    RetryPolicy,
)
from .results import BackendComparison, FailedResult, PredictionResult
from .scenario import Scenario, ScenarioResolver, ScenarioSuite
from .store import BaseResultStore, TokenMemo, open_store

logger = logging.getLogger(__name__)

#: A store probe's outcome per ``(cache key, backend)`` point (``None``: a miss).
Probed = Mapping[tuple[str, str], PredictionResult | None]

#: Default baseline backend for comparisons (the "measured" series).
DEFAULT_BASELINE = "simulator"

#: Accepted values of the service's ``execution`` parameter.
EXECUTION_MODES = ("serial", "thread", "process")

#: The execution mode a service, ``--execution`` and the runners default to.
DEFAULT_EXECUTION = "thread"


def _predict_in_subprocess(scenario_data: dict, backend: str, options: dict) -> dict:
    """Worker-side evaluation: plain dicts in, plain dicts out.

    Shipping JSON shapes instead of live objects keeps the contract
    pickle-trivial and start-method-agnostic; the parent rebuilds the
    :class:`PredictionResult` (and records it in cache + store) itself.
    """
    scenario = Scenario.from_dict(scenario_data)
    return create_backend(backend, **options).predict(scenario).to_dict()


class _InflightEvaluation:
    """One in-flight (cache key, backend) evaluation that callers can join.

    The first thread through :meth:`PredictionService._evaluate_resilient`
    for a point owns the evaluation; concurrent callers of the same point
    block on :attr:`event` and share the owner's outcome instead of
    evaluating again.  Joins are counted as ``coalesced`` in
    :meth:`PredictionService.stats` — the serving layer's request-coalescing
    guarantee is exactly this registry, surfaced end-to-end.
    """

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: PredictionResult | None = None
        self.error: BaseException | None = None


class _ProcessPoolState:
    """One sweep's process pool plus its crash-recovery budget.

    Shared by every worker thread of a sweep: when the pool breaks, the
    first thread through :meth:`PredictionService._handle_pool_failure`
    swaps in a replacement (or ``None``, degrading to in-process execution)
    and the rest observe the change through this holder.
    """

    __slots__ = ("lock", "pool", "rebuilds")

    def __init__(self, pool: ProcessPoolExecutor | None) -> None:
        self.lock = threading.Lock()
        self.pool = pool
        self.rebuilds = 0


@dataclass(frozen=True)
class ServiceStats:
    """Where the service's answers came from (one snapshot)."""

    #: Hits served from the in-memory cache.
    memory_hits: int = 0
    #: Hits served from the persistent result store.
    store_hits: int = 0
    #: Actual backend evaluations (cache and store both missed).
    evaluations: int = 0
    #: Requests answered by another's outcome: concurrent ``evaluate`` calls
    #: for one point share the first caller's, and a *repeat* — a grid cell
    #: whose ``(cache key, backend)`` point an earlier cell of the same grid
    #: run settled, in any slice — shares that cell's answer.  Every grid
    #: entry point counts a repeat here once, never as a memory or store hit.
    coalesced: int = 0
    #: ``predict_batch`` dispatches performed by suite evaluation.
    batch_calls: int = 0
    #: Scenarios evaluated through those batch dispatches (each also counts
    #: as one evaluation in :attr:`evaluations`).
    batch_points: int = 0
    #: Re-attempts of failed evaluations (one per extra attempt, not per point).
    retries: int = 0
    #: Points whose evaluation failed terminally (retries exhausted or fatal).
    failures: int = 0
    #: Points a backend declares outside its capability (e.g. an analytic
    #: model asked for a failure spec it cannot correct for).  They are
    #: never dispatched and are counted here instead of :attr:`failures`.
    declined: int = 0
    #: Evaluations that exceeded the configured per-evaluation deadline.
    timeouts: int = 0
    #: Batch dispatches that failed and fell back to the per-scenario path.
    batch_fallbacks: int = 0
    #: Crashed process pools that were rebuilt (at most once per sweep).
    pool_rebuilds: int = 0
    #: Times process execution degraded to threads (pool unavailable or
    #: crashed past its rebuild budget).
    pool_fallbacks: int = 0
    #: Circuit-breaker trips across all backends (closed/half-open → open).
    breaker_trips: int = 0

    def delta(self, since: "ServiceStats") -> "ServiceStats":
        """Counters accumulated between ``since`` and this snapshot."""
        return ServiceStats(
            **{
                spec.name: getattr(self, spec.name) - getattr(since, spec.name)
                for spec in fields(ServiceStats)
            }
        )

    def to_dict(self) -> dict:
        """JSON-serialisable view (one key per counter); inverse of :meth:`from_dict`."""
        return {spec.name: getattr(self, spec.name) for spec in fields(ServiceStats)}

    @classmethod
    def from_dict(cls, data: "dict | None") -> "ServiceStats":
        """Rebuild a snapshot from :meth:`to_dict` output (e.g. a ``/stats`` body)."""
        if not isinstance(data, dict):
            raise ValidationError(
                f"service stats must be a mapping, got {type(data).__name__}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(
                f"unknown service-stats fields {sorted(unknown)}; known: {sorted(known)}"
            )
        try:
            return cls(**{name: int(value) for name, value in data.items()})
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"invalid service stats: {exc}") from exc


#: The counters a service keeps itself; ``breaker_trips`` is summed from
#: its breakers.
_COUNTERS = tuple(spec.name for spec in fields(ServiceStats) if spec.name != "breaker_trips")


@dataclass(frozen=True)
class SuiteResult:
    """Results of one suite evaluation: a (scenario × backend) grid."""

    suite: ScenarioSuite
    backends: tuple[str, ...]
    #: One ``{backend: result}`` mapping per scenario, in suite order.  Under
    #: ``on_error="record"`` a cell may hold a
    #: :class:`~repro.api.results.FailedResult`; under ``on_error="skip"``
    #: failed cells are simply absent from their row.
    rows: tuple[dict[str, PredictionResult], ...]

    def series(self, backend: str) -> list[float]:
        """The ``total_seconds`` series of one backend across the suite.

        Failed points contribute NaN: a recorded failure carries a NaN
        ``total_seconds`` and a skipped point is absent from its row.
        """
        if backend not in self.backends:
            raise BackendError(
                f"backend {backend!r} was not evaluated; have: {list(self.backends)}"
            )
        return [
            row[backend].total_seconds if backend in row else float("nan")
            for row in self.rows
        ]

    def failures(self) -> list[tuple[int, str, FailedResult]]:
        """All recorded failures as ``(scenario index, backend, failure)``."""
        return [
            (index, name, result)
            for index, row in enumerate(self.rows)
            for name, result in row.items()
            if not result.ok
        ]

    @property
    def complete(self) -> bool:
        """Whether every (scenario, backend) cell holds a successful result."""
        return all(
            name in row and row[name].ok
            for row in self.rows
            for name in self.backends
        )

    def to_dict(self) -> dict:
        """JSON-serialisable view of the whole grid."""
        return {
            "suite": self.suite.to_dict(),
            "backends": list(self.backends),
            "results": [
                {name: result.to_dict() for name, result in row.items()}
                for row in self.rows
            ],
        }


#: :meth:`_GridRun.settle`'s mark for a cell whose point another worker won.
_LEFT_OUT = object()


@dataclass
class _GridRun:
    """One run over a suite x backends grid; :meth:`settle` is the one step answering its cells.

    ``evaluate_suite`` feeds it the whole grid as one slice, a stream or a
    cooperative worker many.  :attr:`settled` (point -> answer, ``None`` if
    skipped) persists across slices; :attr:`rows` holds every cell answered.
    """

    service: "PredictionService"
    suite: ScenarioSuite
    on_error: str | None
    tokens: TokenMemo | None = None
    retry: "RetryPolicy | int | None" = None
    timeout: float | None = None

    def __post_init__(self) -> None:
        self.on_error = self.service._resolve_on_error(self.on_error)
        self.keys = [scenario.cache_key() for scenario in self.suite.scenarios]
        self.settled: dict[tuple[str, str], PredictionResult | FailedResult | None] = {}
        self.rows: list[dict] = [{} for _ in self.keys]

    def settle(
        self,
        cells: Sequence[tuple[int, str]],
        probed: Probed | None = None,
        claim: "Callable[[dict], contextlib.AbstractContextManager[dict]] | None" = None,
    ) -> None:
        """Answer ``(scenario index, backend)`` cells into :attr:`rows`.

        The points not yet settled go to ``_evaluate_points`` in one resolver
        dispatch.  Every other cell is a repeat, answered from
        :attr:`settled` and counted once as ``coalesced``.  ``claim`` maps
        the new points to a context yielding those this worker won (and
        giving them up on exit); cells of the other points are left out.
        """
        keys, settled, scenarios = self.keys, self.settled, self.suite.scenarios
        fresh: dict[tuple[str, str], Scenario] = {}
        for index, name in cells:
            point = (keys[index], name)
            if point not in fresh and point not in settled:
                fresh[point] = scenarios[index]
        with contextlib.nullcontext(fresh) if claim is None else claim(fresh) as won:
            if won:
                with ScenarioResolver.dispatch():
                    results = self.service._evaluate_points(
                        won, self.on_error, self.tokens, probed, self.retry, self.timeout
                    )
                settled.update(dict.fromkeys(won))  # None: skipped under on_error="skip"
                settled.update(results)
        rows, left_out = self.rows, 0
        for index, name in cells:
            if (answer := settled.get((keys[index], name), _LEFT_OUT)) is _LEFT_OUT:
                left_out += 1
            else:
                rows[index][name] = answer
        if repeats := len(cells) - left_out - len(won):
            self.service._count("coalesced", repeats)

    def result(self, backends: Sequence[str]) -> SuiteResult:
        """The cells answered so far, a skipped one left out of its row."""
        rows = self.rows
        if self.on_error == "skip":
            rows = [{name: a for name, a in row.items() if a is not None} for row in rows]
        return SuiteResult(suite=self.suite, backends=tuple(backends), rows=tuple(rows))


class PredictionService:
    """Evaluate scenarios across prediction backends, with caching."""

    def __init__(
        self,
        backends: Sequence[str] | None = None,
        max_workers: int | None = None,
        cache: bool = True,
        backend_options: dict[str, dict] | None = None,
        store: BaseResultStore | str | os.PathLike | None = None,
        execution: str = DEFAULT_EXECUTION,
        retry: RetryPolicy | int | None = None,
        timeout: float | None = None,
        breaker: BreakerPolicy | None = None,
        on_error: str = "raise",
    ) -> None:
        if execution not in EXECUTION_MODES:
            raise ValidationError(
                f"unknown execution mode {execution!r}; known: {list(EXECUTION_MODES)}"
            )
        if on_error not in ON_ERROR_MODES:
            raise ValidationError(
                f"unknown on_error mode {on_error!r}; known: {list(ON_ERROR_MODES)}"
            )
        if timeout is not None and timeout <= 0:
            raise ValidationError(f"timeout must be positive, got {timeout}")
        self._backend_options = dict(backend_options or {})
        names = list(backends) if backends is not None else backend_names()
        self._backends: dict[str, PredictionBackend] = {
            name: create_backend(name, **self._backend_options.get(name, {}))
            for name in names
        }
        self._max_workers = max_workers
        self._cache_enabled = cache
        self._cache: dict[tuple[str, str], PredictionResult] = {}
        self._lock = threading.Lock()
        self._execution = execution
        if store is not None and not isinstance(store, BaseResultStore):
            store = open_store(store)
        self._store = store
        self._retry = RetryPolicy.resolve(retry)
        self._timeout = timeout
        self._breaker_policy = breaker
        self._breakers: dict[str, CircuitBreaker] = {}
        self._on_error = on_error
        # The counters are read and written ONLY under ``self._lock``;
        # thread- and process-mode sweeps bump them from pool threads, so an
        # unlocked increment would drop updates.
        self._counts = dict.fromkeys(_COUNTERS, 0)
        #: In-flight evaluations by (cache key, backend); concurrent callers
        #: of a point already being evaluated join the owner's outcome.
        self._inflight: dict[tuple[str, str], _InflightEvaluation] = {}
        self._pool_fallback_warned = False

    # -- introspection --------------------------------------------------------

    def backends(self) -> list[str]:
        """Names of the backends this service evaluates by default."""
        with self._lock:
            return list(self._backends)

    @property
    def execution(self) -> str:
        """The configured execution mode (``serial`` / ``thread`` / ``process``)."""
        return self._execution

    @property
    def store(self) -> BaseResultStore | None:
        """The persistent result store, if one is attached."""
        return self._store

    def point_token(self, key: str, backend: str) -> str:
        """The store/lease token of one ``(cache key, backend)`` point.

        Folds in the backend options this service would evaluate the point
        with, so the token matches the record slot the result will land in
        — the cooperative sweep claims exactly what it will write.
        """
        if self._store is None:
            raise ValidationError("point_token requires an attached result store")
        return self._store.point_token(key, backend, options=self._backend_options.get(backend, {}))

    def stats(self) -> ServiceStats:
        """Snapshot of cache / evaluation / batch / resilience counters."""
        # Breaker trips live in the breakers (each behind its own lock);
        # collect the breaker list under the service lock but sum the trips
        # outside it so the two lock families never nest.
        with self._lock:
            counts = dict(self._counts)
            breakers = list(self._breakers.values())
        return ServiceStats(**counts, breaker_trips=sum(b.snapshot().trips for b in breakers))

    def breakers(self) -> dict[str, BreakerSnapshot]:
        """Per-backend circuit-breaker snapshots (empty without a policy)."""
        with self._lock:
            named = dict(self._breakers)
        return {name: breaker.snapshot() for name, breaker in named.items()}

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[counter] += amount

    # -- evaluation -----------------------------------------------------------

    def _backend(self, name: str) -> PredictionBackend:
        # Constructed under the lock so concurrent suite evaluation with an
        # unconfigured backend cannot build (and race to publish) it twice.
        with self._lock:
            backend = self._backends.get(name)
            if backend is None:
                backend = create_backend(name, **self._backend_options.get(name, {}))
                self._backends[name] = backend
            return backend

    def _record_evaluation(self, key: tuple[str, str], result: PredictionResult) -> None:
        """Count one real evaluation and publish it to cache and store."""
        with self._lock:
            self._counts["evaluations"] += 1
            if self._cache_enabled:
                self._cache[key] = result
        if self._store is not None:
            try:
                self._store.put(*key, result, options=self._backend_options.get(key[1], {}))
            except StoreError as exc:
                # An unwritable store degrades to in-memory caching rather
                # than killing a long sweep halfway through.
                logger.warning("could not persist result for %s: %s", key[1], exc)

    def _breaker_for(self, backend: str) -> CircuitBreaker | None:
        if self._breaker_policy is None:
            return None
        with self._lock:
            breaker = self._breakers.get(backend)
            if breaker is None:
                breaker = CircuitBreaker(self._breaker_policy, name=backend)
                self._breakers[backend] = breaker
            return breaker

    def _resolve_retry(self, retry: "RetryPolicy | int | None") -> RetryPolicy:
        """Per-call retry override; ``None`` keeps the service's policy."""
        return self._retry if retry is None else RetryPolicy.resolve(retry)

    def _resolve_timeout(self, timeout: float | None) -> float | None:
        """Per-call deadline override; ``None`` keeps the service's deadline."""
        if timeout is None:
            return self._timeout
        if timeout <= 0:
            raise ValidationError(f"timeout must be positive, got {timeout}")
        return timeout

    def evaluate(
        self,
        scenario: Scenario,
        backend: str,
        *,
        retry: "RetryPolicy | int | None" = None,
        timeout: float | None = None,
    ) -> PredictionResult:
        """Evaluate one scenario with one backend (cached, store-backed).

        Runs under the service's retry policy, deadline, and circuit breaker
        (all no-ops unless configured); terminal failures raise.  ``retry``
        and ``timeout`` override the service-level policies for this call
        only — the serving layer maps per-request resilience selections onto
        these knobs.
        """
        point = (scenario.cache_key(), backend)
        results = self._evaluate_points({point: scenario}, "raise", retry=retry, timeout=timeout)
        return results[point]

    def evaluate_point(
        self,
        scenario: Scenario,
        backend: str,
        *,
        on_error: str | None = None,
        retry: "RetryPolicy | int | None" = None,
        timeout: float | None = None,
    ) -> PredictionResult | FailedResult | None:
        """One point under the ``on_error`` contract, with per-call policies.

        Like :meth:`evaluate`, but a terminal failure follows the suite
        contract instead of always raising: ``"skip"`` returns ``None`` and
        ``"record"`` returns a structured
        :class:`~repro.api.results.FailedResult`.  This is the unit of work
        the serving layer's ``/predict`` dispatches.
        """
        point = (scenario.cache_key(), backend)
        mode = self._resolve_on_error(on_error)
        results = self._evaluate_points({point: scenario}, mode, retry=retry, timeout=timeout)
        return results.get(point)

    def recall_point(
        self, scenario: Scenario, backend: str, *, on_error: str | None = None
    ) -> tuple[bool, PredictionResult | FailedResult | None]:
        """What :meth:`evaluate_point` would answer from memory alone.

        ``(True, answer)`` when the point is settled without the store or a
        backend: it is declined (the answer follows ``on_error``, counted as
        ``declined``) or cached (counted as a memory hit).  ``(False, None)``
        when answering needs the store or an evaluation.  Nothing here
        blocks beyond the service lock around one dict lookup, so the
        daemon calls it on its event loop.
        """
        point = (scenario.cache_key(), backend)
        results, accepted = self._screen({point: scenario}, self._resolve_on_error(on_error))
        if accepted:
            results = self._recall(accepted, counted=True)
        return point in results or not accepted, results.get(point)

    def _evaluate_resilient(
        self,
        point: tuple[str, str],
        scenario: Scenario,
        holder: "_ProcessPoolState | None",
        info: dict,
        retry: "RetryPolicy | int | None",
        timeout: float | None,
    ) -> PredictionResult:
        """Join an identical in-flight evaluation, or own and attempt it.

        Concurrent calls for one (cache key, backend) point coalesce: the
        first caller evaluates under the retry policy and circuit breaker,
        later callers block until that outcome is published and share it
        (success *and* failure — a joiner re-raises the owner's terminal
        error rather than hammering a failing backend again).  The
        registration re-reads the memory cache under the same lock, so a
        point another thread finished since the probe is a memory hit, not
        a second evaluation.  ``info`` receives the attempt count, so the
        caller can attribute a terminal failure without re-deriving it.
        """
        with self._lock:
            cached = self._cache.get(point)
            if cached is not None:
                self._counts["memory_hits"] += 1
                return cached
            entry = self._inflight.get(point)
            owner = entry is None
            if owner:
                entry = self._inflight[point] = _InflightEvaluation()
            else:
                self._counts["coalesced"] += 1
        if not owner:
            entry.event.wait()
            info["attempts"] = 0  # the joiner itself attempted nothing
            if entry.error is not None:
                raise entry.error
            return entry.result
        try:
            result = self._run_attempts(point, scenario, holder, info, retry, timeout)
        except BaseException as exc:
            entry.error = exc
            raise
        else:
            entry.result = result
            return result
        finally:
            with self._lock:
                self._inflight.pop(point, None)
            entry.event.set()

    def _run_attempts(
        self,
        point: tuple[str, str],
        scenario: Scenario,
        holder: "_ProcessPoolState | None",
        info: dict,
        retry: "RetryPolicy | int | None",
        timeout: float | None,
    ) -> PredictionResult:
        """The retry/breaker attempt loop for one owned evaluation."""
        backend = point[1]
        policy = self._resolve_retry(retry)
        deadline = self._resolve_timeout(timeout)
        breaker = self._breaker_for(backend)
        attempt = 0
        while True:
            attempt += 1
            info["attempts"] = attempt
            try:
                if breaker is not None:
                    breaker.allow()
                result = self._attempt(scenario, backend, holder, deadline)
            except Exception as exc:
                if breaker is not None and not isinstance(exc, CircuitOpenError):
                    breaker.record_failure()
                if attempt < policy.max_attempts and policy.is_retryable(exc):
                    self._count("retries")
                    delay = policy.delay(attempt, key=point[0])
                    logger.warning(
                        "attempt %d/%d for backend %s failed (%s); retrying in %.3fs",
                        attempt,
                        policy.max_attempts,
                        backend,
                        exc,
                        delay,
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue
                self._count("failures")
                raise
            if breaker is not None:
                breaker.record_success()
            self._record_evaluation(point, result)
            return result

    def _attempt(
        self,
        scenario: Scenario,
        backend: str,
        holder: "_ProcessPoolState | None",
        deadline: float | None,
    ) -> PredictionResult:
        """One evaluation attempt, routed per the execution resources at hand."""
        if (
            holder is not None
            and holder.pool is not None
            and backend_is_cpu_bound(backend)
        ):
            return self._attempt_in_pool(scenario, backend, holder, deadline)
        return self._attempt_in_process(scenario, backend, deadline)

    def _attempt_in_process(
        self, scenario: Scenario, backend: str, deadline: float | None
    ) -> PredictionResult:
        """In-process attempt with a cooperative (post-hoc) deadline check.

        Threads cannot be preempted, so serial/thread-mode deadlines are
        enforced after the fact: a result that arrives past the deadline is
        discarded and counted as a timeout, keeping the deadline contract
        uniform across execution modes (at the price of the wasted work).
        """
        started = time.monotonic()
        result = self._backend(backend).predict(scenario)
        if deadline is not None:
            elapsed = time.monotonic() - started
            if elapsed > deadline:
                self._count("timeouts")
                raise EvaluationTimeoutError(
                    f"evaluation of backend {backend!r} took {elapsed:.3f}s, "
                    f"over the {deadline}s deadline"
                )
        return result

    def _attempt_in_pool(
        self,
        scenario: Scenario,
        backend: str,
        holder: "_ProcessPoolState",
        deadline: float | None,
    ) -> PredictionResult:
        """One attempt in the process pool, riding the degradation ladder.

        A crashed pool is handed to :meth:`_handle_pool_failure` (rebuild
        once, then degrade to threads) and the attempt is re-routed; each
        loop iteration observes a *different* pool (or ``None``), so the
        loop terminates within the holder's rebuild budget.
        """
        while True:
            pool = holder.pool
            if pool is None:
                return self._attempt_in_process(scenario, backend, deadline)
            try:
                future = pool.submit(
                    _predict_in_subprocess,
                    scenario.to_dict(),
                    backend,
                    self._backend_options.get(backend, {}),
                )
            except Exception as exc:  # a broken/shut-down pool rejects submissions
                self._handle_pool_failure(holder, pool, exc)
                continue
            try:
                if deadline is None:
                    payload = future.result()
                else:
                    payload = future.result(timeout=deadline)
            except TimeoutError as exc:
                if deadline is None:
                    raise  # a worker-raised timeout, not our deadline
                future.cancel()
                self._count("timeouts")
                raise EvaluationTimeoutError(
                    f"evaluation of backend {backend!r} exceeded the "
                    f"{deadline}s deadline"
                ) from exc
            except (BrokenProcessPool, OSError) as exc:
                # A dead worker breaks the whole pool; every in-flight future
                # raises.  The first thread through rebuilds (or retires) the
                # pool, the rest observe the replacement and resubmit.
                self._handle_pool_failure(holder, pool, exc)
                continue
            except (ValidationError, BackendError) as exc:
                # Almost always a worker process lacking a runtime
                # registration the parent has (spawn and forkserver start
                # methods import a fresh registry); re-running in-process
                # either succeeds with the parent's registry or raises the
                # genuine application error.
                logger.warning(
                    "process-pool evaluation of %s failed (%s); running in-process",
                    backend,
                    exc,
                )
                return self._attempt_in_process(scenario, backend, deadline)
            return PredictionResult.from_dict(payload)

    def _handle_pool_failure(
        self, holder: "_ProcessPoolState", pool: ProcessPoolExecutor, exc: BaseException
    ) -> None:
        """Degradation ladder for a crashed pool: rebuild once, then threads."""
        with holder.lock:
            if holder.pool is not pool:
                return  # another thread already handled this crash
            with contextlib.suppress(Exception):
                pool.shutdown(wait=False, cancel_futures=True)
            if holder.rebuilds < 1:
                holder.rebuilds += 1
                self._count("pool_rebuilds")
                logger.warning("process pool crashed (%s); rebuilding it once", exc)
                holder.pool = self._build_process_pool()
                if holder.pool is None:
                    self._note_pool_fallback(
                        f"process pool could not be rebuilt after a crash ({exc})"
                    )
            else:
                holder.pool = None
                self._note_pool_fallback(
                    f"process pool crashed past its rebuild budget ({exc})"
                )

    def _note_pool_fallback(self, reason: str) -> None:
        """Count (and warn once per service, on stderr) a pool→thread fallback."""
        with self._lock:
            self._counts["pool_fallbacks"] += 1
            already_warned = self._pool_fallback_warned
            self._pool_fallback_warned = True
        logger.warning("%s; degrading to thread execution", reason)
        if not already_warned:
            print(f"repro: {reason}; degrading to thread execution", file=sys.stderr)

    def _evaluate_guarded(
        self,
        point: tuple[str, str],
        scenario: Scenario,
        holder: "_ProcessPoolState | None",
        on_error: str,
        retry: "RetryPolicy | int | None",
        timeout: float | None,
    ) -> PredictionResult | FailedResult | None:
        """Evaluate one point under the ``on_error`` contract; ``None`` means skipped."""
        info: dict = {"attempts": 0}
        try:
            return self._evaluate_resilient(point, scenario, holder, info, retry, timeout)
        except Exception as exc:
            if on_error == "raise":
                raise
            logger.warning(
                "point (%s, %s) failed terminally after %d attempt(s): %s",
                scenario.describe(),
                point[1],
                info["attempts"],
                exc,
            )
            if on_error == "skip":
                return None
            return FailedResult(
                backend=point[1],
                scenario=scenario,
                error_type=type(exc).__name__,
                error=str(exc),
                attempts=max(1, info["attempts"]),
            )

    def _screen(
        self, unique: dict[tuple[str, str], Scenario], on_error: str
    ) -> tuple[
        dict[tuple[str, str], PredictionResult | FailedResult], dict[tuple[str, str], Scenario]
    ]:
        """Settle the points their backend declines: ``(declined, accepted)``.

        A declined point skipped under ``on_error`` is in neither.
        """
        results: dict[tuple[str, str], PredictionResult | FailedResult] = {}
        accepted: dict[tuple[str, str], Scenario] = {}
        for point, scenario in unique.items():
            reason = backend_declines(point[1], scenario)
            if reason is None:
                accepted[point] = scenario
            elif declined := self._decline(scenario, point[1], reason, on_error):
                results[point] = declined
        return results, accepted

    def _decline(
        self, scenario: Scenario, backend: str, reason: str, on_error: str
    ) -> FailedResult | None:
        """A declined point under ``on_error``: no retry, breaker call or log."""
        self._count("declined")
        if on_error == "raise":
            raise BackendCapabilityError(reason)
        if on_error == "skip":
            return None
        return FailedResult(
            backend, scenario, error_type=BackendCapabilityError.__name__, error=reason
        )

    def evaluate_many(
        self,
        scenario: Scenario,
        backends: Sequence[str] | None = None,
        *,
        retry: "RetryPolicy | int | None" = None,
        timeout: float | None = None,
    ) -> dict[str, PredictionResult]:
        """Evaluate one scenario with several backends in one dispatch.

        ``retry`` and ``timeout`` override the service policies as in :meth:`evaluate`.
        """
        names = list(backends) if backends is not None else self.backends()
        key = scenario.cache_key()
        with ScenarioResolver.dispatch():
            results = self._evaluate_points(
                {(key, name): scenario for name in names}, retry=retry, timeout=timeout
            )
        return {name: results[(key, name)] for name in names}

    def _resolve_on_error(self, on_error: str | None) -> str:
        if on_error is None:
            return self._on_error
        if on_error not in ON_ERROR_MODES:
            raise ValidationError(
                f"unknown on_error mode {on_error!r}; known: {list(ON_ERROR_MODES)}"
            )
        return on_error

    def evaluate_suite(
        self,
        suite: ScenarioSuite,
        backends: Sequence[str] | None = None,
        on_error: str | None = None,
        *,
        tokens: TokenMemo | None = None,
        probed: Probed | None = None,
    ) -> SuiteResult:
        """Evaluate every (scenario, backend) pair of a suite.

        The whole grid is one slice of the settle step (:class:`_GridRun`):
        a repeated cell counts as one ``coalesced`` join in :meth:`stats`.
        The unique points are partitioned into memory hits, store hits
        (one bulk :meth:`SqliteResultStore.get_many` probe), and misses;
        each batch-capable backend's misses go to one ``predict_batch``
        call, the rest fan out per the ``execution`` mode, so
        serial/thread/process sweeps stay numerically identical.

        ``on_error`` (default: the service's configured mode) sets the
        partial-results contract for points that fail terminally after the
        retry/breaker ladder: ``"raise"`` propagates the first failure once
        in-flight points have finished (and persisted), ``"skip"`` omits the
        failed cells from their rows, ``"record"`` fills them with
        structured :class:`~repro.api.results.FailedResult`\\ s.  Declined
        points follow it before anything is dispatched, so under ``"raise"``
        the first one aborts the suite up front.

        A caller that already probed the store (a sweep plan) passes its
        token memo as ``tokens`` and what the probe read as ``probed``
        (``point -> result``, ``None`` for a miss): those points are
        answered from it, and the store is not read for them again.
        """
        names = tuple(backends) if backends is not None else tuple(self.backends())
        grid = _GridRun(self, suite, on_error, tokens)
        grid.settle(list(itertools.product(range(len(suite.scenarios)), names)), probed)
        return grid.result(names)

    # -- point partitioning ---------------------------------------------------

    def probe_points(
        self, points: Sequence[tuple[str, str]], tokens: TokenMemo | None = None
    ) -> tuple[dict[tuple[str, str], PredictionResult], dict[tuple[str, str], PredictionResult]]:
        """The results already answering ``(cache key, backend)`` points.

        Returns ``(memory hits, store hits)`` from one cache pass and one
        bulk store probe; a point answered by neither is a miss.  Unlike
        :meth:`evaluate`, this never counts hits in :meth:`stats` — it
        exists for planners (:class:`~repro.api.sweep.SweepScheduler`) that
        want to know what a sweep would cost before running it.  A planner
        hands the store hits (and its misses) to the evaluation as
        ``probed``, so no row is read twice; the store tokens of the probed
        points are recorded in ``tokens`` for that evaluation to reuse.
        """
        return self._probe(points, tokens)

    def _recall(
        self, points: Collection[tuple[str, str]], counted: bool = False
    ) -> dict[tuple[str, str], PredictionResult]:
        """One memory pass: the cached points (memory hits, if ``counted``)."""
        with self._lock:
            memory = {point: hit for point in points if (hit := self._cache.get(point)) is not None}
            if counted:
                self._counts["memory_hits"] += len(memory)
        return memory

    def _probe(
        self,
        points: Collection[tuple[str, str]],
        tokens: TokenMemo | None,
        probed: Probed | None = None,
        counted: bool = False,
    ) -> tuple[dict[tuple[str, str], PredictionResult], dict[tuple[str, str], PredictionResult]]:
        """One memory pass, then one bulk store probe: ``(memory hits, store hits)``.

        Points in ``probed`` are answered from it (a plan's probe just read
        them) instead of the store.  A ``counted`` probe (the partition's)
        counts its hits and caches what the store answered;
        :meth:`probe_points`' only looks.
        """
        memory = self._recall(points, counted)
        rest = [point for point in points if point not in memory]
        probed = probed or {}
        stored = {point: hit for point in rest if (hit := probed.get(point)) is not None}
        unread = [point for point in rest if point not in probed]
        if self._store is not None and unread:
            options = self._backend_options
            found = self._store.get_many([(*p, options.get(p[1], {})) for p in unread], tokens)
            stored.update(found)
        if counted and stored:
            with self._lock:
                self._counts["store_hits"] += len(stored)
                if self._cache_enabled:
                    self._cache.update(stored)
        return memory, stored

    def _evaluate_points(
        self,
        unique: dict[tuple[str, str], Scenario],
        on_error: str = "raise",
        tokens: TokenMemo | None = None,
        probed: Probed | None = None,
        retry: "RetryPolicy | int | None" = None,
        timeout: float | None = None,
    ) -> dict[tuple[str, str], PredictionResult | FailedResult]:
        """Settle unique points: declined, memory hit, store hit, batch or scalar task.

        Every entry point comes through here, so each point is checked
        against ``declines`` and probed once (not at all when ``probed``
        holds it).  A point absent from the result was skipped under
        ``on_error="skip"``.
        """
        tokens = {} if tokens is None else tokens  # shared by the probe and the write
        results, accepted = self._screen(unique, on_error)
        memory, stored = self._probe(accepted, tokens, probed, counted=True)
        results.update(memory)
        results.update(stored)
        batch_groups: dict[str, list[tuple[tuple[str, str], Scenario]]] = {}
        scalar: dict[tuple[str, str], Scenario] = {}
        for point, scenario in accepted.items():
            if point in results:
                continue
            if backend_supports_batch(point[1]):
                batch_groups.setdefault(point[1], []).append((point, scenario))
            else:
                scalar[point] = scenario
        for backend in sorted(batch_groups):
            group = batch_groups[backend]
            if len(group) < 2:
                # A lone scenario gains nothing from batching; keep it on the
                # per-scenario path (which also honours instance-level
                # ``predict`` monkeypatching in tests).
                scalar.update(group)
                continue
            try:
                batch_results = self._backend(backend).predict_batch(
                    [scenario for _, scenario in group]
                )
            except Exception as exc:  # first rung of the degradation ladder
                # The scalar path retries per point and records each result
                # as it completes, so a batch that crashes mid-flight cannot
                # lose the points that would have succeeded.
                self._count("batch_fallbacks")
                logger.warning(
                    "batch dispatch of %d %s points failed (%s); "
                    "falling back to the per-scenario path",
                    len(group),
                    backend,
                    exc,
                )
                scalar.update(group)
                continue
            # A wrong result count is a malformed backend, not a transient
            # fault: _record_batch raises it through (no scalar fallback,
            # which would only mask the bug).
            results.update(self._record_batch(backend, group, batch_results, tokens))
        if scalar:
            results.update(self._evaluate_unique(scalar, on_error, retry, timeout))
        return results

    def _record_batch(
        self,
        backend: str,
        group: list[tuple[tuple[str, str], Scenario]],
        batch_results: Sequence[PredictionResult],
        tokens: TokenMemo | None = None,
    ) -> dict[tuple[str, str], PredictionResult]:
        """Validate and record the results of one ``predict_batch`` dispatch."""
        if len(batch_results) != len(group):
            raise BackendError(
                f"backend {backend!r} returned {len(batch_results)} batch results "
                f"for {len(group)} scenarios"
            )
        results = {point: result for (point, _), result in zip(group, batch_results)}
        with self._lock:
            self._counts["batch_calls"] += 1
            self._counts["batch_points"] += len(group)
            self._counts["evaluations"] += len(group)
            if self._cache_enabled:
                self._cache.update(results)
        if self._store is not None:
            # One put_many is one transaction for the whole dispatch.
            options = self._backend_options.get(backend, {})
            try:
                self._store.put_many(
                    [
                        (key, backend, result, options)
                        for (key, _), result in results.items()
                    ],
                    tokens=tokens,
                )
            except StoreError as exc:
                logger.warning(
                    "could not persist %d results for %s: %s",
                    len(results),
                    backend,
                    exc,
                )
        return results

    # -- executor layer -------------------------------------------------------

    def _evaluate_unique(
        self,
        unique: dict[tuple[str, str], Scenario],
        on_error: str,
        retry: "RetryPolicy | int | None",
        timeout: float | None,
    ) -> dict[tuple[str, str], PredictionResult | FailedResult]:
        """Dispatch deduplicated (key, backend) tasks per the execution mode.

        Off the serial path, tasks fan out over a thread pool, and CPU-bound
        ones hop to a process pool in process mode.  Every future is drained
        before any failure propagates: each point that finished was already
        recorded (cache + store) the moment it completed, so a mid-sweep
        failure under ``on_error="raise"`` loses only the failing point and
        a store-backed re-run resumes from the rest.
        """
        results: dict[tuple[str, str], PredictionResult | FailedResult] = {}
        if self._execution == "serial" or len(unique) <= 1:
            for point, scenario in unique.items():
                outcome = self._evaluate_guarded(point, scenario, None, on_error, retry, timeout)
                if outcome is not None:
                    results[point] = outcome
            return results
        holder: _ProcessPoolState | None = None
        if self._execution == "process":
            holder = _ProcessPoolState(self._make_process_pool())
        max_workers = self._max_workers or min(len(unique), (os.cpu_count() or 2))
        first_error: BaseException | None = None
        try:
            with ThreadPoolExecutor(max_workers=max(1, max_workers)) as executor:
                # Each task runs in a copy of this context, so it reads the
                # dispatch's ScenarioResolver.
                futures = {
                    point: executor.submit(
                        contextvars.copy_context().run,
                        self._evaluate_guarded,
                        point,
                        scenario,
                        holder,
                        on_error,
                        retry,
                        timeout,
                    )
                    for point, scenario in unique.items()
                }
                for point, future in futures.items():
                    try:
                        outcome = future.result()
                    except BaseException as exc:  # noqa: BLE001 — re-raised below
                        if first_error is None:
                            first_error = exc
                        continue
                    if outcome is not None:
                        results[point] = outcome
        finally:
            if holder is not None and holder.pool is not None:
                holder.pool.shutdown()
        if first_error is not None:
            raise first_error
        return results

    def _build_process_pool(self) -> ProcessPoolExecutor | None:
        """A process pool, or ``None`` where subprocesses are unavailable.

        ``REPRO_MP_START_METHOD`` overrides the platform's multiprocessing
        start method (``fork`` / ``spawn`` / ``forkserver``) — CI uses it to
        exercise the stricter spawn path that macOS and Windows default to.
        """
        workers = self._max_workers or os.cpu_count() or 1
        try:
            mp_context = None
            method = os.environ.get("REPRO_MP_START_METHOD")
            if method:
                mp_context = multiprocessing.get_context(method)
            return ProcessPoolExecutor(max_workers=max(1, workers), mp_context=mp_context)
        except (NotImplementedError, ImportError, OSError, ValueError) as exc:
            logger.warning("process pool unavailable (%s)", exc)
            return None

    def _make_process_pool(self) -> ProcessPoolExecutor | None:
        """Build the sweep's process pool, observably degrading on failure."""
        pool = self._build_process_pool()
        if pool is None:
            self._note_pool_fallback("process pool unavailable")
        return pool

    def compare(
        self,
        scenario: Scenario,
        backends: Sequence[str] | None = None,
        baseline: str = DEFAULT_BASELINE,
        *,
        retry: "RetryPolicy | int | None" = None,
        timeout: float | None = None,
    ) -> BackendComparison:
        """Evaluate several backends side by side against a baseline (:meth:`evaluate_many`)."""
        names = list(backends) if backends is not None else self.backends()
        if baseline not in names:
            names = [baseline, *names]
        results = self.evaluate_many(scenario, names, retry=retry, timeout=timeout)
        return BackendComparison(scenario=scenario, baseline=baseline, results=results)
