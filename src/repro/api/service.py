"""Batch prediction service: suites × backends with caching and parallelism.

:class:`PredictionService` is the one entry point the CLI, the experiment
runner, and library users share.  It

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
  ``"thread"`` (the default; fine for the NumPy-heavy analytic backends,
  which release the GIL), or ``"process"`` (CPU-bound backends such as the
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
``on_error="raise" | "skip" | "record"`` contract.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import sys
import threading
import time
from collections.abc import Sequence
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
from .scenario import Scenario, ScenarioSuite
from .store import BaseResultStore, open_store

logger = logging.getLogger(__name__)

#: Default baseline backend for comparisons (the "measured" series).
DEFAULT_BASELINE = "simulator"

#: Accepted values of the service's ``execution`` parameter.
EXECUTION_MODES = ("serial", "thread", "process")


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
    #: Requests that joined an identical in-flight evaluation instead of
    #: evaluating again: concurrent ``evaluate`` calls for one point share
    #: the first caller's outcome, and duplicate grid cells of one suite
    #: collapse onto a single evaluation.
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
    #: Points a backend declined as outside its capability (e.g. an analytic
    #: model asked for a failure spec it cannot correct for).  Declines are
    #: expected graceful degradation, not errors: they never trip breakers
    #: and are counted here instead of :attr:`failures`.
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


class PredictionService:
    """Evaluate scenarios across prediction backends, with caching."""

    def __init__(
        self,
        backends: Sequence[str] | None = None,
        max_workers: int | None = None,
        cache: bool = True,
        backend_options: dict[str, dict] | None = None,
        store: BaseResultStore | str | os.PathLike | None = None,
        execution: str = "thread",
        batch: bool = True,
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
        #: Dispatch suite misses to batch-capable backends in one
        #: ``predict_batch`` call.  ``batch=False`` forces the per-scenario
        #: path (the benches use it as the batching baseline).
        self._batch_enabled = batch
        if store is not None and not isinstance(store, BaseResultStore):
            store = open_store(store)
        self._store = store
        self._retry = RetryPolicy.resolve(retry)
        self._timeout = timeout
        self._breaker_policy = breaker
        self._breakers: dict[str, CircuitBreaker] = {}
        self._on_error = on_error
        # All counters below are read and written ONLY under ``self._lock``;
        # thread- and process-mode sweeps bump them from pool threads, so an
        # unlocked increment would drop updates.
        self._memory_hits = 0
        self._store_hits = 0
        self._evaluations = 0
        self._coalesced = 0
        #: In-flight evaluations by (cache key, backend); concurrent callers
        #: of a point already being evaluated join the owner's outcome.
        self._inflight: dict[tuple[str, str], _InflightEvaluation] = {}
        self._batch_calls = 0
        self._batch_points = 0
        self._retries = 0
        self._failures = 0
        self._declined = 0
        self._timeouts = 0
        self._batch_fallbacks = 0
        self._pool_rebuilds = 0
        self._pool_fallbacks = 0
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
        return self._store.point_token(
            key, backend, options=self._backend_options.get(backend, {})
        )

    @property
    def batch_enabled(self) -> bool:
        """Whether suite evaluation dispatches to ``predict_batch`` backends."""
        return self._batch_enabled

    def stats(self) -> ServiceStats:
        """Snapshot of cache / evaluation / batch / resilience counters."""
        # Breaker trips live in the breakers (each behind its own lock);
        # collect the breaker list under the service lock but sum the trips
        # outside it so the two lock families never nest.
        with self._lock:
            breakers = list(self._breakers.values())
        breaker_trips = sum(b.snapshot().trips for b in breakers)
        with self._lock:
            return ServiceStats(
                memory_hits=self._memory_hits,
                store_hits=self._store_hits,
                evaluations=self._evaluations,
                coalesced=self._coalesced,
                batch_calls=self._batch_calls,
                batch_points=self._batch_points,
                retries=self._retries,
                failures=self._failures,
                declined=self._declined,
                timeouts=self._timeouts,
                batch_fallbacks=self._batch_fallbacks,
                pool_rebuilds=self._pool_rebuilds,
                pool_fallbacks=self._pool_fallbacks,
                breaker_trips=breaker_trips,
            )

    def breakers(self) -> dict[str, BreakerSnapshot]:
        """Per-backend circuit-breaker snapshots (empty without a policy)."""
        with self._lock:
            named = dict(self._breakers)
        return {name: breaker.snapshot() for name, breaker in named.items()}

    def cache_size(self) -> int:
        """Number of memoised (scenario, backend) evaluations."""
        with self._lock:
            return len(self._cache)

    def clear_cache(self) -> None:
        """Drop all memoised evaluations (the persistent store is untouched)."""
        with self._lock:
            self._cache.clear()

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

    def _lookup(self, key: tuple[str, str]) -> PredictionResult | None:
        """Memory cache, then persistent store; updates the hit counters."""
        if self._cache_enabled:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._memory_hits += 1
                    return cached
        if self._store is not None:
            stored = self._store.get(
                key[0], key[1], options=self._backend_options.get(key[1], {})
            )
            if stored is not None:
                with self._lock:
                    self._store_hits += 1
                    if self._cache_enabled:
                        self._cache[key] = stored
                return stored
        return None

    def _record_evaluation(self, key: tuple[str, str], result: PredictionResult) -> None:
        """Count one real evaluation and publish it to cache and store."""
        with self._lock:
            self._evaluations += 1
            if self._cache_enabled:
                self._cache[key] = result
        if self._store is not None:
            try:
                self._store.put(
                    key[0],
                    key[1],
                    result,
                    options=self._backend_options.get(key[1], {}),
                )
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
        if retry is None:
            return self._retry
        return RetryPolicy.resolve(retry)

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
        return self._evaluate_resilient(
            scenario, backend, None, retry=retry, timeout=timeout
        )

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
        the streaming sweep path and the serving layer dispatch.
        """
        mode = self._resolve_on_error(on_error)
        return self._evaluate_guarded(
            scenario, backend, None, mode, retry=retry, timeout=timeout
        )

    def _evaluate_resilient(
        self,
        scenario: Scenario,
        backend: str,
        holder: "_ProcessPoolState | None",
        info: dict | None = None,
        retry: "RetryPolicy | int | None" = None,
        timeout: float | None = None,
    ) -> PredictionResult:
        """Lookup, join an identical in-flight evaluation, or attempt.

        Concurrent calls for one (cache key, backend) point coalesce: the
        first caller evaluates under the retry policy and circuit breaker,
        later callers block until that outcome is published and share it
        (success *and* failure — a joiner re-raises the owner's terminal
        error rather than hammering a failing backend again).  ``info``
        (when given) receives the attempt count, so the caller can attribute
        a terminal failure without re-deriving it.
        """
        key = (scenario.cache_key(), backend)
        cached = self._lookup(key)
        if cached is not None:
            return cached
        owner = False
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = _InflightEvaluation()
                self._inflight[key] = entry
                owner = True
            else:
                self._coalesced += 1
        if not owner:
            entry.event.wait()
            if info is not None:
                info["attempts"] = 0  # the joiner itself attempted nothing
            if entry.error is not None:
                raise entry.error
            return entry.result
        try:
            result = self._run_attempts(scenario, backend, holder, info, retry, timeout)
        except BaseException as exc:
            entry.error = exc
            raise
        else:
            entry.result = result
            return result
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            entry.event.set()

    def _run_attempts(
        self,
        scenario: Scenario,
        backend: str,
        holder: "_ProcessPoolState | None",
        info: dict | None,
        retry: "RetryPolicy | int | None",
        timeout: float | None,
    ) -> PredictionResult:
        """The retry/breaker attempt loop for one owned evaluation."""
        key = (scenario.cache_key(), backend)
        policy = self._resolve_retry(retry)
        deadline = self._resolve_timeout(timeout)
        breaker = self._breaker_for(backend)
        attempt = 0
        while True:
            attempt += 1
            if info is not None:
                info["attempts"] = attempt
            try:
                if breaker is not None:
                    breaker.allow()
                result = self._attempt(scenario, backend, holder, deadline)
            except Exception as exc:
                if isinstance(exc, BackendCapabilityError):
                    # A declined capability is the backend working as
                    # specified, not failing: breaker-neutral, counted apart.
                    with self._lock:
                        self._declined += 1
                    raise
                if breaker is not None and not isinstance(exc, CircuitOpenError):
                    breaker.record_failure()
                if attempt < policy.max_attempts and policy.is_retryable(exc):
                    with self._lock:
                        self._retries += 1
                    delay = policy.delay(attempt, key=key[0])
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
                with self._lock:
                    self._failures += 1
                raise
            if breaker is not None:
                breaker.record_success()
            self._record_evaluation(key, result)
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
                with self._lock:
                    self._timeouts += 1
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
                with self._lock:
                    self._timeouts += 1
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
                with self._lock:
                    self._pool_rebuilds += 1
                logger.warning(
                    "process pool crashed (%s); rebuilding it once", exc
                )
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
            self._pool_fallbacks += 1
            already_warned = self._pool_fallback_warned
            self._pool_fallback_warned = True
        logger.warning("%s; degrading to thread execution", reason)
        if not already_warned:
            print(
                f"repro: {reason}; degrading to thread execution",
                file=sys.stderr,
            )

    def _evaluate_guarded(
        self,
        scenario: Scenario,
        backend: str,
        holder: "_ProcessPoolState | None",
        on_error: str,
        retry: "RetryPolicy | int | None" = None,
        timeout: float | None = None,
    ) -> PredictionResult | FailedResult | None:
        """One point under the ``on_error`` contract; ``None`` means skipped."""
        info: dict = {"attempts": 0}
        try:
            return self._evaluate_resilient(
                scenario, backend, holder, info, retry=retry, timeout=timeout
            )
        except Exception as exc:
            if on_error == "raise":
                raise
            logger.warning(
                "point (%s, %s) failed terminally after %d attempt(s): %s",
                scenario.describe(),
                backend,
                info["attempts"],
                exc,
            )
            if on_error == "skip":
                return None
            return FailedResult(
                backend=backend,
                scenario=scenario,
                error_type=type(exc).__name__,
                error=str(exc),
                attempts=max(1, info["attempts"]),
            )

    def evaluate_many(
        self, scenario: Scenario, backends: Sequence[str] | None = None
    ) -> dict[str, PredictionResult]:
        """Evaluate one scenario with several backends (per the execution mode)."""
        names = list(backends) if backends is not None else self.backends()
        key = scenario.cache_key()
        results = self._evaluate_unique({(key, name): scenario for name in names})
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
    ) -> SuiteResult:
        """Evaluate every (scenario, backend) pair of a suite.

        Duplicate sweep points share one evaluation (each extra cell counts
        as one ``coalesced`` join in :meth:`stats`).  The unique points are
        partitioned into memory hits, store hits (bulk-probed through
        :meth:`SqliteResultStore.get_many`), and misses; misses of batch-capable
        backends are grouped per backend and dispatched in one
        ``predict_batch`` call, the rest fan out per the service's
        ``execution`` mode.  The partition is independent of the execution
        mode, so serial/thread/process sweeps stay numerically identical.

        ``on_error`` (default: the service's configured mode) sets the
        partial-results contract for points that fail terminally after the
        retry/breaker ladder: ``"raise"`` propagates the first failure once
        in-flight points have finished (and persisted), ``"skip"`` omits the
        failed cells from their rows, ``"record"`` fills them with
        structured :class:`~repro.api.results.FailedResult`\\ s.
        """
        mode = self._resolve_on_error(on_error)
        names = tuple(backends) if backends is not None else tuple(self.backends())
        keys = [scenario.cache_key() for scenario in suite.scenarios]
        unique: dict[tuple[str, str], Scenario] = {}
        duplicates = 0
        for index, scenario in enumerate(suite.scenarios):
            for name in names:
                point = (keys[index], name)
                if point in unique:
                    duplicates += 1
                else:
                    unique[point] = scenario
        if duplicates:
            # Duplicate grid cells share one evaluation — the suite-level
            # face of the same coalescing the in-flight registry provides
            # across concurrent calls, and counted under the same counter.
            with self._lock:
                self._coalesced += duplicates
        results = self._evaluate_points(unique, mode)
        rows = tuple(
            {
                name: results[(keys[index], name)]
                for name in names
                if (keys[index], name) in results
            }
            for index in range(len(suite.scenarios))
        )
        return SuiteResult(suite=suite, backends=names, rows=rows)

    # -- point partitioning ---------------------------------------------------

    def probe_points(
        self, points: Sequence[tuple[str, str]]
    ) -> dict[tuple[str, str], str]:
        """Peek which ``(cache key, backend)`` points are already answered.

        Returns ``point -> "memory" | "store"`` for every answered point
        (one cache pass, one bulk store probe); unanswered points are
        absent.  Unlike :meth:`evaluate`, this never counts hits in
        :meth:`stats` — it exists for planners
        (:class:`~repro.api.sweep.SweepScheduler`) that want to know what a
        sweep would cost before running it.  Store records found here stay
        loaded in the store's index, so the subsequent evaluation pays no
        second disk read for them.
        """
        sources: dict[tuple[str, str], str] = {}
        misses: list[tuple[str, str]] = []
        with self._lock:
            for point in points:
                if self._cache_enabled and point in self._cache:
                    sources[point] = "memory"
                else:
                    misses.append(point)
        if self._store is not None and misses:
            stored = self._store.get_many(
                [
                    (key, backend, self._backend_options.get(backend, {}))
                    for key, backend in misses
                ]
            )
            for point in stored:
                sources[point] = "store"
        return sources

    def _evaluate_points(
        self, unique: dict[tuple[str, str], Scenario], on_error: str = "raise"
    ) -> dict[tuple[str, str], PredictionResult]:
        """Partition unique points into hits / batch groups / scalar tasks."""
        results: dict[tuple[str, str], PredictionResult] = {}
        misses: dict[tuple[str, str], Scenario] = {}
        with self._lock:
            for point, scenario in unique.items():
                hit = self._cache.get(point) if self._cache_enabled else None
                if hit is not None:
                    self._memory_hits += 1
                    results[point] = hit
                else:
                    misses[point] = scenario
        if self._store is not None and misses:
            stored = self._store.get_many(
                [
                    (key, backend, self._backend_options.get(backend, {}))
                    for key, backend in misses
                ]
            )
            if stored:
                with self._lock:
                    for point, result in stored.items():
                        self._store_hits += 1
                        if self._cache_enabled:
                            self._cache[point] = result
                        results[point] = result
                for point in stored:
                    misses.pop(point)
        batch_groups: dict[str, list[tuple[tuple[str, str], Scenario]]] = {}
        scalar: dict[tuple[str, str], Scenario] = {}
        for point, scenario in misses.items():
            if self._batch_enabled and backend_supports_batch(point[1]):
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
                with self._lock:
                    self._batch_fallbacks += 1
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
            results.update(self._record_batch(backend, group, batch_results))
        if scalar:
            results.update(self._evaluate_unique(scalar, on_error))
        return results

    def _record_batch(
        self,
        backend: str,
        group: list[tuple[tuple[str, str], Scenario]],
        batch_results: Sequence[PredictionResult],
    ) -> dict[tuple[str, str], PredictionResult]:
        """Validate and record the results of one ``predict_batch`` dispatch."""
        if len(batch_results) != len(group):
            raise BackendError(
                f"backend {backend!r} returned {len(batch_results)} batch results "
                f"for {len(group)} scenarios"
            )
        results = {point: result for (point, _), result in zip(group, batch_results)}
        with self._lock:
            self._batch_calls += 1
            self._batch_points += len(group)
            self._evaluations += len(group)
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
                    ]
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
        self, unique: dict[tuple[str, str], Scenario], on_error: str = "raise"
    ) -> dict[tuple[str, str], PredictionResult]:
        """Dispatch deduplicated (key, backend) tasks per the execution mode."""
        if self._execution == "serial" or len(unique) <= 1:
            results: dict[tuple[str, str], PredictionResult] = {}
            for key, scenario in unique.items():
                outcome = self._evaluate_guarded(scenario, key[1], None, on_error)
                if outcome is not None:
                    results[key] = outcome
            return results
        holder: _ProcessPoolState | None = None
        if self._execution == "process":
            holder = _ProcessPoolState(self._make_process_pool())
            if holder.pool is None:
                holder = None
        try:
            return self._evaluate_threaded(unique, holder, on_error)
        finally:
            if holder is not None and holder.pool is not None:
                holder.pool.shutdown()

    def _evaluate_threaded(
        self,
        unique: dict[tuple[str, str], Scenario],
        holder: "_ProcessPoolState | None" = None,
        on_error: str = "raise",
    ) -> dict[tuple[str, str], PredictionResult]:
        """Thread-pool fan-out; CPU-bound tasks hop to the process pool if given.

        Every future is drained before any failure propagates: each point
        that finished was already recorded (cache + store) the moment it
        completed, so a mid-sweep failure under ``on_error="raise"`` loses
        only the failing point and a store-backed re-run resumes from the
        rest.
        """

        def run(
            key: tuple[str, str], scenario: Scenario
        ) -> PredictionResult | FailedResult | None:
            return self._evaluate_guarded(scenario, key[1], holder, on_error)

        max_workers = self._max_workers or min(len(unique), (os.cpu_count() or 2))
        results: dict[tuple[str, str], PredictionResult] = {}
        first_error: BaseException | None = None
        with ThreadPoolExecutor(max_workers=max(1, max_workers)) as executor:
            futures = {
                key: executor.submit(run, key, scenario)
                for key, scenario in unique.items()
            }
            for key, future in futures.items():
                try:
                    outcome = future.result()
                except BaseException as exc:  # noqa: BLE001 — re-raised below
                    if first_error is None:
                        first_error = exc
                    continue
                if outcome is not None:
                    results[key] = outcome
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
    ) -> BackendComparison:
        """Evaluate several backends side by side against a baseline."""
        names = list(backends) if backends is not None else self.backends()
        if baseline not in names:
            names = [baseline, *names]
        results = self.evaluate_many(scenario, names)
        return BackendComparison(scenario=scenario, baseline=baseline, results=results)
