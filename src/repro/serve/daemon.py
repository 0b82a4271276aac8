"""Prediction-as-a-service daemon: asyncio front end over the service layer.

The reproduction's north star is serving what-if queries like a long-running
daemon, and this module is that daemon: a single-process asyncio HTTP/JSON
server wrapping one resident :class:`~repro.api.service.PredictionService`,
so every request shares the same in-memory cache, persistent store, circuit
breakers and in-flight coalescing registry.

Serving semantics:

* **Admission.** POST work passes a bounded admission gate: at most
  ``max_inflight`` requests execute concurrently and at most ``queue_depth``
  more wait; beyond that the daemon answers ``429`` with ``Retry-After``
  instead of buffering unbounded work.  A ``/predict`` point the service
  already holds in memory (cached or declined) is not work: it is answered
  on the event loop, takes no slot and no pool thread, and so is never
  answered ``429`` — only ``503`` while draining.  ``GET /stats`` and
  ``GET /healthz`` bypass admission — observability must keep answering
  exactly when the daemon is saturated.
* **Coalescing.** Concurrent identical requests — same
  ``(Scenario.cache_key(), backend)`` — share one evaluation through the
  service's in-flight registry; joins surface in ``/stats`` as the
  ``coalesced`` counter.
* **Per-request policy.** A request's ``policy`` object selects ``retries``
  / ``timeout`` / ``on_error`` for that request only, clamped to the
  server's ceilings (:attr:`ServeConfig.max_retries`,
  :attr:`ServeConfig.max_timeout`).
* **Streaming sweeps.** ``POST /sweep`` answers NDJSON over chunked
  transfer: a ``plan`` line, one ``point`` line per grid point *as its
  slice completes* (:meth:`~repro.api.sweep.SweepScheduler.iter_results`),
  and a ``done`` line.  A client that disconnects finishes the current
  slice only; settled points are persisted, so a re-run resumes from them.
* **Capacity planning.** ``POST /plan`` runs a
  :class:`~repro.plan.PlanSpec` search through the resident service under
  the same admission gate and returns the full
  :class:`~repro.plan.PlanReport` envelope — identical to ``repro plan
  --json`` for the same spec.
* **Lifecycle.** SIGTERM/SIGINT stop the listener, answer new work ``503``,
  drain the admitted + queued requests, and return — the CLI exits 0.  Each
  result was committed to the store when it was written, so the drain
  neither flushes nor rescans it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import threading
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from ..api.resilience import (
    BREAKER_OPEN,
    ON_ERROR_MODES,
    BreakerSnapshot,
)
from ..api.results import FailedResult, PredictionResult
from ..api.scenario import Scenario, ScenarioSuite
from ..api.service import PredictionService
from ..api.sweep import SweepScheduler
from ..exceptions import CircuitOpenError, ReproError, ValidationError
from ..plan import CapacityPlanner, PlanSpec
from .http import (
    LAST_CHUNK,
    HttpError,
    Request,
    encode_chunk,
    encode_response,
    encode_stream_head,
    error_body,
    json_body,
    read_request,
)

#: Keys a request's ``policy`` object may carry.
POLICY_FIELDS = ("retries", "timeout", "on_error")


def retry_after_value(seconds: float) -> str:
    """``Retry-After`` wire value: RFC 9110 delay-seconds, a non-negative
    integer — fractional configs round *up* so clients never retry early."""
    return str(max(0, math.ceil(seconds)))


@dataclass(frozen=True)
class ServeConfig:
    """Daemon tunables (the CLI flags map straight onto these)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; the bound port is announced and exposed
    #: as :attr:`PredictionDaemon.port`.
    port: int = 0
    #: Admitted requests executing concurrently.
    max_inflight: int = 4
    #: Requests allowed to wait for a slot before 429s start.
    queue_depth: int = 16
    #: Ceiling on per-request ``policy.retries``.
    max_retries: int = 5
    #: Ceiling on per-request ``policy.timeout`` (seconds).
    max_timeout: float = 120.0
    #: ``Retry-After`` seconds advertised on 429 and drain-503 responses
    #: (rounded up to whole seconds on the wire, per RFC 9110).
    retry_after: float = 1.0
    #: Largest accepted request body.
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.queue_depth < 0:
            raise ValidationError(
                f"queue_depth must be >= 0, got {self.queue_depth}"
            )
        if self.max_retries < 0 or self.max_timeout <= 0:
            raise ValidationError("policy ceilings must be positive")


def resolve_policy(
    policy: object, config: ServeConfig, default_on_error: str = "record"
) -> tuple[int | None, float | None, str]:
    """Validate a request's ``policy`` object and clamp it to the ceilings.

    Returns ``(retries, timeout, on_error)`` ready for
    :meth:`~repro.api.service.PredictionService.evaluate_point`; ``None``
    means "use the service default".  Values above the server ceilings are
    clamped, not rejected — a client asking for more resilience than the
    server allows gets as much as the server allows.
    """
    if policy is None:
        policy = {}
    if not isinstance(policy, dict):
        raise HttpError(
            400, f"policy must be a JSON object, got {type(policy).__name__}"
        )
    unknown = set(policy) - set(POLICY_FIELDS)
    if unknown:
        raise HttpError(
            400,
            f"unknown policy fields {sorted(unknown)}; known: {list(POLICY_FIELDS)}",
        )
    retries: int | None = None
    if policy.get("retries") is not None:
        value = policy["retries"]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise HttpError(400, f"policy.retries must be an int >= 0, got {value!r}")
        retries = min(value, config.max_retries)
    timeout: float | None = None
    if policy.get("timeout") is not None:
        value = policy["timeout"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise HttpError(400, f"policy.timeout must be a number > 0, got {value!r}")
        timeout = min(float(value), config.max_timeout)
    on_error = policy.get("on_error", default_on_error)
    if on_error not in ON_ERROR_MODES:
        raise HttpError(
            400, f"policy.on_error must be one of {list(ON_ERROR_MODES)}, got {on_error!r}"
        )
    return retries, timeout, on_error


def _result_dict(result: PredictionResult | FailedResult | None) -> dict | None:
    return None if result is None else result.to_dict()


def _result_json(result: PredictionResult | FailedResult | None) -> str:
    return "null" if result is None else result.canonical_json()


def _predict_body(backend: str, result_json: str) -> bytes:
    """A ``/predict`` 200 body around an already-encoded result: the same
    bytes ``json_body({"backend": backend, "result": ...})`` gives."""
    return f'{{"backend": {json.dumps(backend)}, "result": {result_json}}}'.encode("utf-8")


class PredictionDaemon:
    """One resident service behind an asyncio HTTP front end."""

    def __init__(
        self, service: PredictionService, config: ServeConfig | None = None
    ) -> None:
        self.service = service
        self.config = config or ServeConfig()
        self.scheduler = SweepScheduler(service)
        self.host = self.config.host
        #: Bound port; resolved from an ephemeral bind once serving starts.
        self.port = self.config.port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self._draining = False
        self._inflight = 0
        self._waiters: deque[asyncio.Future] = deque()
        self._connections: set[asyncio.Task] = set()
        # One pool thread per admitted request is enough: predict/compare
        # evaluate on it directly, a sweep uses it to pump the streaming
        # generator (which fans out on its own pool).
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-serve",
        )

    # -- admission ------------------------------------------------------------

    @property
    def queued(self) -> int:
        """Requests currently waiting for an execution slot."""
        return len(self._waiters)

    @property
    def inflight(self) -> int:
        """Admitted requests currently executing."""
        return self._inflight

    @property
    def draining(self) -> bool:
        """Whether shutdown has begun (new work is rejected)."""
        return self._draining

    def _refuse_if_draining(self) -> None:
        if self._draining:
            raise HttpError(
                503,
                "daemon is draining; not accepting new work",
                headers={"retry-after": retry_after_value(self.config.retry_after)},
            )

    async def _admit(self) -> None:
        """Take one execution slot, waiting in the bounded queue if needed.

        All admission state lives on the event loop thread, so the
        check-then-act sequences here are atomic without a lock.
        """
        self._refuse_if_draining()
        if self._inflight < self.config.max_inflight:
            self._inflight += 1
            return
        if len(self._waiters) >= self.config.queue_depth:
            raise HttpError(
                429,
                f"admission queue is full ({self.config.max_inflight} in flight, "
                f"{self.config.queue_depth} queued)",
                headers={"retry-after": retry_after_value(self.config.retry_after)},
            )
        loop = asyncio.get_running_loop()
        slot: asyncio.Future = loop.create_future()
        self._waiters.append(slot)
        try:
            await slot
        except asyncio.CancelledError:
            if slot.done():
                # The slot was handed to us after cancellation hit: pass it on.
                self._release_slot()
            else:
                self._waiters.remove(slot)
            raise
        # A granted slot transfers the releaser's _inflight count — no bump.

    def _release_slot(self) -> None:
        if self._waiters:
            self._waiters.popleft().set_result(None)
        else:
            self._inflight -= 1

    # -- request handling ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await read_request(reader, max_body=self.config.max_body_bytes)
        except HttpError as exc:
            writer.write(
                encode_response(exc.status, error_body(exc.status, exc.message))
            )
            await writer.drain()
            return
        if request is None:
            return
        try:
            await self._dispatch(request, writer)
        except HttpError as exc:
            writer.write(
                encode_response(
                    exc.status, error_body(exc.status, exc.message), exc.headers
                )
            )
            await writer.drain()

    async def _dispatch(self, request: Request, writer: asyncio.StreamWriter) -> None:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            status, payload = self._health()
            await self._respond(writer, status, payload)
        elif route == ("GET", "/stats"):
            await self._respond(writer, 200, self._stats_payload())
        elif route == ("POST", "/predict"):
            await self._handle_predict(request, writer)
        elif route == ("POST", "/compare"):
            await self._handle_compare(request, writer)
        elif route == ("POST", "/sweep"):
            await self._handle_sweep(request, writer)
        elif route == ("POST", "/plan"):
            await self._handle_plan(request, writer)
        elif request.path in (
            "/healthz",
            "/stats",
            "/predict",
            "/compare",
            "/sweep",
            "/plan",
        ):
            raise HttpError(405, f"{request.method} is not supported on {request.path}")
        else:
            raise HttpError(404, f"unknown endpoint {request.path!r}")

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        writer.write(encode_response(status, json_body(payload)))
        await writer.drain()

    # -- observability endpoints (no admission) --------------------------------

    def _health(self) -> tuple[int, dict]:
        """503 only when *every* backend's breaker is open — one healthy
        (or not-yet-tripped) backend keeps the daemon serviceable."""
        snapshots = self.service.breakers()
        names = self.service.backends()
        open_names = [
            name for name, snap in snapshots.items() if snap.state == BREAKER_OPEN
        ]
        all_open = bool(names) and all(
            snapshots.get(name) is not None
            and snapshots[name].state == BREAKER_OPEN
            for name in names
        )
        if all_open:
            return 503, {"status": "unhealthy", "open_breakers": sorted(open_names)}
        status = "degraded" if open_names else "ok"
        return 200, {
            "status": status,
            "open_breakers": sorted(open_names),
            "draining": self._draining,
        }

    def _stats_payload(self) -> dict:
        stats = self.service.stats()
        return {
            "service": stats.to_dict(),
            # The degradation ladder's counters, pulled out of the service
            # stats so dashboards and operators can alarm on them without
            # knowing the full counter schema.
            "degradation": {
                "pool_rebuilds": stats.pool_rebuilds,
                "pool_fallbacks": stats.pool_fallbacks,
                "batch_fallbacks": stats.batch_fallbacks,
                "breaker_trips": stats.breaker_trips,
                "declined": stats.declined,
            },
            "breakers": {
                name: snapshot.to_dict()
                for name, snapshot in self.service.breakers().items()
            },
            "server": {
                "inflight": self._inflight,
                "queued": self.queued,
                "draining": self._draining,
                "max_inflight": self.config.max_inflight,
                "queue_depth": self.config.queue_depth,
            },
            # Engine-agnostic store surface: null without a store, else the
            # engine name and path so operators can see what the daemon
            # persists into (json shards vs one sqlite file).
            "store": (
                None
                if self.service.store is None
                else {
                    "format": self.service.store.format_name,
                    "path": str(self.service.store.path),
                }
            ),
        }

    # -- work endpoints --------------------------------------------------------

    def _parse_scenario(self, payload: dict, key: str = "scenario") -> Scenario:
        if key not in payload:
            raise HttpError(400, f"request body is missing {key!r}")
        try:
            return Scenario.from_dict(payload[key])
        except ValidationError as exc:
            raise HttpError(400, f"invalid scenario: {exc}") from exc

    def _check_backend(self, name: object) -> str:
        known = self.service.backends()
        if not isinstance(name, str) or name not in known:
            raise HttpError(400, f"unknown backend {name!r}; known: {known}")
        return name

    @staticmethod
    def _check_fields(payload: dict, allowed: tuple[str, ...]) -> None:
        unknown = set(payload) - set(allowed)
        if unknown:
            raise HttpError(
                400, f"unknown request fields {sorted(unknown)}; known: {list(allowed)}"
            )

    async def _run_admitted(self, fn: Callable[[], object]) -> object:
        """Run one blocking unit of service work under an admission slot."""
        await self._admit()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._pool, fn)
        finally:
            self._release_slot()

    @staticmethod
    def _map_service_error(exc: ReproError) -> HttpError:
        if isinstance(exc, ValidationError):
            return HttpError(400, str(exc))
        if isinstance(exc, CircuitOpenError):
            return HttpError(503, str(exc))
        return HttpError(500, f"{type(exc).__name__}: {exc}")

    async def _handle_predict(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        payload = request.json()
        self._check_fields(payload, ("scenario", "backend", "policy"))
        scenario = self._parse_scenario(payload)
        backend = self._check_backend(payload.get("backend"))
        retries, timeout, on_error = resolve_policy(
            payload.get("policy"), self.config
        )
        self._refuse_if_draining()

        def work() -> str:
            # Encoded on the pool thread, so the loop only concatenates.
            return _result_json(
                self.service.evaluate_point(
                    scenario, backend, on_error=on_error, retry=retries, timeout=timeout
                )
            )

        try:
            # A point already in memory is answered here, on the loop: no
            # admission slot, no pool hop.  Only a miss is work.
            answered, result = self.service.recall_point(scenario, backend, on_error=on_error)
            encoded = _result_json(result) if answered else await self._run_admitted(work)
        except ReproError as exc:
            raise self._map_service_error(exc) from exc
        writer.write(encode_response(200, _predict_body(backend, encoded)))
        await writer.drain()

    async def _handle_compare(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        payload = request.json()
        self._check_fields(payload, ("scenario", "backends", "baseline", "policy"))
        scenario = self._parse_scenario(payload)
        requested = payload.get("backends")
        if requested is None:
            names = self.service.backends()
        elif isinstance(requested, list):
            names = [self._check_backend(name) for name in requested]
        else:
            raise HttpError(400, "backends must be a JSON array of backend names")
        baseline = payload.get("baseline", names[0] if names else None)
        baseline = self._check_backend(baseline)
        retries, timeout, _ = resolve_policy(payload.get("policy"), self.config)
        # One service call, so every backend shares one resolver dispatch.
        work = partial(
            self.service.compare, scenario, names, baseline, retry=retries, timeout=timeout
        )
        try:
            comparison = await self._run_admitted(work)
        except ReproError as exc:
            raise self._map_service_error(exc) from exc
        await self._respond(
            writer,
            200,
            {
                "baseline": comparison.baseline,
                "results": {
                    name: result.to_dict()
                    for name, result in comparison.results.items()
                },
                "relative_errors": comparison.relative_errors(),
            },
        )

    async def _handle_plan(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        """``POST /plan``: run a capacity-planning search under admission.

        The body carries a serialised :class:`~repro.plan.PlanSpec` under
        ``"plan"``; the response is the full
        :class:`~repro.plan.PlanReport` envelope — byte-identical to what
        ``repro plan --json`` prints for the same spec, so a daemon and a
        CLI answering the same question are interchangeable.  The search
        runs through the daemon's resident service, so its probes share the
        cache, the store, and the coalescing registry with every other
        request.
        """
        payload = request.json()
        self._check_fields(payload, ("plan",))
        if "plan" not in payload:
            raise HttpError(400, "request body is missing 'plan'")
        try:
            spec = PlanSpec.from_dict(payload["plan"])
        except ValidationError as exc:
            raise HttpError(400, f"invalid plan spec: {exc}") from exc
        self._check_backend(spec.backend)
        if spec.confirm_backend is not None:
            self._check_backend(spec.confirm_backend)
        planner = CapacityPlanner(self.service)
        try:
            report = await self._run_admitted(partial(planner.plan, spec))
        except ReproError as exc:
            raise self._map_service_error(exc) from exc
        await self._respond(writer, 200, report.to_dict())

    async def _handle_sweep(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        payload = request.json()
        self._check_fields(payload, ("suite", "backends", "policy"))
        if "suite" not in payload:
            raise HttpError(400, "request body is missing 'suite'")
        try:
            suite = ScenarioSuite.from_dict(payload["suite"])
        except ValidationError as exc:
            raise HttpError(400, f"invalid suite: {exc}") from exc
        requested = payload.get("backends")
        if requested is None:
            names = self.service.backends()
        elif isinstance(requested, list):
            names = [self._check_backend(name) for name in requested]
        else:
            raise HttpError(400, "backends must be a JSON array of backend names")
        retries, timeout, on_error = resolve_policy(payload.get("policy"), self.config)
        await self._admit()
        try:
            await self._stream_sweep(
                writer, suite, names, on_error, retries, timeout
            )
        finally:
            self._release_slot()

    async def _stream_sweep(
        self,
        writer: asyncio.StreamWriter,
        suite: ScenarioSuite,
        names: list[str],
        on_error: str,
        retries: int | None,
        timeout: float | None,
    ) -> None:
        """Pump the streaming sweep generator into a chunked NDJSON response.

        The generator runs on a daemon pool thread; each yielded point hops
        to the event loop through a bounded queue (so a slow client applies
        backpressure to evaluation draining, not memory).  On client
        disconnect the pump stops after the point in hand and closes the
        generator: the current scenario slice is already settled (in cache
        and store, so a re-run replays it), and no further slice starts.
        """
        loop = asyncio.get_running_loop()
        before = self.service.stats()
        plan = self.scheduler.plan(suite, names)
        results = self.scheduler.iter_results(
            suite,
            names,
            on_error=on_error,
            plan=plan,
            retry=retries,
            timeout=timeout,
        )
        queue: asyncio.Queue = asyncio.Queue(maxsize=8)
        stop = threading.Event()
        done = object()

        def emit(item: object) -> None:
            asyncio.run_coroutine_threadsafe(queue.put(item), loop).result()

        def pump(generator: Iterator) -> None:
            error: BaseException | None = None
            try:
                for point in generator:
                    emit(point)
                    if stop.is_set():
                        break
            except BaseException as exc:  # surfaced as the stream's error line
                error = exc
            finally:
                generator.close()
                emit((done, error))

        writer.write(encode_stream_head())
        writer.write(
            encode_chunk(_ndjson_line({"event": "plan", "plan": _plan_dict(plan)}))
        )
        await writer.drain()
        pump_future = loop.run_in_executor(self._pool, pump, results)
        sentinel_seen = False
        try:
            while True:
                item = await queue.get()
                if isinstance(item, tuple) and len(item) == 2 and item[0] is done:
                    sentinel_seen = True
                    error = item[1]
                    if error is not None:
                        line = {
                            "event": "error",
                            "error_type": type(error).__name__,
                            "error": str(error),
                        }
                        writer.write(encode_chunk(_ndjson_line(line)))
                    break
                index, backend, result = item
                line = {
                    "event": "point",
                    "index": index,
                    "backend": backend,
                    "result": _result_dict(result),
                }
                writer.write(encode_chunk(_ndjson_line(line)))
                await writer.drain()
            stats = self.service.stats().delta(before)
            tail = {"event": "done", "stats": stats.to_dict()}
            writer.write(encode_chunk(_ndjson_line(tail)))
            writer.write(LAST_CHUNK)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            stop.set()
            # Always drain to the sentinel so the pump thread can never
            # deadlock on a queue nobody is reading.  (If the main loop
            # already consumed it, the pump has nothing further to emit.)
            while not sentinel_seen:
                item = await queue.get()
                if isinstance(item, tuple) and len(item) == 2 and item[0] is done:
                    sentinel_seen = True
            await pump_future

    # -- lifecycle -------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin the drain (idempotent; callable from a signal handler)."""
        self._draining = True
        if self._stopping is not None:
            self._stopping.set()

    def shutdown_threadsafe(self) -> None:
        """Begin the drain from another thread (tests / embedding)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_shutdown)

    async def run(self, ready: Callable[[], None] | None = None) -> None:
        """Serve until a shutdown signal, then drain.

        ``ready`` (if given) is called once the socket is bound — by then
        :attr:`port` holds the real port, so an ephemeral-port daemon can
        announce itself.
        """
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        signals_installed: list[signal.Signals] = []
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self.request_shutdown)
                    signals_installed.append(signum)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        try:
            if ready is not None:
                ready()
            if self._draining:
                # Shutdown was requested before the listener came up.
                self._stopping.set()
            await self._stopping.wait()
            server.close()
            await server.wait_closed()
            # Connections admitted (or queued) before the drain finish their
            # work; anything still reaching admission now gets 503.
            pending = [task for task in self._connections if not task.done()]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            for signum in signals_installed:
                self._loop.remove_signal_handler(signum)
            self._pool.shutdown(wait=True)
            self._loop = None


def _ndjson_line(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _plan_dict(plan) -> dict:
    return {
        "suite": plan.suite.name,
        "backends": list(plan.backends),
        "total_points": plan.total_points,
        "memory_hits": len(plan.memory_hits),
        "store_hits": len(plan.store_hits),
        "missing": len(plan.missing),
        "leased": len(plan.leased),
    }


@contextlib.contextmanager
def daemon_in_thread(
    service: PredictionService, config: ServeConfig | None = None
) -> Iterator[PredictionDaemon]:
    """Run a daemon on a background thread for tests and benchmarks.

    Yields the daemon once its socket is bound (``daemon.port`` is real);
    on exit requests the drain and joins the server thread, propagating any
    crash out of the ``with`` block.
    """
    daemon = PredictionDaemon(service, config)
    bound = threading.Event()
    failure: list[BaseException] = []

    def _serve() -> None:
        try:
            asyncio.run(daemon.run(ready=bound.set))
        except BaseException as exc:  # pragma: no cover - surfaced on exit
            failure.append(exc)
        finally:
            bound.set()

    thread = threading.Thread(target=_serve, name="repro-serve-daemon", daemon=True)
    thread.start()
    try:
        if not bound.wait(timeout=10.0):
            raise RuntimeError("daemon did not start within 10s")
        if failure:
            raise RuntimeError("daemon failed to start") from failure[0]
        yield daemon
    finally:
        daemon.shutdown_threadsafe()
        thread.join(timeout=30.0)
        if thread.is_alive():  # pragma: no cover - drain hang is a bug
            raise RuntimeError("daemon did not drain within 30s")
        if failure:
            raise RuntimeError("daemon crashed") from failure[0]


# Re-exported for callers that inspect breaker health through the daemon.
__all__ = [
    "POLICY_FIELDS",
    "BreakerSnapshot",
    "PredictionDaemon",
    "ServeConfig",
    "daemon_in_thread",
    "resolve_policy",
]
