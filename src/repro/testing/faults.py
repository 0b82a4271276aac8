"""Deterministic fault injection for chaos-testing the prediction service.

The resilience layer (:mod:`repro.api.resilience`) claims a sweep survives
transient backend failures, latency spikes, killed process-pool workers, and
corrupt store writes.  This module makes those claims testable — and, more
importantly, *reproducibly* testable:

* :class:`FaultInjector` draws every fault decision from a SHA-256 hash of
  ``(seed, fault kind, point key, occurrence number)``.  The occurrence
  counters are per ``(kind, key)``, so whether a given attempt faults is a
  pure function of the seed and that point's own history — independent of
  thread interleaving across points.  Two runs with the same seed inject
  the same faults at the same attempts.
* :func:`inject_backend_faults` wraps a registered backend class in place:
  the wrapper rolls for a latency spike, then a transient error
  (:class:`~repro.exceptions.TransientError`), before delegating to the
  real backend, and notes every *successful* inner evaluation so a chaos
  test can assert zero duplicate evaluations.  Batch-capable backends get a
  batch-level transient roll too, exercising the batch→scalar fallback rung.
* :class:`KillSwitch` hard-kills the evaluating process (``os._exit``) the
  first time a chosen scenario is evaluated — a real SIGKILL-grade worker
  death for the process-pool recovery path.  A marker file latches it so
  exactly one kill happens per switch, across any number of worker
  processes (fork start method; spawn workers re-import a fresh registry
  and never see runtime wrappers).
* :class:`FaultyStore` is a :class:`~repro.api.store.SqliteResultStore`
  whose writes are sometimes torn: the row's ``result`` is cut short,
  simulating a crash mid-write that the store's quarantine path must absorb.

The wrappers swap classes in the backend registry directly (the same idiom
the test suite's throwaway-backend fixtures use); the context manager
restores the original class on exit.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from ..api.backends import _REGISTRY
from ..api.scenario import Scenario
from ..api.store import SqliteResultStore, _canonical_options, point_token
from ..exceptions import TransientError, ValidationError

#: Exit code a :class:`KillSwitch` kills the worker process with.
KILL_EXIT_CODE = 86


@dataclass(frozen=True)
class FaultSpec:
    """Configured fault rates (all probabilities in ``[0, 1]``)."""

    #: Probability that an attempt raises a :class:`TransientError`.
    transient_rate: float = 0.0
    #: Probability that an attempt sleeps ``latency_seconds`` first.
    latency_rate: float = 0.0
    latency_seconds: float = 0.01
    #: Probability that a store ``put`` writes a torn (corrupt) record.
    corrupt_rate: float = 0.0
    #: Seed of the deterministic fault schedule.
    seed: int = 2017

    def __post_init__(self) -> None:
        for name in ("transient_rate", "latency_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_seconds < 0:
            raise ValidationError("latency_seconds must be non-negative")


class FaultInjector:
    """Seeded fault source with per-``(kind, key)`` occurrence counters.

    Thread-safe.  ``injected`` counts the faults actually fired by kind;
    ``successes`` counts completed inner evaluations by point key, which is
    exactly the "duplicate evaluations" ledger the chaos suite asserts on.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._occurrences: dict[tuple[str, str], int] = {}
        self.injected: dict[str, int] = {}
        self.successes: dict[str, int] = {}

    def _roll(self, kind: str, key: str) -> float:
        """Deterministic uniform draw for this (kind, key) occurrence."""
        with self._lock:
            n = self._occurrences.get((kind, key), 0)
            self._occurrences[(kind, key)] = n + 1
        digest = hashlib.sha256(
            f"{self.spec.seed}:{kind}:{key}:{n}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _inject(self, kind: str, rate: float, key: str) -> bool:
        if rate <= 0.0:
            return False
        hit = self._roll(kind, key) < rate
        if hit:
            with self._lock:
                self.injected[kind] = self.injected.get(kind, 0) + 1
        return hit

    def fault_point(self, key: str) -> None:
        """Run the per-attempt fault ladder for one scenario evaluation."""
        if self._inject("latency", self.spec.latency_rate, key):
            time.sleep(self.spec.latency_seconds)
        if self._inject("transient", self.spec.transient_rate, key):
            raise TransientError(f"injected transient fault for {key!r}")

    def fault_batch(self, backend: str) -> None:
        """Roll one batch-level transient for a ``predict_batch`` dispatch."""
        if self._inject("batch-transient", self.spec.transient_rate, f"batch:{backend}"):
            raise TransientError(f"injected transient batch fault for {backend!r}")

    def rolls(self, kind: str) -> int:
        """How many draws of ``kind`` were made, across every point."""
        with self._lock:
            return sum(
                n for (rolled, _), n in self._occurrences.items() if rolled == kind
            )

    def corrupt_write(self, key: str) -> bool:
        """Whether this store write should be torn."""
        return self._inject("corrupt", self.spec.corrupt_rate, key)

    def note_success(self, key: str) -> None:
        """Record one completed inner evaluation of ``key``."""
        with self._lock:
            self.successes[key] = self.successes.get(key, 0) + 1

    def duplicate_evaluations(self) -> int:
        """Inner evaluations beyond the first per point (should be zero)."""
        with self._lock:
            return sum(count - 1 for count in self.successes.values() if count > 1)


@dataclass(frozen=True)
class KillSwitch:
    """Hard-kill the evaluating process once, on one chosen scenario.

    ``marker_path`` is a file on a filesystem shared by every candidate
    process; ``O_CREAT | O_EXCL`` makes its creation a once-only latch, so
    exactly one process dies no matter how many race.  The kill is
    ``os._exit`` — no cleanup handlers, no exception — which from the
    parent's perspective is indistinguishable from an OOM kill and breaks
    the whole :class:`~concurrent.futures.ProcessPoolExecutor`.
    """

    marker_path: Path
    #: ``Scenario.cache_key()`` of the scenario whose evaluation dies.
    cache_key: str

    def maybe_kill(self, scenario: Scenario) -> None:
        """Die if ``scenario`` is the target and the latch is still open."""
        if scenario.cache_key() != self.cache_key:
            return
        try:
            fd = os.open(self.marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        os._exit(KILL_EXIT_CODE)

    def fired(self) -> bool:
        """Whether the kill already happened."""
        return self.marker_path.exists()


def _wrap_backend_class(
    name: str,
    original: type,
    injector: FaultInjector,
    kill_switch: KillSwitch | None,
) -> type:
    """A registry-compatible class injecting faults around ``original``."""

    class FaultyBackend:
        version = getattr(original, "version", 1)
        cpu_bound = bool(getattr(original, "cpu_bound", False))

        def __init__(self, **options: object) -> None:
            self._inner = original(**options)

        def predict(self, scenario: Scenario):
            # Keys carry the backend name: an injector shared across several
            # wrapped backends keeps per-backend schedules (and a per-backend
            # success ledger), and neither depends on thread interleaving.
            point = f"{name}:{scenario.cache_key()}"
            if kill_switch is not None:
                kill_switch.maybe_kill(scenario)
            injector.fault_point(point)
            result = self._inner.predict(scenario)
            injector.note_success(point)
            return result

    if callable(getattr(original, "predict_batch", None)):

        def predict_batch(self, scenarios):  # type: ignore[no-untyped-def]
            injector.fault_batch(name)
            results = self._inner.predict_batch(scenarios)
            for scenario in scenarios:
                injector.note_success(f"{name}:{scenario.cache_key()}")
            return results

        FaultyBackend.predict_batch = predict_batch

    FaultyBackend.name = name
    FaultyBackend.__name__ = f"Faulty{getattr(original, '__name__', name.title())}"
    FaultyBackend.__qualname__ = FaultyBackend.__name__
    return FaultyBackend


@contextmanager
def inject_backend_faults(
    name: str,
    spec: FaultSpec | FaultInjector,
    kill_switch: KillSwitch | None = None,
) -> Iterator[FaultInjector]:
    """Swap backend ``name`` for a fault-injecting wrapper; restore on exit.

    Yields the :class:`FaultInjector` so the caller can assert on injected
    counts and the duplicate-evaluation ledger.  Pass an injector to share
    one fault schedule (and one ledger) across several wrapped backends.

    Process-pool note: runtime registry swaps reach pool workers only under
    the ``fork`` start method (the Linux default); spawned workers import a
    pristine registry and evaluate the *real* backend.
    """
    injector = spec if isinstance(spec, FaultInjector) else FaultInjector(spec)
    try:
        original = _REGISTRY[name]
    except KeyError as exc:
        raise ValidationError(f"unknown backend {name!r}") from exc
    _REGISTRY[name] = _wrap_backend_class(name, original, injector, kill_switch)
    try:
        yield injector
    finally:
        _REGISTRY[name] = original


class FaultyStore(SqliteResultStore):
    """A result store whose writes are sometimes torn mid-record.

    With probability ``spec.corrupt_rate`` per point, a write lands with its
    ``result`` truncated to invalid JSON and reports success — the moral
    equivalent of a crash halfway through serialising the row.  The
    reader-side contract (skip, count, quarantine) is what absorbs it.
    """

    def __init__(self, path: str | os.PathLike, injector: FaultInjector) -> None:
        super().__init__(path)
        self._injector = injector

    def put_many(self, records, created=None) -> None:
        super().put_many(records, created)
        torn = [
            (key, backend, _canonical_options(options))
            for key, backend, _, options in records
            if self._injector.corrupt_write(f"{backend}:{key}")
        ]
        if not torn:
            return
        with self._lock:
            conn = self._connect()
            with conn:
                conn.executemany(
                    "UPDATE records SET result = substr(result, 1, 40) WHERE token = ?",
                    [(point_token(*index_key),) for index_key in torn],
                )
            for index_key in torn:
                self._index.pop(index_key, None)
