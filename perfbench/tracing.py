"""Span recording from outside the program.

The benchmark never edits the program: a traced run replaces a layer's
public function with a wrapper *where its caller looks it up* (for example
``repro.core.mva_solver.build_timeline``, not ``repro.core.timeline``), runs
the workload, and restores the originals.  Every wrapper records one span
``(id, parent, name, start, end, thread)``.  Spans stay in memory and are
aggregated when the run ends.

The parent of a span is the innermost open span *of the same thread*;
coroutine wrappers record root spans, because tasks interleave on the event
loop thread.  A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass

#: One recorded span: (id, parent id or 0, name, start, end, thread ident).
Span = tuple[int, int, str, float, float, int]


class SpanRecorder:
    """Collects spans from any thread; counts distinct inputs where asked."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, key: Callable | None = None) -> Callable:
        """A wrapper of ``fn`` recording one span named ``name`` per call.

        ``key`` maps the call's arguments to a hashable value; the set of
        distinct values is kept under ``name`` (e.g. distinct inputs of
        ``maximum_of``).
        """
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id = next(self._ids)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.spans.append(
                        (span_id, 0, name, start, time.perf_counter(), threading.get_ident())
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                self.distinct[name].add(key(*args, **kwargs))
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, threading.get_ident()))

        return wrapper


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` + dotted ``attribute`` → span ``name``."""

    module: str
    attribute: str
    name: str
    key: Callable | None = None


def _maximum_of_key(distributions, *args, **kwargs):
    return tuple(distributions)


def _backend_targets() -> list[Target]:
    from repro.api.backends import backend_names, create_backend

    targets = []
    for name in backend_names():
        cls = type(create_backend(name))
        for method in ("predict", "predict_batch"):
            if callable(getattr(cls, method, None)):
                targets.append(
                    Target(cls.__module__, f"{cls.__name__}.{method}", f"api.backends.{name}")
                )
    return targets


#: Every wrapped call site, grouped by layer.  The span names are the
#: per-layer metric prefixes the benchmark reports.
STATIC_TARGETS = (
    # core / queueing: the modified-MVA fixed point (A2-A6)
    Target("repro.core.mva_solver", "ModifiedMVASolver.solve", "core.mva_solver.solve"),
    Target("repro.core.mva_solver", "build_timeline", "core.timeline.place"),
    Target("repro.core.mva_solver", "place_tasks", "core.timeline.place"),
    Target("repro.core.fast_timeline", "TimelinePlacement.to_timeline", "core.timeline.place"),
    Target("repro.core.mva_solver", "compute_overlap_factors", "core.overlap"),
    Target("repro.core.fast_timeline", "TimelinePlacement.overlap_factors", "core.overlap"),
    Target(
        "repro.core.mva_solver", "solve_mva_with_overlaps", "queueing.mva_overlap.solve"
    ),
    Target("repro.core.mva_solver", "build_precedence_tree", "core.precedence.build"),
    Target(
        "repro.core.estimators",
        "ForkJoinEstimator.estimate",
        "core.estimators.estimate.fork-join",
    ),
    Target(
        "repro.core.estimators",
        "TripathiEstimator.estimate",
        "core.estimators.estimate.tripathi",
    ),
    Target(
        "repro.core.estimators",
        "maximum_of",
        "queueing.distributions.maximum_of",
        key=_maximum_of_key,
    ),
    # hadoop: the discrete-event simulator
    Target("repro.hadoop.simulator", "ClusterSimulator.run", "hadoop.simulator.run"),
    # api: service, sweep planner, store engines
    Target("repro.api.service", "PredictionService.evaluate_suite", "api.service.evaluate_suite"),
    Target("repro.api.service", "PredictionService.evaluate_point", "api.service.evaluate_point"),
    Target("repro.api.service", "open_store", "api.store.open"),
    Target("repro.api.sweep", "SweepScheduler.plan", "api.sweep.plan"),
    Target("repro.api.store.json_store", "ResultStore.put", "api.store.put"),
    Target("repro.api.store.json_store", "ResultStore.get", "api.store.get"),
    Target("repro.api.store.json_store", "ResultStore.get_many", "api.store.get_many"),
    Target("repro.api.store.sqlite_store", "SqliteResultStore.put", "api.store.put"),
    Target("repro.api.store.sqlite_store", "SqliteResultStore.get", "api.store.get"),
    Target("repro.api.store.sqlite_store", "SqliteResultStore.get_many", "api.store.get_many"),
    Target("repro.api.scenario", "Scenario.from_dict", "api.scenario.from_dict"),
    # serve: the daemon's request path
    Target("repro.serve.daemon", "read_request", "serve.http.parse"),
    Target("repro.serve.daemon", "json_body", "serve.encode"),
    Target("repro.serve.daemon", "encode_response", "serve.encode"),
    Target("repro.serve.daemon", "PredictionDaemon._admit", "serve.admit_wait"),
)


def all_targets() -> list[Target]:
    return [*STATIC_TARGETS, *_backend_targets()]


def install(recorder: SpanRecorder, targets: Iterable[Target]) -> Callable[[], None]:
    """Wrap every target; returns a function restoring the originals."""
    undo: list[tuple[object, str, object, bool]] = []
    for target in targets:
        owner = importlib.import_module(target.module)
        *path, attribute = target.attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        # Look in __dict__ so inherited methods are wrapped on the subclass
        # and class methods keep their descriptor.
        own = attribute in vars(owner)
        raw = vars(owner)[attribute] if own else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(target.name, raw.__func__, target.key))
        else:
            wrapped = recorder.wrap(target.name, raw, target.key)
        setattr(owner, attribute, wrapped)
        undo.append((owner, attribute, raw, own))

    def restore() -> None:
        for owner, attribute, raw, own in reversed(undo):
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    return restore


def covered(intervals: Iterable[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted((max(s, low), min(e, high)) for s, e in intervals):
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def summarize(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent:
            children[parent].append((start, end))
    summary: dict[str, dict[str, float]] = {}
    for span_id, _, name, start, end, _ in spans:
        entry = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered(children.get(span_id, ()), start, end)
    return summary
