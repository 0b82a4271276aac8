"""Prediction backends: one uniform ``predict(scenario)`` over every engine.

The registry maps short string keys to backends.  A built-in backend is a
:class:`Capability` record in ``_BUILTINS``, held as data: what it
declares, and the ``"module:Class"`` of its implementation, which
:func:`create_backend` imports the first time it builds one.  The
``backend_*`` queries read the record only, so settling declines, planning
and reading stores load no engine.  To add a built-in, write its class
under ``@declared(name)`` (which gives the class the record's declarations)
and add the record, with that class's ``"module:Class"``, to ``_BUILTINS``.
A user's own class goes through :func:`register_backend` instead.

Backends are stateless, so instances can be shared across threads and a
result is a pure function of (scenario, backend, backend version).  Derived
inputs come from :meth:`~repro.api.scenario.ScenarioResolver.current`, whose
values are pure functions of the scenario; in particular the two MVA
backends of one scenario read one fixed-point trajectory from it.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, ClassVar, Protocol, runtime_checkable

from ..core.parameters import TaskClass
from ..exceptions import BackendError

if TYPE_CHECKING:
    from .results import PredictionResult
    from .scenario import Scenario

#: Every phase a result reports, in execution order.
ALL_PHASES = tuple(task_class.value for task_class in TaskClass.ordered())


@runtime_checkable
class PredictionBackend(Protocol):
    """A named engine that turns a :class:`Scenario` into a :class:`PredictionResult`.

    A class may declare ``version``, ``cpu_bound``, ``modelled_phases`` and a
    ``declines(scenario)`` classmethod, meaning what the :class:`Capability`
    fields of those names mean.  It may also implement
    ``predict_batch(scenarios) -> list[PredictionResult]``, which the
    service calls for suite misses: results in input order, each bitwise
    equal to ``predict`` of the same scenario.
    """

    name: ClassVar[str]

    def predict(self, scenario: Scenario) -> PredictionResult:
        """Evaluate one scenario."""
        ...


def _declines_nothing(scenario: Scenario) -> None:
    """The default rule: the backend models every scenario."""
    return None


@dataclass(frozen=True)
class Capability:
    """What a backend declares, as data: reading it imports no engine."""

    #: The backend's class, or the ``"module:Class"`` that :meth:`load` imports.
    implementation: str | type
    #: Bump whenever the backend's numerical behaviour changes; stored
    #: results recorded under an older version are treated as stale.
    version: int = 1
    #: The phases the accuracy report scores.
    modelled_phases: tuple[str, ...] = ALL_PHASES
    #: The GIL serialises a thread pool on ``predict``: the service's
    #: ``execution="process"`` mode ships it to a process pool instead.
    cpu_bound: bool = False
    #: The class implements ``predict_batch``.
    supports_batch: bool = False
    #: Why the backend cannot model a scenario; ``None`` when it can.
    declines: Callable[[Scenario], str | None] = _declines_nothing

    @classmethod
    def of(cls, backend: type) -> Capability:
        """The record of a registered class: its declarations, or the defaults."""
        return cls(
            backend,
            version=getattr(backend, "version", 1),
            modelled_phases=tuple(getattr(backend, "modelled_phases", ALL_PHASES)),
            cpu_bound=bool(getattr(backend, "cpu_bound", False)),
            supports_batch=callable(getattr(backend, "predict_batch", None)),
            declines=getattr(backend, "declines", _declines_nothing),
        )

    def load(self) -> type:
        """The implementation class, imported on first use."""
        if isinstance(self.implementation, str):
            module, _, attribute = self.implementation.partition(":")
            return getattr(importlib.import_module(module), attribute)
        return self.implementation


# Only the simulator models failures mechanistically.  The analytic backends
# inflate by the expected value where the model admits it (stragglers and
# task re-execution are mean-field effects) and *decline* — declared before
# any dispatch, never a silently failure-free number — where it does not.


def _declines_failures(name: str, scenario: Scenario, corrects: bool = True) -> str | None:
    """Why ``scenario``'s failures are beyond backend ``name``; ``None`` if they are not.

    Node loss and speculation depend on scheduling history, so no analytic
    backend corrects them; a backend that ``corrects`` nothing declines any
    failure.
    """
    spec = scenario.failures
    if spec is None or spec.is_noop:
        return None
    if not corrects:
        problem = "has no failure model or correction"
    elif spec.node_failure_times:
        problem = "cannot model mid-run node failures"
    elif spec.speculative:
        problem = "cannot model speculative execution"
    else:
        return None
    return f"backend {name!r} {problem}; use the simulator backend for this failure spec"


_BUILTINS: dict[str, Capability] = {
    # The paper's analytic Hadoop 2.x model with either estimator.
    "mva-forkjoin": Capability(
        "repro.api.mva_backends:MvaForkJoinBackend",
        # 2: the solver places tasks with the array timeline only and always
        # starts cold (totals moved by ~1e-14 from version 1's scalar path).
        # 3: the overlap MVA and overlap factors make no BLAS call, so the
        # bits no longer depend on the host's OpenBLAS kernel (totals moved
        # <4e-16).
        version=3,
        declines=partial(_declines_failures, "mva-forkjoin"),
    ),
    "mva-tripathi": Capability(
        "repro.api.mva_backends:MvaTripathiBackend",
        # 3: the P-node maximum of two built-in distributions is exact (closed
        # form moments instead of a 4,096-point trapezoid; totals moved <1e-12).
        # 4: no BLAS call on the solver path, as for the fork/join version 3.
        version=4,
        declines=partial(_declines_failures, "mva-tripathi"),
    ),
    # ARIA bounds on the uncontended service demands the analytic model uses.
    "aria": Capability(
        "repro.api.formula_backends:AriaBackend",
        supports_batch=True,
        declines=partial(_declines_failures, "aria"),
    ),
    # Herodotou's phase model on dataflow and cost statistics.
    "herodotou": Capability(
        "repro.api.formula_backends:HerodotouBackend",
        # Shuffle-sort is folded into merge; its reported 0.0 is no estimate.
        modelled_phases=("map", "merge"),
        supports_batch=True,
        declines=partial(_declines_failures, "herodotou"),
    ),
    # The slot-based Hadoop 1.x baseline model.
    "vianna": Capability(
        "repro.api.mva_backends:ViannaBackend",
        # 2 and 3: the same solver changes as the MVA backends.
        version=3,
        declines=partial(_declines_failures, "vianna", corrects=False),
    ),
    # The YARN simulator, the "measured" series; its pure-Python event loop
    # runs in a process pool.
    "simulator": Capability("repro.api.simulator_backend:SimulatorBackend", cpu_bound=True),
}

#: Registered backends: a built-in's record (which stays after its class is
#: imported), or a class given to :func:`register_backend`.
_REGISTRY: dict[str, Capability | type] = dict(_BUILTINS)

#: What an unregistered name declares to the queries that have a default.
_UNREGISTERED = Capability(object)


def declared(name: str):
    """Class decorator giving a built-in class the declarations of its record."""
    record = _BUILTINS[name]

    def decorator(cls):
        cls.name = name
        cls.version = record.version
        cls.modelled_phases = record.modelled_phases
        cls.cpu_bound = record.cpu_bound
        cls.declines = staticmethod(record.declines)
        return cls

    return decorator


def register_backend(name: str):
    """Class decorator registering a backend class under a string key."""

    def decorator(cls):
        if name in _REGISTRY:
            raise BackendError(f"backend {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def backend_names() -> list[str]:
    """Sorted names of all registered backends."""
    return sorted(_REGISTRY)


def backend_capability(name: str) -> Capability | None:
    """The record of a registered backend; ``None`` when unregistered."""
    entry = _REGISTRY.get(name)
    return entry if entry is None or isinstance(entry, Capability) else Capability.of(entry)


def backend_version(name: str) -> int | None:
    """Behaviour version of a registered backend; ``None`` when unregistered.

    The persistent result store records this next to every result and treats
    any mismatch on load as a stale record.
    """
    record = backend_capability(name)
    return None if record is None else record.version


def backend_is_cpu_bound(name: str) -> bool:
    """Whether a backend benefits from process-pool (GIL-free) execution."""
    return (backend_capability(name) or _UNREGISTERED).cpu_bound


def backend_declines(name: str, scenario: Scenario) -> str | None:
    """Why a registered backend cannot model ``scenario``; ``None`` if it can."""
    return (backend_capability(name) or _UNREGISTERED).declines(scenario)


def backend_phases(name: str) -> tuple[str, ...]:
    """The phases a backend models (all of :data:`ALL_PHASES` by default)."""
    return (backend_capability(name) or _UNREGISTERED).modelled_phases


def backend_supports_batch(name: str) -> bool:
    """Whether a registered backend implements ``predict_batch``."""
    return (backend_capability(name) or _UNREGISTERED).supports_batch


def create_backend(name: str, **options) -> PredictionBackend:
    """Instantiate a backend by name (``options`` go to its constructor)."""
    record = backend_capability(name)
    if record is None:
        raise BackendError(f"unknown backend {name!r}; registered: {backend_names()}")
    return record.load()(**options)
