"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so a
caller can catch a single base class.  Subclasses are grouped by subsystem:
configuration, simulation, modelling, and analysis.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """Raised when a cluster, job, or model configuration is invalid."""


class ValidationError(ReproError):
    """Raised when user-supplied values fail validation checks."""


class SimulationError(ReproError):
    """Raised when the discrete-event YARN simulator reaches an invalid state."""


class SchedulingError(SimulationError):
    """Raised when the scheduler cannot satisfy an internally consistent request."""


class ModelError(ReproError):
    """Raised when the analytic performance model cannot produce an estimate."""


class ConvergenceError(ModelError):
    """Raised when the modified MVA fixed point does not converge."""


class DistributionError(ModelError):
    """Raised when a response-time distribution cannot be fitted."""


class TraceError(ReproError):
    """Raised when a job trace cannot be parsed or is inconsistent."""


class ExperimentError(ReproError):
    """Raised when an experiment definition or run is invalid."""


class BackendError(ReproError):
    """Raised when a prediction backend is unknown or cannot run a scenario."""


class BackendCapabilityError(BackendError):
    """A backend declined a scenario it cannot model faithfully.

    Carries the reason a backend's ``declines(scenario)`` declares (e.g.
    mid-run node loss for an analytic model).  The service settles such
    points before dispatch and raises this under ``on_error="raise"``; a
    direct ``predict`` call raises it too.  Deliberately not transient.
    """


class StoreError(ReproError):
    """Raised when a persistent result store cannot be opened or written."""


class TransientError(ReproError):
    """A failure expected to go away on retry (worker hiccup, flaky I/O).

    Backends and fault harnesses raise this to mark an error as retryable;
    the service's :class:`~repro.api.resilience.RetryPolicy` classifies it
    (and its subclasses) as retryable by default.
    """


class EvaluationTimeoutError(TransientError):
    """An evaluation exceeded its configured deadline.

    A subclass of :class:`TransientError` because a timeout is usually load,
    not logic: the default retry policy re-attempts it.
    """


class CircuitOpenError(ReproError):
    """A call was rejected because the backend's circuit breaker is open.

    Deliberately *not* transient: retrying into an open breaker would defeat
    its purpose.  The breaker itself readmits probes after its cooldown.
    """
