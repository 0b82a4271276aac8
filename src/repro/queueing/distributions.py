"""Response-time distributions used by the Tripathi-based estimator.

Section 4.2.4 of the paper (option 1, "Tripathi-based") approximates the
response-time distribution of every precedence-tree node by either an
**Erlang** distribution (coefficient of variation CV <= 1) or a
**Hyperexponential** distribution (CV >= 1), following Liang & Tripathi and
Trivedi.  Knowing the children's distributions, the parent's distribution is

* the distribution of the **maximum** for a parallel-and (P) node, and
* the distribution of the **sum** for a serial (S) node,

after which the result is re-fitted to an Erlang/Hyperexponential by matching
mean and CV so the recursion can continue up the tree.

This module provides the two distribution families, the CV-based fitting rule
(:func:`fit_distribution`), and the max/sum composition operators
(:func:`maximum_of`, :func:`sum_of`).  The maximum of two built-in
distributions has exact closed-form moments (an H2 is a mixture of two
exponentials, and the maximum of two Erlangs is a finite sum); only three
or more inputs, or subclasses of the built-in types, are integrated
numerically.
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import DistributionError

#: CV below which a distribution is considered deterministic.
_DETERMINISTIC_CV = 1e-9
#: Largest Erlang shape used when fitting nearly deterministic variables.
_MAX_ERLANG_SHAPE = 500
#: Number of grid points used for numerical max-composition (3+ inputs).
_GRID_POINTS = 4096
#: Upper-quantile multiplier for the integration grid.
_GRID_SPAN_FACTOR = 12.0


class DistributionKind(enum.Enum):
    """Family of a fitted response-time distribution."""

    DETERMINISTIC = "deterministic"
    ERLANG = "erlang"
    HYPEREXPONENTIAL = "hyperexponential"


class ResponseTimeDistribution(ABC):
    """A non-negative response-time distribution with known moments."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Mean of the distribution."""

    @property
    @abstractmethod
    def variance(self) -> float:
        """Variance of the distribution."""

    @property
    @abstractmethod
    def kind(self) -> DistributionKind:
        """Family of the distribution."""

    @abstractmethod
    def cdf(self, times: np.ndarray) -> np.ndarray:
        """Cumulative distribution function evaluated at ``times`` (vectorised)."""

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(max(self.variance, 0.0))

    @property
    def coefficient_of_variation(self) -> float:
        """CV = sigma / mu (0 for a zero-mean / deterministic distribution)."""
        if self.mean <= 0:
            return 0.0
        return self.std / self.mean

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(mean={self.mean:.6g}, "
            f"cv={self.coefficient_of_variation:.4g})"
        )


@dataclass(frozen=True)
class DeterministicDistribution(ResponseTimeDistribution):
    """Point mass at ``value`` (used for zero or variance-free durations)."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise DistributionError("deterministic value must be non-negative")

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    @property
    def kind(self) -> DistributionKind:
        return DistributionKind.DETERMINISTIC

    def cdf(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return (times >= self.value).astype(float)


@dataclass(frozen=True)
class ErlangDistribution(ResponseTimeDistribution):
    """Erlang distribution with integer ``shape`` and ``rate`` per stage.

    Mean = shape / rate, variance = shape / rate**2, CV = 1 / sqrt(shape).
    """

    shape: int
    rate: float

    def __post_init__(self) -> None:
        if self.shape < 1:
            raise DistributionError("Erlang shape must be >= 1")
        if not math.isfinite(self.rate):
            raise DistributionError(f"Erlang rate must be finite, got {self.rate}")
        if self.rate <= 0:
            raise DistributionError("Erlang rate must be positive")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / self.rate**2

    @property
    def kind(self) -> DistributionKind:
        return DistributionKind.ERLANG

    def cdf(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        flat = _erlang_cdf_batch(
            np.array([self.shape]), np.array([self.rate]), np.atleast_1d(times)
        )[0]
        return flat.reshape(times.shape)


@dataclass(frozen=True)
class HyperexponentialDistribution(ResponseTimeDistribution):
    """Two-branch hyperexponential distribution (probabilities + rates)."""

    probabilities: tuple[float, float]
    rates: tuple[float, float]

    def __post_init__(self) -> None:
        p1, p2 = self.probabilities
        if not all(map(math.isfinite, self.rates)):
            raise DistributionError(f"branch rates must be finite, got {self.rates}")
        if not all(map(math.isfinite, self.probabilities)):
            raise DistributionError(
                f"branch probabilities must be finite, got {self.probabilities}"
            )
        if not math.isclose(p1 + p2, 1.0, rel_tol=0, abs_tol=1e-9):
            raise DistributionError("branch probabilities must sum to 1")
        if min(p1, p2) < 0:
            raise DistributionError("branch probabilities must be non-negative")
        if min(self.rates) <= 0:
            raise DistributionError("branch rates must be positive")

    @property
    def mean(self) -> float:
        return sum(p / r for p, r in zip(self.probabilities, self.rates))

    @property
    def variance(self) -> float:
        second_moment = sum(2.0 * p / r**2 for p, r in zip(self.probabilities, self.rates))
        return second_moment - self.mean**2

    @property
    def kind(self) -> DistributionKind:
        return DistributionKind.HYPEREXPONENTIAL

    def cdf(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        clipped = np.clip(times, 0.0, None)
        result = np.zeros_like(clipped)
        for probability, rate in zip(self.probabilities, self.rates):
            result = result + probability * (1.0 - np.exp(-rate * clipped))
        return np.where(times < 0, 0.0, np.clip(result, 0.0, 1.0))


def fit_distribution(mean: float, cv: float) -> ResponseTimeDistribution:
    """Fit an Erlang / Hyperexponential distribution from mean and CV.

    Implements the rule of Section 4.2.4: Erlang when ``CV <= 1``,
    two-branch balanced-means hyperexponential when ``CV > 1``.  A mean of
    zero or a CV of (almost) zero yields a deterministic distribution.
    """
    if not math.isfinite(mean):
        raise DistributionError(f"mean must be finite, got {mean}")
    if not math.isfinite(cv):
        raise DistributionError(f"CV must be finite, got {cv}")
    if mean < 0:
        raise DistributionError(f"mean must be non-negative, got {mean}")
    if cv < 0:
        raise DistributionError(f"CV must be non-negative, got {cv}")
    if mean == 0 or cv <= _DETERMINISTIC_CV:
        return DeterministicDistribution(value=mean)
    if cv <= 1.0:
        shape = int(round(1.0 / cv**2))
        shape = max(1, min(shape, _MAX_ERLANG_SHAPE))
        rate = shape / mean
        return ErlangDistribution(shape=shape, rate=rate)
    # Balanced-means two-branch hyperexponential fit.
    cv2 = cv**2
    p1 = 0.5 * (1.0 + math.sqrt((cv2 - 1.0) / (cv2 + 1.0)))
    p2 = 1.0 - p1
    rate1 = 2.0 * p1 / mean
    rate2 = 2.0 * p2 / mean
    return HyperexponentialDistribution(probabilities=(p1, p2), rates=(rate1, rate2))


def fit_from_moments(mean: float, variance: float) -> ResponseTimeDistribution:
    """Fit a distribution from mean and variance (helper on top of :func:`fit_distribution`)."""
    if not math.isfinite(mean):
        raise DistributionError(f"mean must be finite, got {mean}")
    if not math.isfinite(variance):
        raise DistributionError(f"variance must be finite, got {variance}")
    if variance < 0:
        variance = 0.0
    if mean <= 0:
        return DeterministicDistribution(value=max(mean, 0.0))
    cv = math.sqrt(variance) / mean
    return fit_distribution(mean, cv)


def _erlang_cdf_batch(
    shapes: np.ndarray, rates: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Erlang CDFs of several (shape, rate) pairs on one time grid.

    ``P(X <= t) = 1 - exp(-rate t) * sum_{n=0}^{k-1} (rate t)^n / n!``.  The
    partial sums of all distributions advance through one shared recurrence
    (``term_n = term_{n-1} * x / n``) up to the largest shape; rows whose
    shape is already exhausted stop accumulating, so each row performs exactly
    the arithmetic of the scalar per-distribution loop.  ``term`` and
    ``total`` are updated in place, so a step allocates no grid-sized
    temporaries.

    A partial sum can only overflow once ``x`` is in the several-hundreds
    (the peak term ``x^n / n!`` needs ``x`` ~> 700 to exceed float range), so
    the shape is large there too; those entries fall back to the normal
    approximation ``Erlang(k, r) ~ N(k, k)`` in ``x = r t`` units, which is
    accurate to well under 1e-3 at such shapes, instead of propagating NaN.
    """
    x = np.clip(rates[:, None] * times[None, :], 0.0, None)
    total = np.ones_like(x)
    term = np.ones_like(x)
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(1, int(shapes.max())):
            np.multiply(term, x, out=term)
            np.divide(term, n, out=term)
            np.add(total, term, out=total, where=(n < shapes)[:, None])
        result = 1.0 - np.exp(-x) * total
    overflowed = ~np.isfinite(total)
    if overflowed.any():
        shape_grid = np.broadcast_to(shapes[:, None].astype(float), x.shape)
        z = (x[overflowed] - shape_grid[overflowed]) / np.sqrt(shape_grid[overflowed])
        result[overflowed] = [
            0.5 * (1.0 + math.erf(value / math.sqrt(2.0))) for value in z
        ]
    return np.clip(result, 0.0, 1.0)


def _hyperexponential_cdf_batch(
    probabilities: np.ndarray, rates: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Two-branch hyperexponential CDFs (D×2 parameter arrays) on one grid."""
    clipped = np.clip(times, 0.0, None)[None, :]
    result = np.zeros((probabilities.shape[0], times.size))
    for branch in range(probabilities.shape[1]):
        result = result + probabilities[:, branch, None] * (
            1.0 - np.exp(-rates[:, branch, None] * clipped)
        )
    return np.where(times[None, :] < 0, 0.0, np.clip(result, 0.0, 1.0))


def _batched_cdf(
    distributions: Sequence[ResponseTimeDistribution], times: np.ndarray
) -> np.ndarray:
    """Evaluate every distribution's CDF on ``times``, grouped by family.

    Returns a ``(len(distributions), len(times))`` array whose rows are in
    input order and bit-identical to calling each ``cdf`` individually.
    """
    times = np.asarray(times, dtype=float)
    out = np.empty((len(distributions), times.size))
    deterministic: list[int] = []
    erlang: list[int] = []
    hyper: list[int] = []
    for index, distribution in enumerate(distributions):
        # Exact-type dispatch: subclasses may override cdf, so only the
        # built-in families are batched; everything else evaluates itself.
        if type(distribution) is DeterministicDistribution:
            deterministic.append(index)
        elif type(distribution) is ErlangDistribution:
            erlang.append(index)
        elif type(distribution) is HyperexponentialDistribution:
            hyper.append(index)
        else:
            out[index] = distribution.cdf(times)
    if deterministic:
        values = np.array([distributions[i].value for i in deterministic])
        out[deterministic] = (times[None, :] >= values[:, None]).astype(float)
    if erlang:
        shapes = np.array([distributions[i].shape for i in erlang])
        rates = np.array([distributions[i].rate for i in erlang])
        out[erlang] = _erlang_cdf_batch(shapes, rates, times)
    if hyper:
        probabilities = np.array([distributions[i].probabilities for i in hyper])
        rates = np.array([distributions[i].rates for i in hyper])
        out[hyper] = _hyperexponential_cdf_batch(probabilities, rates, times)
    return out


def _integration_grid(distributions: Sequence[ResponseTimeDistribution]) -> np.ndarray:
    """Build a time grid covering the bulk of all distributions' mass."""
    upper = 0.0
    for distribution in distributions:
        upper = max(upper, distribution.mean + _GRID_SPAN_FACTOR * max(distribution.std, 1e-12))
    if upper <= 0:
        upper = 1.0
    return np.linspace(0.0, upper, _GRID_POINTS)


def _erlang_phases(
    distribution: ResponseTimeDistribution,
) -> tuple[tuple[float, int, float], ...] | None:
    """``(weight, shape, rate)`` Erlang phases of a built-in Erlang or H2.

    A hyperexponential is a mixture of two exponentials (Erlang(1) phases);
    a zero-probability branch contributes nothing and is dropped.  Any other
    type -- including subclasses, which may override ``cdf`` -- gives
    ``None``.
    """
    if type(distribution) is ErlangDistribution:
        return ((1.0, distribution.shape, distribution.rate),)
    if type(distribution) is HyperexponentialDistribution:
        return tuple(
            (probability, 1, rate)
            for probability, rate in zip(distribution.probabilities, distribution.rates)
            if probability > 0
        )
    return None


def _erlang_larger_moments(
    shape: int, rate: float, other_shape: int, other_rate: float
) -> tuple[float, float]:
    """``E[X; X > Y]`` and ``E[X^2; X > Y]`` for Erlang(a, λ) ``X`` and Erlang(b, μ) ``Y``.

    Weighting the density of ``X`` by ``x^m`` gives Erlang(a+m, λ) scaled by
    the rising factorial ``(a)_m / λ^m``, so ``E[X^m; X > Y] = (a)_m / λ^m ·
    P(Y < X_{a+m})``.  Racing the two as Poisson streams, ``Y < X_n`` means
    the b-th μ-event comes before the n-th λ-event::

        P(Y < X_n) = Σ_{i<n} C(b-1+i, i) p^i q^b,   p = λ/(λ+μ), q = μ/(λ+μ)

    a negative-binomial sum of positive terms, built as the running product
    of ``q^b`` and the ratios ``p (b-1+i) / i``.  ``q^b`` only underflows
    when the whole sum is negligible.
    """
    total = rate + other_rate
    p, q = rate / total, other_rate / total
    steps = np.arange(1, shape + 2)
    terms = np.empty(shape + 2)
    terms[0] = q**other_shape
    terms[1:] = p * (other_shape - 1 + steps) / steps
    np.cumprod(terms, out=terms)
    # P(Y < X_{a+1}) and P(Y < X_{a+2}).
    behind_one = float(terms[: shape + 1].sum())
    behind_two = behind_one + float(terms[shape + 1])
    return shape / rate * behind_one, shape * (shape + 1) / rate**2 * behind_two


def _deterministic_maximum_moments(
    value: float, phases: Sequence[tuple[float, int, float]]
) -> tuple[float, float]:
    """Exact ``E[max(d, X)]`` and ``E[max(d, X)^2]`` for an Erlang mixture ``X``.

    Per Erlang(k, λ) phase, ``E[max^m] = d^m F_k(d) + (k)_m / λ^m · S_{k+m}(d)``
    with ``S_n`` the Erlang(n, λ) survival function (the same weighting as
    :func:`_erlang_larger_moments`): three CDF values at the point ``d``.
    """
    shapes = np.array([shape + extra for _, shape, _ in phases for extra in range(3)])
    rates = np.repeat([rate for _, _, rate in phases], 3)
    cdfs = _erlang_cdf_batch(shapes, rates, np.array([value]))[:, 0].reshape(-1, 3)
    first = second = 0.0
    for (weight, shape, rate), (below, cdf_plus_one, cdf_plus_two) in zip(phases, cdfs):
        first += weight * (value * below + shape / rate * (1.0 - cdf_plus_one))
        second += weight * (
            value**2 * below + shape * (shape + 1) / rate**2 * (1.0 - cdf_plus_two)
        )
    return first, second


def _pair_maximum_moments(
    first: ResponseTimeDistribution, second: ResponseTimeDistribution
) -> tuple[float, float] | None:
    """Exact ``E[max]`` and ``E[max^2]`` of two built-in distributions.

    Erlang and H2 are Erlang mixtures; per pair of phases
    ``E[max^m] = E[X^m; X > Y] + E[Y^m; Y > X]``, a sum of positive terms.
    A deterministic value against a mixture uses the CDFs at that point.
    ``None`` when either input is not a built-in type.
    """
    phases = (_erlang_phases(first), _erlang_phases(second))
    if phases[0] is not None and phases[1] is not None:
        mean = second_moment = 0.0
        for weight, shape, rate in phases[0]:
            for other_weight, other_shape, other_rate in phases[1]:
                larger = _erlang_larger_moments(shape, rate, other_shape, other_rate)
                smaller = _erlang_larger_moments(other_shape, other_rate, shape, rate)
                mean += weight * other_weight * (larger[0] + smaller[0])
                second_moment += weight * other_weight * (larger[1] + smaller[1])
        return mean, second_moment
    for point, other in ((first, phases[1]), (second, phases[0])):
        if type(point) is DeterministicDistribution and other is not None:
            return _deterministic_maximum_moments(point.value, other)
    return None


def _quadrature_maximum_moments(
    distributions: Sequence[ResponseTimeDistribution],
) -> tuple[float, float]:
    """``E[max]`` and ``E[max^2]`` by the trapezoid rule on a fixed grid.

    Integrates the survival function of the maximum::

        E[max]   = ∫ (1 - Π_i F_i(t)) dt
        E[max^2] = ∫ 2 t (1 - Π_i F_i(t)) dt
    """
    grid = _integration_grid(distributions)
    cdfs = _batched_cdf(distributions, grid)
    # Multiply rows in input order so rounding matches the historical
    # one-distribution-at-a-time product exactly.
    product_cdf = np.ones_like(grid)
    for row in cdfs:
        product_cdf = product_cdf * row
    survival = 1.0 - product_cdf
    mean = float(np.trapezoid(survival, grid))
    # The maximum stochastically dominates every component, so E[max] can
    # never fall below the largest component mean; the finite grid truncates
    # heavy (CV > 1) tails and may undershoot it by a hair.
    mean = max(mean, max(d.mean for d in distributions))
    return mean, float(np.trapezoid(2.0 * grid * survival, grid))


def maximum_of(distributions: Sequence[ResponseTimeDistribution]) -> ResponseTimeDistribution:
    """Distribution of the maximum of independent response times.

    The mean and second moment of the maximum are exact for a pair of
    built-in distributions (:class:`ErlangDistribution`,
    :class:`HyperexponentialDistribution`, :class:`DeterministicDistribution`;
    see :func:`_pair_maximum_moments`).  Three or more inputs, or a subclass
    of a built-in type, fall back to numerical integration of the survival
    function of the maximum on a fixed grid.  The result is re-fitted via
    :func:`fit_from_moments` so it can be used as a child distribution
    further up the precedence tree.
    """
    if not distributions:
        raise DistributionError("maximum_of requires at least one distribution")
    if len(distributions) == 1:
        return distributions[0]
    if all(isinstance(d, DeterministicDistribution) for d in distributions):
        return DeterministicDistribution(value=max(d.mean for d in distributions))
    moments = _pair_maximum_moments(*distributions) if len(distributions) == 2 else None
    if moments is None:
        moments = _quadrature_maximum_moments(distributions)
    mean, second_moment = moments
    return fit_from_moments(mean, max(second_moment - mean**2, 0.0))


def sum_of(distributions: Sequence[ResponseTimeDistribution]) -> ResponseTimeDistribution:
    """Distribution of the sum of independent response times.

    Means and variances add; the result is re-fitted to the Erlang /
    hyperexponential family by CV.
    """
    if not distributions:
        raise DistributionError("sum_of requires at least one distribution")
    mean = sum(d.mean for d in distributions)
    variance = sum(d.variance for d in distributions)
    return fit_from_moments(mean, variance)
