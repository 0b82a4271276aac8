"""Tests for :mod:`repro.queueing.distributions`."""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DistributionError
from repro.queueing.distributions import (
    DeterministicDistribution,
    DistributionKind,
    ErlangDistribution,
    HyperexponentialDistribution,
    _batched_cdf,
    _erlang_cdf_batch,
    _integration_grid,
    _pair_maximum_moments,
    fit_distribution,
    fit_from_moments,
    maximum_of,
    sum_of,
)


def _scalar_cdf(distribution, t: float) -> float:
    """Pure-scalar reference CDF (pre-vectorization arithmetic, per point)."""
    if isinstance(distribution, DeterministicDistribution):
        return 1.0 if t >= distribution.value else 0.0
    if isinstance(distribution, ErlangDistribution):
        x = max(distribution.rate * float(t), 0.0)
        total = 0.0
        term = 1.0
        for n in range(distribution.shape):
            if n > 0:
                term = term * x / n
            total = total + term
        if not math.isfinite(total):
            # Overflow implies a large x (and shape): normal approximation.
            z = (x - distribution.shape) / math.sqrt(distribution.shape)
            return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        return min(max(1.0 - math.exp(-x) * total, 0.0), 1.0)
    if isinstance(distribution, HyperexponentialDistribution):
        if t < 0:
            return 0.0
        result = sum(
            p * (1.0 - math.exp(-r * max(t, 0.0)))
            for p, r in zip(distribution.probabilities, distribution.rates)
        )
        return min(max(result, 0.0), 1.0)
    raise AssertionError(f"unexpected distribution {distribution!r}")


def _where_erlang_cdf_batch(shapes, rates, times):
    """Frozen copy of the batch recurrence before it ran in place.

    Each step built ``term * x / n`` and ``np.where(active, total + term,
    total)`` as temporaries; the in-place kernel must match it bit for bit.
    """
    x = np.clip(rates[:, None] * times[None, :], 0.0, None)
    total = np.ones_like(x)
    term = np.ones_like(x)
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(1, int(shapes.max())):
            term = term * x / n
            active = (n < shapes)[:, None]
            total = np.where(active, total + term, total)
        result = 1.0 - np.exp(-x) * total
    overflowed = ~np.isfinite(total)
    if overflowed.any():
        shape_grid = np.broadcast_to(shapes[:, None].astype(float), x.shape)
        z = (x[overflowed] - shape_grid[overflowed]) / np.sqrt(shape_grid[overflowed])
        result[overflowed] = [0.5 * (1.0 + math.erf(value / math.sqrt(2.0))) for value in z]
    return np.clip(result, 0.0, 1.0)


def _scalar_maximum_of(distributions):
    """Reference max-composition using one cdf call per distribution."""
    grid = _integration_grid(distributions)
    product_cdf = np.ones_like(grid)
    for distribution in distributions:
        product_cdf = product_cdf * np.array(
            [_scalar_cdf(distribution, t) for t in grid]
        )
    survival = 1.0 - product_cdf
    mean = float(np.trapezoid(survival, grid))
    mean = max(mean, max(d.mean for d in distributions))
    second_moment = float(np.trapezoid(2.0 * grid * survival, grid))
    return fit_from_moments(mean, max(second_moment - mean**2, 0.0))


def _exact_pair_moments(first, second):
    """Independent ``E[max]``, ``E[max^2]`` of two Erlang/H2 variables.

    Scalar double sums over ``math.comb`` with ``math.fsum``, through the
    identity ``max = X + Y - min`` per pair of Erlang phases.
    """

    def phases(distribution):
        if isinstance(distribution, ErlangDistribution):
            return [(1.0, distribution.shape, distribution.rate)]
        return [(p, 1, r) for p, r in zip(distribution.probabilities, distribution.rates)]

    def raw(distribution):
        return (
            math.fsum(w * k / r for w, k, r in phases(distribution)),
            math.fsum(w * k * (k + 1) / r**2 for w, k, r in phases(distribution)),
        )

    minimum = [0.0, 0.0]
    for u, a, lam in phases(first):
        for v, b, mu in phases(second):
            total = lam + mu
            p, q = lam / total, mu / total
            terms = [
                (math.comb(i + j, i) * p**i * q**j, i + j + 1)
                for i in range(a)
                for j in range(b)
            ]
            minimum[0] += u * v * math.fsum(w for w, _ in terms) / total
            minimum[1] += u * v * 2.0 * math.fsum(w * n for w, n in terms) / total**2
    (x1, x2), (y1, y2) = raw(first), raw(second)
    return x1 + y1 - minimum[0], x2 + y2 - minimum[1]


class TestErlang:
    def test_moments(self):
        erlang = ErlangDistribution(shape=4, rate=2.0)
        assert erlang.mean == pytest.approx(2.0)
        assert erlang.variance == pytest.approx(1.0)
        assert erlang.coefficient_of_variation == pytest.approx(0.5)

    def test_cdf_monotone_and_bounded(self):
        erlang = ErlangDistribution(shape=3, rate=1.5)
        times = np.linspace(0, 20, 200)
        cdf = erlang.cdf(times)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == pytest.approx(0.0, abs=1e-9)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-3)

    def test_invalid_parameters(self):
        with pytest.raises(DistributionError):
            ErlangDistribution(shape=0, rate=1.0)
        with pytest.raises(DistributionError):
            ErlangDistribution(shape=1, rate=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, bad):
        with pytest.raises(DistributionError, match="rate must be finite"):
            ErlangDistribution(shape=2, rate=bad)


class TestHyperexponential:
    def test_moments_and_cv_above_one(self):
        hyper = HyperexponentialDistribution(probabilities=(0.8, 0.2), rates=(2.0, 0.25))
        assert hyper.mean == pytest.approx(0.8 / 2.0 + 0.2 / 0.25)
        assert hyper.coefficient_of_variation > 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, bad):
        with pytest.raises(DistributionError, match="rates must be finite"):
            HyperexponentialDistribution(probabilities=(0.5, 0.5), rates=(bad, 1.0))

    def test_non_finite_probability_rejected(self):
        with pytest.raises(DistributionError, match="probabilities must be finite"):
            HyperexponentialDistribution(probabilities=(math.nan, 0.5), rates=(1.0, 1.0))

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            HyperexponentialDistribution(probabilities=(0.7, 0.2), rates=(1.0, 1.0))

    def test_cdf_bounded(self):
        hyper = HyperexponentialDistribution(probabilities=(0.5, 0.5), rates=(1.0, 3.0))
        times = np.linspace(0, 30, 100)
        cdf = hyper.cdf(times)
        assert np.all((cdf >= 0) & (cdf <= 1))


class TestFitDistribution:
    def test_cv_below_one_gives_erlang(self):
        fitted = fit_distribution(10.0, 0.5)
        assert fitted.kind is DistributionKind.ERLANG
        assert fitted.mean == pytest.approx(10.0)
        assert fitted.coefficient_of_variation == pytest.approx(0.5, rel=0.2)

    def test_cv_above_one_gives_hyperexponential(self):
        fitted = fit_distribution(10.0, 1.5)
        assert fitted.kind is DistributionKind.HYPEREXPONENTIAL
        assert fitted.mean == pytest.approx(10.0)
        assert fitted.coefficient_of_variation == pytest.approx(1.5, rel=0.05)

    def test_cv_of_one_is_exponential(self):
        fitted = fit_distribution(4.0, 1.0)
        assert fitted.kind is DistributionKind.ERLANG
        assert fitted.coefficient_of_variation == pytest.approx(1.0)

    def test_zero_mean_and_zero_cv(self):
        assert fit_distribution(0.0, 0.5).kind is DistributionKind.DETERMINISTIC
        assert fit_distribution(5.0, 0.0).kind is DistributionKind.DETERMINISTIC

    def test_negative_inputs_rejected(self):
        with pytest.raises(DistributionError):
            fit_distribution(-1.0, 0.5)
        with pytest.raises(DistributionError):
            fit_distribution(1.0, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(DistributionError, match="mean must be finite"):
            fit_distribution(bad, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cv_rejected(self, bad):
        # A NaN CV used to reach the hyperexponential branch and fail there
        # with a misleading "probabilities must sum to 1".
        with pytest.raises(DistributionError, match="CV must be finite"):
            fit_distribution(1.0, bad)

    @given(
        mean=st.floats(min_value=0.1, max_value=1e4),
        cv=st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_preserves_mean(self, mean, cv):
        fitted = fit_distribution(mean, cv)
        assert fitted.mean == pytest.approx(mean, rel=1e-6)


class TestComposition:
    def test_sum_adds_means_and_variances(self):
        first = fit_distribution(5.0, 0.4)
        second = fit_distribution(7.0, 0.8)
        combined = sum_of([first, second])
        assert combined.mean == pytest.approx(12.0, rel=1e-6)
        assert combined.variance == pytest.approx(first.variance + second.variance, rel=0.05)

    def test_maximum_at_least_each_mean(self):
        first = fit_distribution(5.0, 0.5)
        second = fit_distribution(7.0, 0.5)
        combined = maximum_of([first, second])
        assert combined.mean >= 7.0 - 1e-6
        assert combined.mean <= 12.0

    def test_maximum_of_single_is_identity(self):
        only = fit_distribution(3.0, 0.5)
        assert maximum_of([only]) is only

    def test_maximum_of_deterministic(self):
        combined = maximum_of(
            [DeterministicDistribution(3.0), DeterministicDistribution(5.0)]
        )
        assert combined.mean == pytest.approx(5.0)
        assert combined.kind is DistributionKind.DETERMINISTIC

    def test_maximum_of_exponentials_matches_theory(self):
        # E[max of two iid exponentials with mean 1] = 1.5 exactly.
        exponential = fit_distribution(1.0, 1.0)
        combined = maximum_of([exponential, exponential])
        assert combined.mean == pytest.approx(1.5, rel=1e-12)

    def test_empty_inputs_rejected(self):
        with pytest.raises(DistributionError):
            maximum_of([])
        with pytest.raises(DistributionError):
            sum_of([])

    @given(
        means=st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=2, max_size=4),
        cv=st.floats(min_value=0.1, max_value=1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_maximum_bounds(self, means, cv):
        distributions = [fit_distribution(mean, cv) for mean in means]
        combined = maximum_of(distributions)
        # E[max] lies between the largest mean and the sum of the means.
        assert combined.mean >= max(means) - 1e-6
        assert combined.mean <= sum(means) + 1e-6


class TestVectorizedEquivalence:
    """The batched CDF paths must match the scalar reference arithmetic."""

    CASES = [
        DeterministicDistribution(3.5),
        ErlangDistribution(shape=1, rate=0.8),
        ErlangDistribution(shape=7, rate=2.5),
        ErlangDistribution(shape=500, rate=40.0),
        HyperexponentialDistribution(probabilities=(0.8, 0.2), rates=(2.0, 0.25)),
    ]

    @pytest.mark.parametrize("distribution", CASES, ids=lambda d: repr(d))
    def test_cdf_matches_scalar_reference(self, distribution):
        times = np.linspace(0.0, 30.0, 257)
        expected = np.array([_scalar_cdf(distribution, t) for t in times])
        np.testing.assert_allclose(distribution.cdf(times), expected, rtol=0, atol=1e-12)

    def test_batched_cdf_matches_individual_calls(self):
        times = np.linspace(0.0, 25.0, 301)
        rows = _batched_cdf(self.CASES, times)
        for row, distribution in zip(rows, self.CASES):
            assert np.array_equal(row, distribution.cdf(times))

    def test_huge_shape_overflow_falls_back_to_normal_approximation(self):
        # The partial-sum recurrence overflows around x ~ 700+; the CDF must
        # stay sane there instead of returning NaN (or a blanket 1.0).
        erlang = ErlangDistribution(shape=2000, rate=1.0)
        cdf = erlang.cdf(np.array([750.0, 2000.0, 3000.0]))
        assert cdf[0] == pytest.approx(0.0, abs=1e-9)  # far below the mean
        assert cdf[1] == pytest.approx(0.5, abs=0.02)  # at the mean
        assert cdf[2] == pytest.approx(1.0, abs=1e-9)  # far above the mean
        assert np.all(np.isfinite(cdf))

    def test_in_place_recurrence_matches_where_recurrence(self):
        # Mixed shapes in one batch; the shape-2000 row reaches x = 800, past
        # the ~750 where its partial sum overflows into the normal fallback.
        shapes = np.array([1, 7, 100, 500, 2000])
        rates = np.array([0.3, 1.1, 2.5, 4.0, 1.0])
        times = np.linspace(0.0, 800.0, 1601)
        peak_log_term = max(n * math.log(800.0) - math.lgamma(n + 1) for n in range(2000))
        assert peak_log_term > math.log(np.finfo(float).max)
        expected = _where_erlang_cdf_batch(shapes, rates, times)
        assert np.array_equal(_erlang_cdf_batch(shapes, rates, times), expected)

    def test_cdf_accepts_scalar_input(self):
        erlang = ErlangDistribution(shape=3, rate=1.5)
        value = erlang.cdf(2.0)
        assert value.shape == ()
        assert float(value) == pytest.approx(_scalar_cdf(erlang, 2.0), abs=1e-12)

    @pytest.mark.parametrize("rate", [0.3, 1.0, 7.5])
    def test_maximum_of_matches_scalar_path(self, rate):
        # Pairs are exact: two iid Exp(λ) give E[max] = 1.5/λ and
        # E[max^2] = 3.5/λ^2; max(d, Exp(λ)) has E = d + e^{-λd}/λ and
        # E[max^2] = d^2 + e^{-λd} (2d/λ + 2/λ^2); Exp(λ) against Exp(μ)
        # gives 1/λ + 1/μ - 1/(λ+μ) and 2/λ^2 + 2/μ^2 - 2/(λ+μ)^2.
        exponential = ErlangDistribution(shape=1, rate=rate)
        assert _pair_maximum_moments(exponential, exponential) == (
            pytest.approx(1.5 / rate, rel=1e-12),
            pytest.approx(3.5 / rate**2, rel=1e-12),
        )
        for d in (0.5, 2.0, 9.0):
            decay = math.exp(-rate * d)
            expected = (
                pytest.approx(d + decay / rate, rel=1e-12),
                pytest.approx(d**2 + decay * (2 * d / rate + 2 / rate**2), rel=1e-12),
            )
            point = DeterministicDistribution(d)
            assert _pair_maximum_moments(point, exponential) == expected
            assert _pair_maximum_moments(exponential, point) == expected
        hyper = HyperexponentialDistribution(probabilities=(0.8, 0.2), rates=(2.0, 0.25))
        expected = [0.0, 0.0]
        for p, r in zip(hyper.probabilities, hyper.rates):
            expected[0] += p * (1 / r + 1 / rate - 1 / (r + rate))
            expected[1] += p * (2 / r**2 + 2 / rate**2 - 2 / (r + rate) ** 2)
        assert _pair_maximum_moments(hyper, exponential) == pytest.approx(expected, rel=1e-12)
        assert maximum_of([exponential, exponential]).mean == pytest.approx(
            1.5 / rate, rel=1e-12
        )
        # Three or more inputs still integrate on the grid.
        distributions = [fit_distribution(mean, 0.4) for mean in (2.0, 3.0, 4.0, 5.0)]
        fast = maximum_of(distributions)
        reference = _scalar_maximum_of(distributions)
        assert fast.kind is reference.kind
        assert fast.mean == pytest.approx(reference.mean, rel=1e-12)
        assert fast.variance == pytest.approx(reference.variance, rel=1e-9, abs=1e-12)

    @given(
        means=st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=2, max_size=5),
        cvs=st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=2, max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_maximum_of_matches_scalar_path_property(self, means, cvs):
        distributions = [fit_distribution(mean, cv) for mean, cv in zip(means, cvs)]
        fast = maximum_of(distributions)
        if len(distributions) == 2:
            mean, second_moment = _exact_pair_moments(*distributions)
            assert fast.mean == pytest.approx(mean, rel=1e-12)
            assert _pair_maximum_moments(*distributions) == pytest.approx(
                (mean, second_moment), rel=1e-12
            )
        else:
            reference = _scalar_maximum_of(distributions)
            assert fast.mean == pytest.approx(reference.mean, rel=1e-10)


class TestClosedFormMaximum:
    """Edge cases of the exact pair moments."""

    def test_largest_fitted_shapes_stay_finite_and_bounded(self):
        first = ErlangDistribution(shape=500, rate=40.0)
        second = ErlangDistribution(shape=500, rate=45.0)
        combined = maximum_of([first, second])
        assert math.isfinite(combined.mean) and math.isfinite(combined.variance)
        assert max(first.mean, second.mean) <= combined.mean <= first.mean + second.mean

    def test_zero_probability_branch_is_a_plain_exponential(self):
        # The empty branch's moments would overflow (0 * inf is NaN) if kept.
        lopsided = HyperexponentialDistribution(probabilities=(1.0, 0.0), rates=(2.0, 1e-200))
        other = ErlangDistribution(shape=1, rate=3.0)
        mean, second_moment = _pair_maximum_moments(lopsided, other)
        assert mean == pytest.approx(1 / 2 + 1 / 3 - 1 / 5, rel=1e-12)
        assert second_moment == pytest.approx(2 / 4 + 2 / 9 - 2 / 25, rel=1e-12)

    def test_deterministic_zero_returns_the_erlang(self):
        erlang = ErlangDistribution(shape=7, rate=2.5)
        zero = DeterministicDistribution(0.0)
        for pair in ([zero, erlang], [erlang, zero]):
            combined = maximum_of(pair)
            assert combined.kind is DistributionKind.ERLANG
            assert combined.shape == erlang.shape
            assert combined.mean == pytest.approx(erlang.mean, rel=1e-12)
            assert combined.variance == pytest.approx(erlang.variance, rel=1e-12)

    def test_subclass_goes_through_the_quadrature(self):
        class TaggedErlang(ErlangDistribution):
            pass

        pair = [TaggedErlang(shape=3, rate=1.0), ErlangDistribution(shape=3, rate=1.0)]
        assert _pair_maximum_moments(*pair) is None
        combined = maximum_of(pair)
        reference = _scalar_maximum_of(pair)
        assert combined.mean == pytest.approx(reference.mean, rel=1e-12)
        assert combined.variance == pytest.approx(reference.variance, rel=1e-9)

    def test_pairs_match_high_precision_quadrature(self):
        mp = pytest.importorskip("mpmath")

        def cdf(distribution, t):
            if isinstance(distribution, DeterministicDistribution):
                return mp.mpf(t >= distribution.value)
            if isinstance(distribution, ErlangDistribution):
                return mp.gammainc(distribution.shape, 0, distribution.rate * t, regularized=True)
            return mp.fsum(
                p * -mp.expm1(-r * t)
                for p, r in zip(distribution.probabilities, distribution.rates)
            )

        def draw(rng):
            family = rng.choice(["erlang", "erlang", "hyper", "deterministic"])
            if family == "erlang":
                shape = rng.choice([1, 2, 7, 11, 43, 100])
                return ErlangDistribution(shape=shape, rate=rng.uniform(0.05, 5.0))
            if family == "hyper":
                return fit_distribution(rng.uniform(0.5, 20.0), rng.uniform(1.05, 3.0))
            return DeterministicDistribution(rng.uniform(0.0, 20.0))

        # This seed draws every pairing of the three families except two
        # point masses (which maximum_of answers without moments).
        rng = random.Random(2019)
        for first, second in [(draw(rng), draw(rng)) for _ in range(12)]:
            # Split the range at point masses and around each bulk.
            breaks = {0.0}
            for d in (first, second):
                breaks.update(max(d.mean + k * d.std, 0.0) for k in (0, 12))

            @functools.cache
            def survival(t, first=first, second=second):
                # Both integrals evaluate it on the same quadrature nodes.
                return 1 - cdf(first, t) * cdf(second, t)

            with mp.workdps(30):
                points = sorted(breaks) + [mp.inf]
                expected = (
                    mp.quad(survival, points),
                    mp.quad(lambda t, s=survival: 2 * t * s(t), points),
                )
            got = _pair_maximum_moments(first, second)
            for value, reference in zip(got, expected):
                assert abs(value - reference) <= 1e-13 * reference, (first, second)


class TestFitFromMoments:
    def test_matches_fit_distribution(self):
        fitted = fit_from_moments(10.0, 4.0)
        assert fitted.mean == pytest.approx(10.0, rel=1e-6)
        assert fitted.coefficient_of_variation == pytest.approx(math.sqrt(4.0) / 10.0, rel=0.2)

    def test_negative_variance_clamped(self):
        fitted = fit_from_moments(3.0, -1e-9)
        assert fitted.variance == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(DistributionError, match="mean must be finite"):
            fit_from_moments(bad, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_variance_rejected(self, bad):
        with pytest.raises(DistributionError, match="variance must be finite"):
            fit_from_moments(2.0, bad)
