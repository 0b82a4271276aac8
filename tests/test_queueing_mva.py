"""Tests for the MVA solvers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, ModelError
from repro.queueing import (
    CenterKind,
    ClosedNetwork,
    OverlapFactors,
    ServiceCenter,
    ServiceDemand,
    forkjoin_response_time,
    harmonic_number,
    solve_mva_approximate,
    solve_mva_exact,
    solve_mva_with_overlaps,
)


def single_class_network(population: int, demand: float = 2.0, think: float = 0.0) -> ClosedNetwork:
    return ClosedNetwork(
        centers=[ServiceCenter(name="cpu")],
        class_names=["task"],
        populations=[population],
        demands=[ServiceDemand("task", "cpu", demand)],
        think_times=[think],
    )


def two_class_network() -> ClosedNetwork:
    return ClosedNetwork(
        centers=[ServiceCenter(name="cpu"), ServiceCenter(name="disk")],
        class_names=["map", "reduce"],
        populations=[3, 2],
        demands=[
            ServiceDemand("map", "cpu", 1.0),
            ServiceDemand("map", "disk", 0.5),
            ServiceDemand("reduce", "cpu", 0.6),
            ServiceDemand("reduce", "disk", 1.2),
        ],
    )


class TestNetworkValidation:
    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ClosedNetwork(
                centers=[ServiceCenter(name="cpu")],
                class_names=["a", "a"],
                populations=[1, 1],
            )

    def test_population_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ClosedNetwork(
                centers=[ServiceCenter(name="cpu")],
                class_names=["a"],
                populations=[1, 2],
            )

    def test_unknown_demand_class_rejected(self):
        with pytest.raises(ConfigurationError):
            ClosedNetwork(
                centers=[ServiceCenter(name="cpu")],
                class_names=["a"],
                populations=[1],
                demands=[ServiceDemand("b", "cpu", 1.0)],
            )

    def test_demand_matrix_and_servers(self):
        network = two_class_network()
        matrix = network.demand_matrix()
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == pytest.approx(1.0)
        assert list(network.server_vector()) == [1.0, 1.0]


class TestExactMVA:
    def test_single_customer_has_no_queueing(self):
        solution = solve_mva_exact(single_class_network(1, demand=2.0))
        assert solution.response_time("task") == pytest.approx(2.0)
        assert solution.throughput("task") == pytest.approx(0.5)

    def test_response_time_grows_with_population(self):
        responses = [
            solve_mva_exact(single_class_network(n)).response_time("task")
            for n in (1, 2, 4, 8)
        ]
        assert all(b > a for a, b in zip(responses, responses[1:]))

    def test_asymptotic_response_single_server(self):
        # With N customers at a single queueing center, R -> N * D.
        solution = solve_mva_exact(single_class_network(20, demand=1.0))
        assert solution.response_time("task") == pytest.approx(20.0, rel=1e-6)

    def test_delay_center_never_queues(self):
        network = ClosedNetwork(
            centers=[ServiceCenter(name="think", kind=CenterKind.DELAY)],
            class_names=["task"],
            populations=[10],
            demands=[ServiceDemand("task", "think", 3.0)],
        )
        solution = solve_mva_exact(network)
        assert solution.response_time("task") == pytest.approx(3.0)

    def test_utilization_below_one(self):
        solution = solve_mva_exact(two_class_network())
        for center in ("cpu", "disk"):
            column = solution.center_names.index(center)
            assert solution.utilizations[:, column].sum() <= 1.0 + 1e-9

    def test_population_guard(self):
        network = ClosedNetwork(
            centers=[ServiceCenter(name="cpu")],
            class_names=[f"c{i}" for i in range(8)],
            populations=[9] * 8,
            demands=[ServiceDemand(f"c{i}", "cpu", 1.0) for i in range(8)],
        )
        with pytest.raises(ModelError):
            solve_mva_exact(network)


class TestApproximateMVA:
    def test_matches_exact_for_single_class(self):
        for population in (1, 3, 6, 10):
            network = single_class_network(population, demand=1.5)
            exact = solve_mva_exact(network).response_time("task")
            approx = solve_mva_approximate(network).response_time("task")
            assert approx == pytest.approx(exact, rel=0.08)

    def test_matches_exact_for_two_classes(self):
        network = two_class_network()
        exact = solve_mva_exact(network)
        approx = solve_mva_approximate(network)
        for name in ("map", "reduce"):
            assert approx.response_time(name) == pytest.approx(
                exact.response_time(name), rel=0.12
            )

    def test_empty_class_is_ignored(self):
        network = ClosedNetwork(
            centers=[ServiceCenter(name="cpu")],
            class_names=["busy", "idle"],
            populations=[3, 0],
            demands=[
                ServiceDemand("busy", "cpu", 1.0),
                ServiceDemand("idle", "cpu", 1.0),
            ],
        )
        solution = solve_mva_approximate(network)
        assert solution.throughput("idle") == 0.0
        assert solution.response_time("busy") > 0

    def test_multi_server_center_reduces_queueing(self):
        def build(servers):
            return ClosedNetwork(
                centers=[ServiceCenter(name="cpu", servers=servers)],
                class_names=["task"],
                populations=[8],
                demands=[ServiceDemand("task", "cpu", 1.0)],
            )

        single = solve_mva_approximate(build(1)).response_time("task")
        quad = solve_mva_approximate(build(4)).response_time("task")
        assert quad < single

    @given(
        population=st.integers(min_value=1, max_value=30),
        demand=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_response_bounds(self, population, demand):
        solution = solve_mva_approximate(single_class_network(population, demand))
        response = solution.response_time("task")
        # Response is at least the service demand and at most N * demand.
        assert response >= demand - 1e-9
        assert response <= population * demand + 1e-6


class TestOverlapMVA:
    def test_full_overlap_matches_plain_approximation(self):
        network = two_class_network()
        plain = solve_mva_approximate(network)
        full = solve_mva_with_overlaps(
            network, OverlapFactors.uniform(network.class_names, 1.0)
        )
        for name in ("map", "reduce"):
            assert full.response_time(name) == pytest.approx(
                plain.response_time(name), rel=1e-6
            )

    def test_zero_overlap_removes_queueing(self):
        network = two_class_network()
        none = solve_mva_with_overlaps(
            network, OverlapFactors.uniform(network.class_names, 0.0)
        )
        demands = network.demand_matrix()
        assert none.response_time("map") == pytest.approx(float(demands[0].sum()))
        assert none.response_time("reduce") == pytest.approx(float(demands[1].sum()))

    def test_overlap_monotonicity(self):
        network = two_class_network()
        responses = [
            solve_mva_with_overlaps(
                network, OverlapFactors.uniform(network.class_names, value)
            ).response_time("map")
            for value in (0.0, 0.5, 1.0)
        ]
        assert responses[0] <= responses[1] <= responses[2]

    def test_class_name_mismatch_rejected(self):
        network = two_class_network()
        with pytest.raises(ConfigurationError):
            solve_mva_with_overlaps(network, OverlapFactors.uniform(("x", "y"), 1.0))

    def test_multiple_jobs_increase_contention(self):
        network = two_class_network()
        factors = OverlapFactors(
            class_names=tuple(network.class_names),
            intra_job=np.full((2, 2), 0.4),
            inter_job=np.full((2, 2), 0.9),
        )
        one = solve_mva_with_overlaps(network, factors, jobs_in_system=1)
        four = solve_mva_with_overlaps(network, factors, jobs_in_system=4)
        assert four.response_time("map") >= one.response_time("map")

    @given(
        intra=st.floats(min_value=0.0, max_value=1.0),
        inter=st.floats(min_value=0.0, max_value=1.0),
        jobs=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_vectorised_fixed_point_matches_reference_loop(self, intra, inter, jobs):
        """The solver's Schweitzer step must equal the per-element reference.

        Re-implements one overlap-weighted Schweitzer residence update with
        explicit Python loops and compares it against the converged solver
        state, which must be a fixed point of that reference step.
        """
        network = two_class_network()
        factors = OverlapFactors(
            class_names=tuple(network.class_names),
            intra_job=np.full((2, 2), intra),
            inter_job=np.full((2, 2), inter),
        )
        solution = solve_mva_with_overlaps(network, factors, jobs_in_system=jobs)
        demands = network.demand_matrix()
        queueing = network.queueing_mask()
        servers = network.server_vector()
        population = network.population_vector().astype(float)
        think = network.think_time_vector()
        weights = factors.combined(jobs)
        queue = np.asarray(solution.queue_lengths)
        num_classes, num_centers = demands.shape

        residence = np.zeros_like(demands)
        for c in range(num_classes):
            if population[c] <= 0:
                continue
            own_correction = (population[c] - 1.0) / population[c]
            for k in range(num_centers):
                if not queueing[k]:
                    residence[c, k] = demands[c, k]
                    continue
                seen = 0.0
                for j in range(num_classes):
                    correction = own_correction if j == c else 1.0
                    seen += weights[c, j] * correction * queue[j, k]
                excess = max(0.0, seen - (servers[k] - 1.0))
                residence[c, k] = demands[c, k] * (1.0 + excess / servers[k])
        totals = think + residence.sum(axis=1)
        throughput = np.where(totals > 0, population / np.where(totals > 0, totals, 1.0), 0.0)
        reference_queue = residence * throughput[:, None]

        assert np.allclose(residence, solution.residence_times, atol=1e-6)
        assert np.allclose(reference_queue, queue, atol=1e-6)


class TestOverlapFactors:
    def test_uniform(self):
        factors = OverlapFactors.uniform(("a", "b"), 0.5)
        assert factors.intra_job.shape == (2, 2)
        assert float(factors.intra_job.max()) == pytest.approx(0.5)

    def test_combined_single_job_is_intra(self):
        factors = OverlapFactors(
            class_names=("a", "b"),
            intra_job=np.array([[0.2, 0.3], [0.1, 0.4]]),
            inter_job=np.array([[0.9, 0.9], [0.9, 0.9]]),
        )
        assert np.allclose(factors.combined(1), factors.intra_job)

    def test_combined_mixes_with_jobs(self):
        factors = OverlapFactors(
            class_names=("a",),
            intra_job=np.array([[0.0]]),
            inter_job=np.array([[1.0]]),
        )
        assert factors.combined(2)[0, 0] == pytest.approx(0.5)
        assert factors.combined(4)[0, 0] == pytest.approx(0.75)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlapFactors(
                class_names=("a", "b"),
                intra_job=np.zeros((1, 1)),
                inter_job=np.zeros((2, 2)),
            )


class TestForkJoin:
    def test_harmonic_number(self):
        assert harmonic_number(1) == pytest.approx(1.0)
        assert harmonic_number(2) == pytest.approx(1.5)
        assert harmonic_number(4) == pytest.approx(1.0 + 0.5 + 1 / 3 + 0.25)

    def test_harmonic_number_invalid(self):
        with pytest.raises(ModelError):
            harmonic_number(0)

    def test_forkjoin_single_branch_identity(self):
        assert forkjoin_response_time([5.0]) == pytest.approx(5.0)

    def test_forkjoin_two_branches(self):
        assert forkjoin_response_time([4.0, 2.0]) == pytest.approx(6.0)

    def test_forkjoin_negative_rejected(self):
        with pytest.raises(ModelError):
            forkjoin_response_time([1.0, -2.0])

    @given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_forkjoin_monotone_in_children(self, values):
        base = forkjoin_response_time(values)
        bumped = forkjoin_response_time([value + 1.0 for value in values])
        assert bumped >= base
        assert base >= max(values)
