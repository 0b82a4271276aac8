"""Tests for the iterative/ML-style workload profile.

The profile is registered through the public
:func:`repro.api.register_workload_profile` path, so these tests double as
coverage for custom-workload registration end to end: registry → scenario →
every backend.
"""

from __future__ import annotations

import pytest

from repro.api import WORKLOAD_PROFILES, Scenario, backend_names, create_backend
from repro.units import megabytes
from repro.workloads import iterative_profile, wordcount_profile

SMALL = Scenario(
    workload="iterative-ml",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=41,
)


class TestIterativeProfile:
    def test_registered_under_public_registry(self):
        assert WORKLOAD_PROFILES["iterative-ml"] is iterative_profile
        assert iterative_profile().name == "iterative-ml"

    def test_factory_honours_duration_cv(self):
        assert iterative_profile(0.15).duration_cv == 0.15

    def test_profile_shape_is_cpu_bound_and_low_selectivity(self):
        iterative = iterative_profile()
        wordcount = wordcount_profile()
        # ML iterations burn more CPU per input byte than WordCount...
        assert iterative.map_cpu_seconds_per_mib > wordcount.map_cpu_seconds_per_mib
        # ...but ship far smaller aggregates through the shuffle.
        assert iterative.map_output_ratio < wordcount.map_output_ratio
        assert iterative.reduce_output_ratio < wordcount.reduce_output_ratio

    def test_scenario_roundtrip(self):
        assert Scenario.from_json(SMALL.to_json()) == SMALL

    @pytest.mark.parametrize("name", backend_names())
    def test_every_backend_predicts_it(self, name):
        result = create_backend(name).predict(SMALL)
        assert result.total_seconds > 0
        assert all(seconds >= 0 for seconds in result.phases.values())

    def test_shuffle_lighter_than_wordcount(self):
        """Low selectivity must show up as a lighter shuffle-sort phase."""
        iterative = create_backend("mva-forkjoin").predict(SMALL)
        wordcount = create_backend("mva-forkjoin").predict(
            SMALL.with_updates(workload="wordcount")
        )
        assert iterative.phases["shuffle-sort"] < wordcount.phases["shuffle-sort"]

    def test_scenario_reconstructs_registered_profile(self):
        assert SMALL.profile() == iterative_profile()
