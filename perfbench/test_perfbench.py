"""Self-tests of the benchmark's own logic (run with ``PYTHONPATH=src pytest``)."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from calibration import REFERENCE_S, kernel_seconds, scaled
from measure import Tally, tail, tail_percentile
from run import END_TO_END, per_layer_specs
from tracing import SpanRecorder, all_targets, covered, install, summarize

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# -- self time -------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert covered([(-5.0, 2.0), (9.0, 15.0)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        (1, 0, "root", 0.0, 10.0, 1),
        (2, 1, "child", 1.0, 4.0, 1),
        (3, 2, "grandchild", 2.0, 3.0, 1),
        (4, 1, "child", 5.0, 6.0, 1),
        (5, 0, "root", 20.0, 22.0, 1),
    ]
    summary = summarize(spans)
    assert summary["root"] == {"calls": 2, "total_s": 12.0, "self_s": 8.0}
    assert summary["child"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["grandchild"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_recorder_links_nested_calls_and_counts_distinct_inputs():
    recorder = SpanRecorder()

    def inner(value):
        return value

    wrapped_inner = recorder.wrap("inner", inner, key=lambda value: value)
    outer = recorder.wrap("outer", lambda: [wrapped_inner(1), wrapped_inner(1), wrapped_inner(2)])
    assert outer() == [1, 1, 2]
    by_name = {}
    for span_id, parent, name, start, end, _ in recorder.spans:
        by_name.setdefault(name, []).append((span_id, parent))
        assert end >= start
    (outer_id, outer_parent), = by_name["outer"]
    assert outer_parent == 0
    assert [parent for _, parent in by_name["inner"]] == [outer_id] * 3
    assert recorder.distinct["inner"] == {1, 2}


def test_install_wraps_every_target_and_restores_the_originals():
    targets = all_targets()
    originals = []
    for target in targets:
        owner = importlib.import_module(target.module)
        *path, attribute = target.attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals.append((owner, attribute, vars(owner).get(attribute)))
    restore = install(SpanRecorder(), targets)
    try:
        for owner, attribute, original in originals:
            assert vars(owner)[attribute] is not original
    finally:
        restore()
    for owner, attribute, original in originals:
        assert vars(owner).get(attribute) is original


# -- percentiles -----------------------------------------------------------------


@pytest.mark.parametrize(
    ("count", "expected"),
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_falls_back_to_the_maximum_for_few_samples():
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max")
    assert tail([float(v) for v in range(101)]) == (90.0, "p90")


def test_scaled_times_read_as_on_the_reference_host():
    # A host twice as slow as the reference doubles both the kernel and the
    # operation: the scaled time is the reference host's.
    slow = [2 * REFERENCE_S, 2 * REFERENCE_S]
    assert scaled(3.0, slow) == pytest.approx(1.5)
    assert scaled(3.0, [REFERENCE_S]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        scaled(1.0, [])
    assert kernel_seconds() > 0.0


# -- error accounting --------------------------------------------------------------


def test_tally_counts_failed_refused_and_wrong_as_errors():
    tally = Tally()
    for outcome in ("ok", "ok", "failed", "refused", "wrong", "ok", "ok", "ok"):
        tally.add(outcome)
    assert (tally.attempted, tally.failed, tally.refused, tally.wrong) == (8, 1, 1, 1)
    assert tally.errors == 3
    assert tally.error_ratio == 3 / 8
    with pytest.raises(ValueError):
        tally.add("lost")


# -- the declared metrics match what the benchmark reports -------------------------


def test_benchmark_json_declares_exactly_the_reported_metrics():
    declared = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == (
        per_layer_specs()
    )
