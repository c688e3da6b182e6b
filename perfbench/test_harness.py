"""Tests of the shared timing helpers and the span arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest

from harness import (REFERENCE_S, Pacer, fastest_setup, fastest_total,
                     min_per_op, percentile, reference_loop, reference_s,
                     repeat_for, tail_percentile)
from spans import Span, Tracer, by_name, coverage, self_times


def span(name, start, end, parent=None, span_id=1):
    s = Span(name, start, parent, span_id)
    s.end = end
    return s


# -- percentiles -------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 50) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_p95_of_200_samples_has_ten_beyond():
    samples = [float(i) for i in range(200)]
    value = percentile(samples, 95)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_percentile_is_highest_with_ten_beyond():
    samples = [float(i) for i in range(320)]
    q, value, n = tail_percentile(samples)
    assert n == 320
    assert q == pytest.approx(96.875)
    assert sum(1 for s in samples if s > value) == 10
    # Any higher percentile leaves fewer than ten samples beyond it.
    higher = percentile(samples, q + 0.5)
    assert sum(1 for s in samples if s > higher) < 10


def test_tail_percentile_of_200_is_p95():
    q, value, _ = tail_percentile([float(i) for i in range(200)])
    assert q == pytest.approx(95.0)
    assert value == 189.0


def test_tail_percentile_needs_enough_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_min_per_op_takes_each_operation_minimum():
    assert min_per_op([[3, 1, 5], [2, 4, 6], [9, 9, 1]]) == [2, 1, 1]
    with pytest.raises(ValueError):
        min_per_op([[1, 2], [1]])


def test_min_per_op_charges_a_failure_at_any_repetition():
    assert min_per_op([[1.0, None, 2.0], [0.5, 0.1, None]],
                      penalty=30.0) == [0.5, 30.0, 30.0]


def test_fastest_total_sums_each_unit_fastest():
    # Three repetitions of three units: each unit's fastest is 1, 2, 1.
    assert fastest_total([[3.0, 2.0, 5.0], [1.0, 4.0, 6.0],
                          [2.0, 9.0, 1.0]]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        fastest_total([[1.0, 2.0], [1.0]])


def test_repeat_for_runs_at_least_min_reps():
    calls = []
    assert repeat_for(0.0, calls.append, min_reps=3) == 3
    assert calls == [0, 1, 2]


def test_repeat_for_stops_before_a_call_that_would_not_fit(monkeypatch):
    import harness

    clock = iter(range(0, 1000, 4))  # every clock read is 4 s later
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    calls = []
    # Each call takes 4 s and each check reads the clock 4 s later. At
    # the check at 24 s a third call is expected to end at 28 s, within
    # 30; at the check at 36 s a fourth would end past it.
    assert repeat_for(30.0, calls.append, min_reps=1) == 3


def test_reference_s_scales_by_the_fastest_reference():
    # The loop ran in 2x and 4x its nominal time: the host ran at half
    # speed at best, so 1 s of wall time is 0.5 reference seconds.
    assert reference_s(1.0, 2 * REFERENCE_S, 4 * REFERENCE_S) == pytest.approx(0.5)
    assert reference_s(3.0, REFERENCE_S) == pytest.approx(3.0)


def test_pacer_times_units_between_reference_runs(monkeypatch):
    import harness

    # Each boundary reads the clock before and after its reference run.
    clock = iter([0.0, 1.0, 5.0, 6.0, 7.0, 8.0, 10.0, 11.0])
    references = iter([2 * REFERENCE_S, REFERENCE_S,
                       REFERENCE_S / 2, REFERENCE_S])
    monkeypatch.setattr(harness, "reference_run", lambda: next(references))
    pacer = Pacer(lambda: next(clock))
    pacer.boundary()  # the unit starts at 1
    pacer.stop()      # ends at 5: 4 s, the faster reference at 1x
    pacer.boundary()  # a fresh unit starts at 8; 6-7 is no unit's
    pacer.stop()      # ends at 10: 2 s on a host twice as fast
    assert pacer.units == pytest.approx([4.0, 4.0])


def test_reference_loop_is_fixed():
    assert reference_loop() == reference_loop() == 250


def test_fastest_setup_keeps_the_last_and_undoes_the_rest():
    took = [5.0, 1.0, 3.0]
    undone = []
    made, best = fastest_setup(
        lambda attempt: (f"state-{attempt}", took[attempt]),
        undone.append, times=3,
    )
    assert made == "state-2"
    assert undone == ["state-0", "state-1"]
    assert best == 1.0


# -- self time -----------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    root = span("engine.run", 0.0, 10.0)
    child = span("core.schedule", 1.0, 5.0, root)
    grandchild = span("core.view_build", 2.0, 3.0, child)
    sibling = span("slurm.order", 6.0, 7.5, root)
    own = self_times([root, child, grandchild, sibling])
    assert own[id(root)] == pytest.approx(10.0 - 4.0 - 1.5)
    assert own[id(child)] == pytest.approx(4.0 - 1.0)
    assert own[id(grandchild)] == pytest.approx(1.0)
    assert own[id(sibling)] == pytest.approx(1.5)
    assert sum(own.values()) == pytest.approx(root.duration)


def test_by_name_counts_nested_same_name_once_in_total():
    outer = span("core.schedule", 0.0, 4.0)
    inner = span("core.schedule", 1.0, 3.0, outer)
    rows = by_name([outer, inner])
    assert rows["core.schedule"]["calls"] == 2
    assert rows["core.schedule"]["total_s"] == pytest.approx(4.0)
    assert rows["core.schedule"]["self_s"] == pytest.approx(4.0)


def test_coverage_leaves_out_the_root_self_time():
    root = span("archive.window", 0.0, 8.0)
    run = span("engine.run", 1.0, 5.0, root)
    schedule = span("core.schedule", 2.0, 3.0, run)
    spans = [root, run, schedule, span("snapshot.write", 6.0, 7.0, root)]
    # The window's own 3 s (0-1, 5-6, 7-8) belong to no traced layer.
    assert coverage(spans, "archive.window") == pytest.approx(5.0 / 8.0)
    # Under engine.run, its own 3 s are the gap; core.schedule covers 1.
    assert coverage(spans, "engine.run") == pytest.approx(1.0 / 4.0)
    assert coverage(spans, "service.submit") == 0.0


def test_coverage_is_one_when_children_fill_the_root():
    root = span("engine.run", 0.0, 4.0)
    spans = [root, span("slurm.pass", 0.0, 3.0, root),
             span("slurm.on_submit", 3.0, 4.0, root)]
    assert coverage(spans, "engine.run") == pytest.approx(1.0)


def test_tracer_records_parents_ids_and_counts(tmp_path):
    class Layer:
        def outer(self, n):
            return len(self.inner(n))

        def inner(self, n):
            return list(range(n))

    tracer = Tracer()
    tracer.patch(Layer, "outer", "a.outer",
                 lambda args, kwargs, result, before: {"n": result})
    tracer.patch(Layer, "inner", "a.inner",
                 lambda args, kwargs, result, before: {"len": len(result)})
    layer = Layer()
    try:
        layer.outer(3)
        layer.outer(2)
    finally:
        tracer.restore()
    assert Layer.outer.__name__ == "outer" and len(tracer.spans) == 4
    first_outer, first_inner, second_outer, second_inner = tracer.spans
    assert first_inner.parent is first_outer and first_outer.parent is None
    assert first_inner.id == first_outer.id != second_outer.id
    assert first_inner.counts == {"len": 3} and second_inner.counts == {"len": 2}
    assert first_outer.start <= first_inner.start <= first_inner.end
    assert first_inner.end <= first_outer.end
    # Restored: further calls record nothing.
    layer.outer(1)
    assert len(tracer.spans) == 4
    tracer.dump(tmp_path / "spans.json.gz")
    with gzip.open(tmp_path / "spans.json.gz", "rt") as handle:
        rows = json.load(handle)["spans"]
    assert [row["parent"] for row in rows] == [None, 0, None, 2]
    assert rows[1]["counts"] == {"len": 3}


# -- the benchmark definition --------------------------------------------
def test_benchmark_json_matches_the_harness():
    from layers import LAYER_METRICS
    from run import END_TO_END, THROUGHPUT

    doc = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in doc["workloads"]] == list(THROUGHPUT)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_METRICS
