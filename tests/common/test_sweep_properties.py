"""Brute-force checks of the one-sweep result metrics.

``state_breakdown`` and :meth:`OccupancyTimeline.summary` compute per-cycle
statistics from interval endpoints in a single sweep.  These properties
recount the same statistics the slow way — cycle by cycle — over random
interval and residency sets and demand exact equality: the full
pattern → cycles dict of the breakdown (in first-occurrence order), and the
occupancy histogram, peak and mean.
"""

from hypothesis import given, strategies as st

from repro.common.intervals import IntervalRecorder, idle_cycles, state_breakdown
from repro.common.timeline import OccupancyTimeline

#: (start, length) pairs; zero lengths exercise the recorders' ignore rule.
SPANS = st.lists(st.tuples(st.integers(0, 120), st.integers(0, 30)), max_size=25)


def _covered(spans, cycle):
    return sum(1 for start, length in spans if start <= cycle < start + length)


@given(st.lists(SPANS, min_size=1, max_size=4), st.integers(0, 160), st.integers(0, 25))
def test_state_breakdown_equals_a_per_cycle_count(resources, total_cycles, split):
    recorders = [IntervalRecorder(f"R{index}") for index in range(len(resources))]
    for recorder, spans in zip(recorders, resources):
        for start, length in spans[:split]:
            recorder.record(start, start + length)
        # Reading the merge between records must not leave a stale cache.
        recorder.busy_time()
        for start, length in spans[split:]:
            recorder.record(start, start + length)

    expected = {}
    for cycle in range(total_cycles):
        pattern = tuple(_covered(spans, cycle) > 0 for spans in resources)
        expected[pattern] = expected.get(pattern, 0) + 1

    breakdown = state_breakdown(recorders, total_cycles)
    assert breakdown.cycles == expected
    assert list(breakdown.cycles) == list(expected)
    assert idle_cycles(recorders, total_cycles) == expected.get((False,) * len(resources), 0)
    for recorder, spans in zip(recorders, resources):
        horizon = max((start + length for start, length in spans), default=0)
        assert recorder.busy_time() == sum(
            1 for cycle in range(horizon) if _covered(spans, cycle)
        )


@given(SPANS, st.integers(0, 200))
def test_occupancy_summary_equals_a_per_cycle_count(spans, total_cycles):
    timeline = OccupancyTimeline("Q")
    for start, length in spans:
        timeline.record(start, start + length)

    levels = [_covered(spans, cycle) for cycle in range(total_cycles)]
    expected_histogram = {}
    for level in levels:
        expected_histogram[level] = expected_histogram.get(level, 0) + 1
    horizon = max((start + length for start, length in spans), default=0)
    expected_peak = max((_covered(spans, cycle) for cycle in range(horizon)), default=0)
    expected_mean = sum(levels) / total_cycles if total_cycles > 0 else 0.0

    summary = timeline.summary(total_cycles)
    assert dict(summary.histogram.items()) == expected_histogram
    assert summary.max_occupancy == expected_peak == timeline.max_occupancy()
    assert summary.mean_occupancy == expected_mean == timeline.mean_occupancy(total_cycles)
    assert dict(timeline.occupancy_histogram(total_cycles).items()) == expected_histogram
