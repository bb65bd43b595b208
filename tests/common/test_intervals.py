"""Unit and property tests for busy-interval bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.common.intervals import (
    Interval,
    IntervalRecorder,
    merge_intervals,
    state_breakdown,
)


class TestInterval:
    def test_length(self):
        assert Interval(3, 10).length == 7

    def test_zero_length_is_falsy(self):
        assert not Interval(5, 5)
        assert Interval(5, 6)

    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            Interval(10, 3)

    def test_overlap_detection(self):
        assert Interval(0, 5).overlaps(Interval(4, 8))
        assert not Interval(0, 5).overlaps(Interval(5, 8))
        assert not Interval(6, 9).overlaps(Interval(0, 6))

    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 3).intersection(Interval(3, 9)) is None


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_disjoint_are_sorted(self):
        merged = merge_intervals([Interval(10, 12), Interval(0, 2)])
        assert merged == [Interval(0, 2), Interval(10, 12)]

    def test_overlapping_are_joined(self):
        merged = merge_intervals([Interval(0, 5), Interval(3, 8), Interval(8, 9)])
        assert merged == [Interval(0, 9)]

    def test_contained_intervals_collapse(self):
        merged = merge_intervals([Interval(0, 10), Interval(2, 3)])
        assert merged == [Interval(0, 10)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 100)).map(
                lambda t: Interval(t[0], t[0] + t[1])
            ),
            max_size=40,
        )
    )
    def test_merge_preserves_coverage(self, intervals):
        merged = merge_intervals(intervals)
        # Merged intervals are disjoint and sorted.
        for first, second in zip(merged, merged[1:]):
            assert first.end < second.start or first.end <= second.start
        # Every original cycle is covered by some merged interval.
        covered = set()
        for interval in merged:
            covered.update(range(interval.start, interval.end))
        original = set()
        for interval in intervals:
            original.update(range(interval.start, interval.end))
        assert covered == original
        assert sum(interval.length for interval in merged) == len(original)


class TestIntervalRecorder:
    def test_busy_time_merges_overlaps(self):
        recorder = IntervalRecorder("fu1")
        recorder.record(0, 10)
        recorder.record(5, 15)
        assert recorder.busy_time() == 15

    def test_zero_length_record_is_ignored(self):
        recorder = IntervalRecorder("fu1")
        recorder.record(4, 4)
        assert len(recorder) == 0

    def test_invalid_record_raises(self):
        recorder = IntervalRecorder("fu1")
        with pytest.raises(SimulationError):
            recorder.record(10, 2)


class TestStateBreakdown:
    def test_all_idle_when_no_intervals(self):
        fu2 = IntervalRecorder("FU2")
        fu1 = IntervalRecorder("FU1")
        ld = IntervalRecorder("LD")
        breakdown = state_breakdown([fu2, fu1, ld], total_cycles=100)
        assert breakdown.cycles_all_idle() == 100
        assert breakdown.cycles_in(True, True, True) == 0

    def test_three_unit_partition(self):
        fu2 = IntervalRecorder("FU2")
        fu1 = IntervalRecorder("FU1")
        ld = IntervalRecorder("LD")
        fu2.record(0, 10)
        fu1.record(5, 15)
        ld.record(0, 20)
        breakdown = state_breakdown([fu2, fu1, ld], total_cycles=25)
        assert breakdown.cycles_in(True, False, True) == 5    # [0, 5)
        assert breakdown.cycles_in(True, True, True) == 5     # [5, 10)
        assert breakdown.cycles_in(False, True, True) == 5    # [10, 15)
        assert breakdown.cycles_in(False, False, True) == 5   # [15, 20)
        assert breakdown.cycles_all_idle() == 5               # [20, 25)
        assert sum(breakdown.cycles.values()) == 25

    def test_resource_idle_cycles(self):
        fu2 = IntervalRecorder("FU2")
        ld = IntervalRecorder("LD")
        ld.record(0, 4)
        breakdown = state_breakdown([fu2, ld], total_cycles=10)
        assert breakdown.cycles_resource_idle("LD") == 6
        assert breakdown.cycles_resource_idle("FU2") == 10

    def test_fraction(self):
        fu2 = IntervalRecorder("FU2")
        fu2.record(0, 25)
        breakdown = state_breakdown([fu2], total_cycles=100)
        assert breakdown.fraction(True) == pytest.approx(0.25)

    def test_zero_total_cycles(self):
        breakdown = state_breakdown([IntervalRecorder("FU2")], total_cycles=0)
        assert breakdown.cycles == {}
        assert breakdown.fraction(True) == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 50)),
            min_size=0,
            max_size=20,
        ),
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 50)),
            min_size=0,
            max_size=20,
        ),
        st.integers(1, 300),
    )
    def test_breakdown_partitions_total_cycles(self, first, second, total_cycles):
        recorder_a = IntervalRecorder("A")
        recorder_b = IntervalRecorder("B")
        for start, length in first:
            recorder_a.record(start, start + length)
        for start, length in second:
            recorder_b.record(start, start + length)
        breakdown = state_breakdown([recorder_a, recorder_b], total_cycles)
        assert sum(breakdown.cycles.values()) == total_cycles
