"""Busy-interval bookkeeping for the one-pass simulators.

The reference and decoupled simulators do not step cycle by cycle: their
tick cores make one pass over the trace, folding each issue cycle out of a
running ``max``.  Instead of a per-cycle state, each hardware resource
(functional unit, memory port, queue slot) records the half-open intervals
``[start, end)`` during which it was occupied.  The functions here merge,
intersect and measure those intervals so that per-cycle statistics — such as
the eight-state execution breakdown of Figure 1 — can be recovered exactly,
in one sweep over the interval endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence

from repro.common.errors import SimulationError


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open interval ``[start, end)`` measured in cycles."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(
                f"interval end ({self.end}) precedes start ({self.start})"
            )

    @property
    def length(self) -> int:
        """Number of cycles covered by the interval."""
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """Return ``True`` when the two intervals share at least one cycle."""
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "Interval") -> "Interval | None":
        """Return the overlapping part of the two intervals, or ``None``."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return Interval(start, end)

    def __bool__(self) -> bool:
        return self.length > 0


class IntervalRecorder:
    """Accumulates busy intervals for one resource.

    The recorder accepts intervals in any order and tolerates overlapping
    pushes (overlaps are merged when the intervals are read back).  It is the
    building block used by the simulators to describe functional-unit and
    memory-port occupancy.

    Intervals are stored as two parallel integer lists, ``starts`` and
    ``ends``.  The tick loops append to them directly (every interval they
    record is at least one cycle long); :meth:`record` is the checked form.
    Readers work from the sorted starts and sorted ends, computed once and
    kept until the next :meth:`record`: a set of half-open intervals covers
    ``[starts[0], ends[-1])`` except the gaps ``[ends[k - 1], starts[k])``
    where ``starts[k] > ends[k - 1]``, so busy time and the merged pieces
    need no pairwise merge.  Direct appends must happen before the recorder
    is first read.
    """

    __slots__ = ("name", "starts", "ends", "_bounds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._bounds: tuple[list[int], list[int]] | None = None

    def record(self, start: int, end: int) -> None:
        """Record that the resource was busy over ``[start, end)``.

        Zero-length intervals are ignored so callers do not need to special
        case instructions that occupy a unit for zero cycles (for example a
        vector instruction with vector length zero).
        """
        if end > start:
            self.starts.append(start)
            self.ends.append(end)
            self._bounds = None
        elif end < start:
            raise SimulationError(
                f"resource {self.name!r}: busy interval ends ({end}) before it starts ({start})"
            )

    def record_all(self, other: "IntervalRecorder") -> None:
        """Record every interval another recorder holds (e.g. one unit of a pool)."""
        self.starts.extend(other.starts)
        self.ends.extend(other.ends)
        self._bounds = None

    @property
    def raw_intervals(self) -> Sequence[Interval]:
        """The intervals exactly as recorded (possibly overlapping)."""
        return tuple(
            Interval(start, end) for start, end in zip(self.starts, self.ends)
        )

    def sorted_bounds(self) -> tuple[list[int], list[int]]:
        """The recorded starts and ends, each sorted on its own (cached)."""
        bounds = self._bounds
        if bounds is None:
            bounds = self._bounds = (sorted(self.starts), sorted(self.ends))
        return bounds

    def merged_pairs(self) -> list[tuple[int, int]]:
        """The recorded intervals merged into disjoint sorted (start, end) pairs.

        Touching intervals merge too, so consecutive pairs are separated by
        at least one idle cycle.
        """
        starts, ends = self.sorted_bounds()
        pairs = []
        if starts:
            first = starts[0]
            for index in range(1, len(starts)):
                if starts[index] > ends[index - 1]:
                    pairs.append((first, ends[index - 1]))
                    first = starts[index]
            pairs.append((first, ends[-1]))
        return pairs

    def merged(self) -> list[Interval]:
        """Return the recorded intervals merged into disjoint, sorted pieces."""
        return [Interval(start, end) for start, end in self.merged_pairs()]

    def busy_time(self) -> int:
        """Total number of distinct cycles during which the resource was busy."""
        return _covered_cycles(*self.sorted_bounds())

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.raw_intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalRecorder(name={self.name!r}, intervals={len(self.starts)})"


def _covered_cycles(starts: list[int], ends: list[int]) -> int:
    """Cycles covered by the intervals whose sorted starts and ends are given."""
    if not starts:
        return 0
    gaps = 0
    for end, start in zip(ends, islice(starts, 1, None)):
        if start > end:
            gaps += start - end
    return ends[-1] - starts[0] - gaps


def idle_cycles(recorders: Sequence[IntervalRecorder], total_cycles: int) -> int:
    """Cycles of ``[0, total_cycles)`` during which every recorder is idle.

    ``total_cycles`` less the size of the union of every recorded interval,
    clipped to the run, from one sort of the recorders' sorted bounds (which
    are runs, so the sort merges them).  It equals
    ``state_breakdown(recorders, total_cycles).cycles_all_idle()`` without
    the per-pattern sweep, and leaves each recorder's sorted bounds cached
    for its :meth:`~IntervalRecorder.busy_time`.
    """
    if total_cycles <= 0:
        return 0
    starts: list[int] = []
    ends: list[int] = []
    for recorder in recorders:
        recorder_starts, recorder_ends = recorder.sorted_bounds()
        starts += recorder_starts
        ends += recorder_ends
    if not starts:
        return total_cycles
    starts.sort()
    ends.sort()
    if starts[0] < 0 or ends[-1] > total_cycles:
        # Clipping is monotone, so the bounds stay sorted.
        starts = [min(max(start, 0), total_cycles) for start in starts]
        ends = [min(max(end, 0), total_cycles) for end in ends]
    return total_cycles - _covered_cycles(starts, ends)


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Merge possibly-overlapping intervals into disjoint sorted intervals."""
    ordered = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    merged: list[Interval] = []
    for interval in ordered:
        if interval.length == 0:
            continue
        if merged and interval.start <= merged[-1].end:
            previous = merged[-1]
            if interval.end > previous.end:
                merged[-1] = Interval(previous.start, interval.end)
        else:
            merged.append(interval)
    return merged


@dataclass
class StateBreakdown:
    """Cycles spent in each combination of busy resources.

    The paper describes the reference machine with a 3-tuple
    ``(FU2, FU1, LD)`` and partitions execution time into the eight possible
    busy/idle combinations.  :func:`state_breakdown` computes this partition
    for an arbitrary number of resources; keys are tuples of booleans in the
    order the recorders were supplied.
    """

    resource_names: tuple[str, ...]
    cycles: dict[tuple[bool, ...], int] = field(default_factory=dict)
    total_cycles: int = 0

    def cycles_in(self, *busy: bool) -> int:
        """Cycles spent with exactly the given busy pattern."""
        return self.cycles.get(tuple(busy), 0)

    def cycles_all_idle(self) -> int:
        """Cycles spent with every resource idle — the paper's ``( , , )`` state."""
        return self.cycles_in(*([False] * len(self.resource_names)))

    def cycles_resource_idle(self, name: str) -> int:
        """Total cycles during which the named resource was idle."""
        index = self.resource_names.index(name)
        return sum(
            count for pattern, count in self.cycles.items() if not pattern[index]
        )

    def fraction(self, *busy: bool) -> float:
        """Fraction of total cycles spent with the given busy pattern."""
        if self.total_cycles == 0:
            return 0.0
        return self.cycles_in(*busy) / self.total_cycles


def state_breakdown(
    recorders: Sequence[IntervalRecorder], total_cycles: int
) -> StateBreakdown:
    """Partition ``[0, total_cycles)`` by which resources are busy.

    One sweep over the merged interval endpoints: resource ``i`` owns bit
    ``i`` of a busy mask, every clipped endpoint toggles its bit, and the
    cycles between consecutive endpoints go to the current mask.  The cost is
    proportional to the number of recorded intervals rather than to the
    number of cycles simulated.  Patterns appear in the result in the order
    the sweep first meets them.
    """
    names = tuple(recorder.name for recorder in recorders)
    result = StateBreakdown(resource_names=names, total_cycles=total_cycles)
    if total_cycles <= 0:
        return result

    # Endpoints encoded as ``cycle << shift | resource`` sort by cycle with
    # plain integer comparisons.  Merged pairs never touch, so a resource's
    # bit toggles at most once per cycle.
    shift = max(len(recorders) - 1, 1).bit_length()
    low = (1 << shift) - 1
    endpoints = []
    for resource, recorder in enumerate(recorders):
        for start, end in recorder.merged_pairs():
            if start < 0:
                start = 0
            if end > total_cycles:
                end = total_cycles
            if start < end:
                endpoints.append(start << shift | resource)
                endpoints.append(end << shift | resource)
    endpoints.sort()

    counts: dict[int, int] = {}
    mask = 0
    previous = 0
    for endpoint in endpoints:
        cycle = endpoint >> shift
        if cycle > previous:
            counts[mask] = counts.get(mask, 0) + cycle - previous
            previous = cycle
        mask ^= 1 << (endpoint & low)
    if previous < total_cycles:
        counts[mask] = counts.get(mask, 0) + total_cycles - previous

    bits = range(len(recorders))
    result.cycles = {
        tuple(bool(mask >> bit & 1) for bit in bits): cycles
        for mask, cycles in counts.items()
    }
    return result
