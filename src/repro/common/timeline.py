"""Occupancy timelines for queues.

Figure 6 of the paper plots, for each benchmark, how many cycles the AVDQ
(the vector load data queue) held 0, 1, 2, ... busy slots.  The decoupled
simulator records one ``(enter, leave)`` pair per queue element; the
:class:`OccupancyTimeline` sweeps those events once to reconstruct the
per-cycle occupancy histogram, the peak occupancy and the mean occupancy
together, without stepping cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.common.errors import SimulationError
from repro.common.stats import Histogram


@dataclass(frozen=True)
class Residency:
    """The lifetime of one element inside a queue: ``[enter, leave)``."""

    enter: int
    leave: int

    def __post_init__(self) -> None:
        if self.leave < self.enter:
            raise SimulationError(
                f"queue element leaves ({self.leave}) before it enters ({self.enter})"
            )


class OccupancyTimeline:
    """Records element residencies of a bounded queue and derives statistics.

    Residencies live in two parallel integer lists (one entry per queue
    element, recorded at simulation wind-down for every element of every
    queue); :class:`Residency` views are materialized only on request.
    """

    __slots__ = ("name", "capacity", "_enters", "_leaves")

    def __init__(
        self,
        name: str,
        capacity: int | None = None,
        enters: list[int] | None = None,
        leaves: list[int] | None = None,
    ) -> None:
        """``enters``/``leaves`` seed the timeline with residencies that are
        already checked (each ``leave > enter``); the lists are taken as-is."""
        self.name = name
        self.capacity = capacity
        self._enters: list[int] = enters if enters is not None else []
        self._leaves: list[int] = leaves if leaves is not None else []

    def record(self, enter: int, leave: int) -> None:
        """Record that one element occupied a slot during ``[enter, leave)``."""
        if leave > enter:
            self._enters.append(enter)
            self._leaves.append(leave)
        elif leave < enter:
            raise SimulationError(
                f"queue element leaves ({leave}) before it enters ({enter})"
            )

    @property
    def residencies(self) -> tuple[Residency, ...]:
        return tuple(
            Residency(enter, leave)
            for enter, leave in zip(self._enters, self._leaves)
        )

    def occupancy_histogram(self, total_cycles: int) -> Histogram:
        """Cycles spent at each occupancy level over ``[0, total_cycles)``."""
        return self.summary(total_cycles).histogram

    def max_occupancy(self) -> int:
        """The largest number of simultaneously-resident elements ever observed."""
        return self.summary(0).max_occupancy

    def mean_occupancy(self, total_cycles: int) -> float:
        """Time-weighted mean number of busy slots over ``[0, total_cycles)``."""
        return self.summary(total_cycles).mean_occupancy

    def summary(self, total_cycles: int) -> "OccupancySummary":
        """Histogram, peak and mean occupancy from one sweep over the residencies."""
        histogram, peak = _sweep(self._enters, self._leaves, total_cycles)
        mean = 0.0
        if total_cycles > 0:
            weighted = sum(level * cycles for level, cycles in histogram.items())
            mean = weighted / total_cycles
        return OccupancySummary(histogram, peak, mean)

    def __len__(self) -> int:
        return len(self._enters)


@dataclass(frozen=True)
class OccupancySummary:
    """What one occupancy sweep yields.

    ``histogram`` and ``mean_occupancy`` cover ``[0, total_cycles)``;
    ``max_occupancy`` is the peak over the queue's whole lifetime, however
    long, as :meth:`OccupancyTimeline.max_occupancy` defines it.
    """

    histogram: Histogram
    max_occupancy: int
    mean_occupancy: float


def occupancy_histogram(
    residencies: Iterable[Residency], total_cycles: int
) -> Histogram:
    """Compute cycles-at-each-occupancy-level from residency records.

    Cycles beyond the lifetime of the last element count as occupancy zero so
    the histogram always sums to ``total_cycles``.
    """
    enters = []
    leaves = []
    for residency in residencies:
        enters.append(residency.enter)
        leaves.append(residency.leave)
    return _sweep(enters, leaves, total_cycles)[0]


def _sweep(
    enters: list[int], leaves: list[int], total_cycles: int
) -> Tuple[Histogram, int]:
    """One pass over the residency events: ``(histogram, peak occupancy)``.

    Events are encoded as ``cycle << 1 | entering`` so they sort as plain
    integers; every event of one cycle is applied before the next gap is
    counted.  Gaps are clipped to ``[0, total_cycles)`` for the histogram;
    the peak is the highest level held for at least one cycle from cycle 0
    on, whatever ``total_cycles`` is.  Cycles after the last departure count
    at occupancy zero, so the histogram always sums to ``total_cycles``.
    """
    events = [enter << 1 | 1 for enter in enters]
    events.extend(leave << 1 for leave in leaves)
    events.sort()

    counts: dict[int, int] = {}
    level = 0
    peak = 0
    previous = 0
    for event in events:
        cycle = event >> 1
        if cycle > previous:
            if level > peak:
                peak = level
            end = cycle if cycle < total_cycles else total_cycles
            if end > previous:
                counts[level] = counts.get(level, 0) + end - previous
            previous = cycle
        level += 1 if event & 1 else -1
    if previous < total_cycles:
        counts[level] = counts.get(level, 0) + total_cycles - previous

    histogram = Histogram()
    for occupancy, cycles in counts.items():
        histogram.add(occupancy, cycles)
    return histogram, peak
