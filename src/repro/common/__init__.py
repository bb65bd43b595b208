"""Shared infrastructure used by every subsystem of the reproduction.

The simulators in :mod:`repro.refarch` and :mod:`repro.dva` are event driven:
instead of stepping the machine cycle by cycle they record, for every hardware
resource, the *intervals* of time during which the resource was busy.  The
helpers in this package turn those interval records back into the per-cycle
quantities the paper reports (functional-unit state breakdowns, queue
occupancy histograms) without ever iterating over individual cycles.
"""

from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceError,
    WorkloadError,
)
from repro.common.intervals import (
    Interval,
    IntervalRecorder,
    StateBreakdown,
    merge_intervals,
    state_breakdown,
)
from repro.common.stats import Histogram, RunningStats, geometric_mean, weighted_mean
from repro.common.timeline import OccupancyTimeline, Residency, occupancy_histogram

__all__ = [
    "ConfigurationError",
    "Histogram",
    "Interval",
    "IntervalRecorder",
    "OccupancyTimeline",
    "ReproError",
    "Residency",
    "RunningStats",
    "SimulationError",
    "StateBreakdown",
    "TraceError",
    "WorkloadError",
    "geometric_mean",
    "merge_intervals",
    "occupancy_histogram",
    "state_breakdown",
    "weighted_mean",
]
