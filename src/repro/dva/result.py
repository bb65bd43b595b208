"""Results produced by the decoupled architecture simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.common.intervals import IntervalRecorder, idle_cycles
from repro.common.stats import Histogram
from repro.common.timeline import OccupancySummary, OccupancyTimeline

if TYPE_CHECKING:
    from repro.dva.queues import TimedQueue

#: Instruction queues whose occupancy timelines are built on request.
_INSTRUCTION_QUEUES = ("APIQ", "VPIQ", "SPIQ")


@dataclass
class DecoupledResult:
    """Everything one decoupled-architecture run measures.

    In addition to the quantities the reference result exposes (total cycles,
    functional-unit and memory-port busy intervals, traffic), the decoupled
    result carries the queue occupancy timelines needed for Figure 6, the
    bypass statistics of Section 7 and per-processor instruction counts.

    Derived metrics are computed once, on first use: one sweep of the AVDQ
    residencies yields its histogram, peak and mean, and the idle count is
    one union of the FU2, FU1 and port intervals.  The VADQ and instruction-queue timelines,
    which no report reads, are built from ``timeline_queues`` only when
    asked for.
    """

    program: str
    latency: int
    total_cycles: int
    instructions: int
    bypass_enabled: bool

    fu1_busy: IntervalRecorder
    fu2_busy: IntervalRecorder
    port_busy: IntervalRecorder
    qmov_busy: List[IntervalRecorder]
    bypass_busy: IntervalRecorder

    avdq_occupancy: OccupancyTimeline
    #: The VADQ and the three instruction queues, by name, as the run left them.
    timeline_queues: Dict[str, "TimedQueue"] = field(
        default_factory=dict, repr=False, compare=False
    )

    instructions_per_processor: Dict[str, int] = field(default_factory=dict)
    memory_traffic_bytes: int = 0
    bypassed_loads: int = 0
    bypassed_bytes: int = 0
    disambiguation_stalls: int = 0
    fetch_stall_cycles: int = 0
    scalar_cache_hits: int = 0
    scalar_cache_misses: int = 0

    _avdq: OccupancySummary | None = field(default=None, repr=False, compare=False)
    _timelines: Dict[str, OccupancyTimeline] = field(
        default_factory=dict, repr=False, compare=False
    )

    # -- unit-state analysis (Figures 1/4 style) ---------------------------------------

    @property
    def all_idle_cycles(self) -> int:
        """Cycles with FU2, FU1 and the memory port all idle (paper's ``( , , )``)."""
        return idle_cycles([self.fu2_busy, self.fu1_busy, self.port_busy], self.total_cycles)

    @property
    def port_idle_fraction(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return 1.0 - self.port_busy.busy_time() / self.total_cycles

    # -- queue analysis (Figure 6) -------------------------------------------------------

    def _avdq_summary(self) -> OccupancySummary:
        if self._avdq is None:
            self._avdq = self.avdq_occupancy.summary(self.total_cycles)
        return self._avdq

    def avdq_histogram(self) -> Histogram:
        """Cycles at each AVDQ occupancy level over the whole run."""
        return self._avdq_summary().histogram

    def max_avdq_occupancy(self) -> int:
        return self._avdq_summary().max_occupancy

    def mean_avdq_occupancy(self) -> float:
        return self._avdq_summary().mean_occupancy

    def _timeline(self, name: str) -> OccupancyTimeline:
        timeline = self._timelines.get(name)
        if timeline is None:
            queue = self.timeline_queues[name]
            timeline = queue.occupancy_timeline(name, horizon=self.total_cycles)
            self._timelines[name] = timeline
        return timeline

    @property
    def vadq_occupancy(self) -> OccupancyTimeline:
        """Residencies of the vector store data queue (built on first access)."""
        return self._timeline("VADQ")

    @property
    def instruction_queue_occupancy(self) -> Dict[str, OccupancyTimeline]:
        """Residencies of APIQ, VPIQ and SPIQ (built on first access)."""
        return {name: self._timeline(name) for name in _INSTRUCTION_QUEUES}

    # -- bypass analysis (Section 7 / Figure 8) -------------------------------------------

    @property
    def bypass_fraction_of_loads(self) -> float:
        """Fraction of vector loads serviced by the bypass unit."""
        loads = self.instructions_per_processor.get("vector_loads", 0)
        if loads == 0:
            return 0.0
        return self.bypassed_loads / loads

    def summary(self) -> Dict[str, object]:
        """Headline numbers as a flat dictionary.

        The first eight keys are the *core key set* shared with
        :meth:`repro.refarch.result.ReferenceResult.summary`, so reports can
        mix results from both architectures without special-casing either.
        """
        return {
            "program": self.program,
            "latency": self.latency,
            "total_cycles": self.total_cycles,
            "instructions": self.instructions,
            "memory_traffic_bytes": self.memory_traffic_bytes,
            "scalar_cache_hits": self.scalar_cache_hits,
            "scalar_cache_misses": self.scalar_cache_misses,
            "all_idle_cycles": self.all_idle_cycles,
            "port_idle_fraction": round(self.port_idle_fraction, 4),
            "bypass": self.bypass_enabled,
            "bypassed_loads": self.bypassed_loads,
            "max_avdq_occupancy": self.max_avdq_occupancy(),
            "fetch_stall_cycles": self.fetch_stall_cycles,
        }

    def to_json(self) -> Dict[str, object]:
        """A JSON-serializable dictionary of everything reports consume.

        The returned value survives a ``json.dumps``/``json.loads`` round trip
        unchanged; :class:`repro.core.result.RunResult` embeds it verbatim.
        The AVDQ occupancy histogram is stored as sorted ``[level, cycles]``
        pairs because JSON objects cannot have integer keys.
        """
        return {
            **self.summary(),
            "bypassed_bytes": self.bypassed_bytes,
            "disambiguation_stalls": self.disambiguation_stalls,
            "instructions_per_processor": dict(self.instructions_per_processor),
            "mean_avdq_occupancy": round(self.mean_avdq_occupancy(), 4),
            "avdq_histogram": [
                [level, cycles] for level, cycles in self.avdq_histogram().items()
            ],
        }
