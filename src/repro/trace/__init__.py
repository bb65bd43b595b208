"""Dynamic instruction traces — the reproduction's substitute for Dixie.

The paper instruments Convex executables with *Dixie* to produce four traces
(basic blocks, vector-length register values, vector-stride register values
and memory reference addresses) which together describe the full dynamic
execution of a program.  Here a :class:`~repro.trace.generator.TraceBuilder`
generates the same information in-process into a
:class:`~repro.trace.columns.ColumnarTrace` of parallel columns, which both
simulators (:mod:`repro.refarch` and :mod:`repro.dva`) read directly.
"""

from repro.trace.columns import ColumnarTrace, InstructionInfo
from repro.trace.record import Trace
from repro.trace.generator import RegionAllocator, TraceBuilder
from repro.trace.statistics import TraceStatistics, compute_statistics

__all__ = [
    "ColumnarTrace",
    "InstructionInfo",
    "RegionAllocator",
    "Trace",
    "TraceBuilder",
    "TraceStatistics",
    "compute_statistics",
]
