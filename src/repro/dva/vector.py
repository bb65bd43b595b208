"""Execution resources of the decoupled vector processor.

The VP is almost exactly the vector half of the reference architecture
(paper §4.3): the same two functional units with the same chaining rules, plus
two queue-move (QMOV) units that transfer whole vector registers between the
architectural queues and the register file.  Both groups are
:class:`~repro.engine.ResourcePool`\\ s from the shared engine kernel; the
issue rules pick units with the pools' least-loaded rule (FU2 pinned for
instructions that require it) and divide functional-unit occupancy by the
machine's lane count.
"""

from __future__ import annotations

from typing import List

from repro.common.intervals import IntervalRecorder
from repro.engine import ResourcePool

_FU1 = 0
_FU2 = 1


class VectorExecutionResources:
    """Busy-time bookkeeping for FU1, FU2 and the QMOV units."""

    def __init__(self, qmov_unit_count: int = 2, lanes: int = 1) -> None:
        self.lanes = lanes
        self.fus = ResourcePool("FU", count=2, unit_names=("FU1", "FU2"))
        self.qmovs = ResourcePool(
            "QMOV",
            count=qmov_unit_count,
            unit_names=[f"QMOV{i}" for i in range(qmov_unit_count)],
        )

    # -- statistics -----------------------------------------------------------------------

    @property
    def fu1(self) -> IntervalRecorder:
        return self.fus.recorder(_FU1)

    @property
    def fu2(self) -> IntervalRecorder:
        return self.fus.recorder(_FU2)

    @property
    def qmov_units(self) -> List[IntervalRecorder]:
        return list(self.qmovs.recorders or ())
