"""Free-time bookkeeping for groups of identical execution resources.

Functional units, memory ports and queue-move units all follow one pattern:
a request starts no earlier than both its operands and the unit allow, holds
the unit for some cycles, and the unit's next-free time moves forward.  The
seed simulators hand-rolled this as ``fu1_free``/``fu2_free``/``port_free``
integers paired with :class:`~repro.common.intervals.IntervalRecorder`\\ s (and
a ``setattr`` dance to write the right attribute back); :class:`ResourcePool`
is that pattern as a reusable object, generalized to *k* units so a
multi-lane or multi-port machine is a constructor argument, not a fork.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.intervals import IntervalRecorder


class ResourcePool:
    """A named group of interchangeable units with per-unit free times.

    Each unit pairs a next-free cycle with an optional
    :class:`IntervalRecorder` of its busy intervals.  The tick loops occupy
    units in place: a request picks the least-loaded unit with the *first*
    unit winning ties (``free.index(min(free))`` — exactly the seed's
    ``fu1_free <= fu2_free`` rule, which golden tests pin), starts no
    earlier than that unit's free cycle, moves the free cycle to its end and
    appends ``[start, end)`` to the unit's recorder.
    """

    def __init__(
        self,
        name: str,
        count: int = 1,
        unit_names: Optional[Sequence[str]] = None,
        record: bool = True,
    ) -> None:
        if count <= 0:
            raise ConfigurationError(f"resource pool {name!r} needs at least one unit")
        if unit_names is not None and len(unit_names) != count:
            raise ConfigurationError(
                f"resource pool {name!r}: {count} units but "
                f"{len(unit_names)} unit names"
            )
        self.name = name
        if unit_names is None:
            unit_names = [name] if count == 1 else [f"{name}{i}" for i in range(count)]
        self.unit_names: Tuple[str, ...] = tuple(unit_names)
        self.free: List[int] = [0] * count
        self.recorders: Optional[List[IntervalRecorder]] = (
            [IntervalRecorder(unit) for unit in self.unit_names] if record else None
        )

    def __len__(self) -> int:
        return len(self.free)

    def latest_free(self) -> int:
        """Cycle at which *every* unit is free (the pool has gone quiet)."""
        return max(self.free)

    def free_time(self, unit: int = 0) -> int:
        """Next-free cycle of one specific unit."""
        return self.free[unit]

    # -- statistics --------------------------------------------------------------------

    def recorder(self, unit: int = 0) -> IntervalRecorder:
        """The busy-interval recorder of one unit."""
        if self.recorders is None:
            raise SimulationError(
                f"resource pool {self.name!r} was created with record=False"
            )
        return self.recorders[unit]

    def combined_recorder(self, name: Optional[str] = None) -> IntervalRecorder:
        """One recorder covering every unit ("is *any* unit busy?").

        With a single unit this is that unit's own recorder, so existing
        single-port results stay structurally identical to the seed's.
        """
        if self.recorders is None:
            raise SimulationError(
                f"resource pool {self.name!r} was created with record=False"
            )
        if len(self.recorders) == 1 and name is None:
            return self.recorders[0]
        combined = IntervalRecorder(name or self.name)
        for recorder in self.recorders:
            combined.record_all(recorder)
        return combined

    def busy_time(self) -> int:
        """Total busy cycles summed over all units."""
        if self.recorders is None:
            raise SimulationError(
                f"resource pool {self.name!r} was created with record=False"
            )
        return sum(recorder.busy_time() for recorder in self.recorders)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourcePool(name={self.name!r}, free={self.free})"
