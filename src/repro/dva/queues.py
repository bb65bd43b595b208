"""Timestamped bounded FIFO queues.

The decoupled simulator never steps cycles; instead every queue keeps, per
entry, the cycle at which the producer reserved the slot and the cycle at
which the consumer released it.  Because producers and consumers both work
through the program in order, the blocking behaviour of a bounded FIFO
reduces to simple timestamp arithmetic:

* a push must wait until the entry ``capacity`` positions earlier has been
  released — a slot is reusable on the very cycle its entry is popped, not
  the cycle after, and
* an entry may be popped on the cycle it was pushed (zero residency), never
  earlier.

Entry lifetimes are stored as two parallel timestamp lists rather than one
object per entry, and the tick core applies both rules while it appends to
those lists directly: pops are appended in FIFO order, so entry ``k`` has
been released exactly when ``k < len(pop_times)``.  What this class adds is
the capacity and the occupancy timeline the result builds from the lists.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import SimulationError
from repro.common.timeline import OccupancyTimeline


class TimedQueue:
    """A bounded FIFO described entirely by timestamps."""

    __slots__ = ("name", "capacity", "push_times", "pop_times")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError(f"queue {name!r} must have positive capacity")
        self.name = name
        self.capacity = capacity
        self.push_times: List[int] = []
        self.pop_times: List[int] = []

    @property
    def outstanding(self) -> int:
        """Entries pushed and not yet released."""
        return len(self.push_times) - len(self.pop_times)

    def occupancy_timeline(self, name: Optional[str] = None, horizon: int = 0) -> OccupancyTimeline:
        """Residency records of every entry (unreleased entries last to ``horizon``).

        One pass over the timestamp lists: zero-residency entries occupy no
        cycle and are left out, and an entry released before it was pushed
        is an error.
        """
        enters: List[int] = []
        leaves: List[int] = []
        pops = self.pop_times
        unreleased = [max(horizon, push) for push in self.push_times[len(pops):]]
        for enter, leave in zip(self.push_times, pops + unreleased):
            if leave > enter:
                enters.append(enter)
                leaves.append(leave)
            elif leave < enter:
                raise SimulationError(
                    f"queue element leaves ({leave}) before it enters ({enter})"
                )
        return OccupancyTimeline(
            name or self.name, capacity=self.capacity, enters=enters, leaves=leaves
        )

    def __len__(self) -> int:
        return len(self.push_times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimedQueue(name={self.name!r}, capacity={self.capacity}, "
            f"entries={len(self.push_times)}, outstanding={self.outstanding})"
        )
