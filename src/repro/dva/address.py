"""The address processor's memory pipeline.

This module models everything that sits between the address processor and
main memory in the decoupled architecture (paper §4.2):

* the pipelined memory port (a :class:`~repro.engine.MemoryFabric` port pool,
  one unit in the paper's machine) with its shared address bus,
* the two-step store mechanism: store addresses wait in the VSAQ/SSAQ until
  the matching data arrives in the VADQ/SADQ, after which the store is
  performed "behind the back" of the AP,
* dynamic memory disambiguation: a load is checked against every queued
  store; on a conflict the store queues drain up to the youngest offending
  store before the load may access memory,
* the store→load bypass (§7): a load identical to a queued vector store is
  serviced by copying the data from the VADQ into the AVDQ in VL cycles,
  without using the memory port and without paying memory latency,
* the scalar cache that filters scalar references away from the port (wired
  inside the fabric, shared with the reference machine's wiring).

The interface speaks the columnar trace's language: every reference is
described by the scalars the simulator already holds in locals (base
address, vector length, stride, the indexed flag) plus an opaque ``key``
identifying the dynamic record, so no record objects flow through the
pipeline.  Queued stores are kept the same way: parallel columns indexed by
store number (program order), which the conflict search, the bypass check
and the drains read directly, and every port use is one call that returns
the bus start as a plain cycle.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder
from repro.dva.config import DecoupledConfig
from repro.dva.queues import TimedQueue
from repro.engine import MemoryFabric, ResourcePool
from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.memory.model import MemoryModel
from repro.memory.ranges import access_bounds
from repro.memory.scalar_cache import ScalarCache


class MemoryPipeline:
    """Port, store queues, disambiguation and bypass of the decoupled AP.

    Each queued store is one entry in every ``store_*`` column, in program
    order; stores drain oldest first, so store numbers from
    ``_next_undrained`` on are still queued.  ``store_lengths`` holds the
    effective vector length (1 for scalar stores), ``store_lows`` and
    ``store_highs`` the byte bounds of
    :func:`~repro.memory.ranges.access_bounds` that disambiguation checks
    loads against, ``store_bypassable`` whether the store has the strided
    vector shape a bypass needs, and ``store_data_ready`` is ``None`` until
    the QMOV companion attaches the store's data.
    """

    def __init__(self, memory: MemoryModel, config: DecoupledConfig) -> None:
        self.memory = memory
        self.config = config
        self.fabric = MemoryFabric(
            memory,
            config.scalar_cache,
            ports=config.memory_ports,
            scalar_store_writes_through=config.scalar_store_writes_through,
        )
        timings = memory.timings
        self._bus_cycles_per_element = timings.bus_cycles_per_element
        self._scalar_bus_cycles = timings.scalar_bus_cycles
        self._latency = timings.latency
        self._hit_latency = self.fabric.cache.config.hit_latency
        self._bypass_enabled = config.enable_bypass
        ports = self.fabric.ports
        self._port_free = ports.free
        self._port_record = tuple(recorder.record for recorder in ports.recorders)
        self._single_port = len(ports.free) == 1

        queues = config.queues
        self.vsaq = TimedQueue("VSAQ", queues.effective_vector_store_address)
        self.ssaq = TimedQueue("SSAQ", queues.scalar_store_address)
        self.vadq = TimedQueue("VADQ", queues.vector_store_data)
        self.sadq = TimedQueue("SADQ", queues.scalar_data)
        self.avdq = TimedQueue("AVDQ", queues.vector_load_data)
        self.asdq = TimedQueue("ASDQ", queues.scalar_data)

        self.bypass = ResourcePool("BYPASS")

        self.store_keys: List[int] = []
        self.store_bases: List[int] = []
        self.store_lengths: List[int] = []
        self.store_strides: List[int] = []
        self.store_bypassable: List[bool] = []
        self.store_vector: List[bool] = []
        self.store_lows: List[float] = []
        self.store_highs: List[float] = []
        self.store_address_ready: List[int] = []
        self.store_data_ready: List[Optional[int]] = []
        self._next_undrained = 0

        #: Bytes moved over the port (the fabric's own counter stays unused).
        self.traffic_bytes = 0
        self.bypassed_loads = 0
        self.bypassed_bytes = 0
        self.disambiguation_stalls = 0
        self.forced_drains = 0

    # -- fabric views ------------------------------------------------------------------

    @property
    def cache(self) -> ScalarCache:
        return self.fabric.cache

    @property
    def port(self) -> IntervalRecorder:
        return self.fabric.port_recorder()

    @property
    def port_free(self) -> int:
        """Earliest cycle the next reference could claim a port."""
        return self.fabric.port_free()

    @property
    def port_quiet(self) -> int:
        """Cycle at which every port has finished its last reference.

        Identical to :attr:`port_free` on a single-port machine; on a
        multi-port machine the wind-down must wait for the *slowest* port,
        not the first free one.
        """
        return self.fabric.port_quiet()

    @property
    def bypass_unit(self) -> IntervalRecorder:
        return self.bypass.recorder()

    @property
    def bypass_free(self) -> int:
        return self.bypass.free_time()

    def _occupy_port(self, earliest: int, cycles: int, traffic: int) -> int:
        """Drive one reference over the least-loaded port; return its bus start.

        The port pool's own selection rule (first unit wins ties) on its
        ``free`` list, without the pool's method layers.
        """
        free = self._port_free
        unit = 0 if self._single_port else free.index(min(free))
        start = free[unit]
        if earliest > start:
            start = earliest
        free[unit] = end = start + cycles
        self._port_record[unit](start, end)
        self.traffic_bytes += traffic
        return start

    # -- store bookkeeping -------------------------------------------------------------

    def enqueue_vector_store(
        self,
        key: int,
        base: int,
        vector_length: int,
        stride_elements: int,
        indexed: bool,
        requested: int,
    ) -> int:
        """Put a vector store's address into the VSAQ; return the push cycle."""
        self._make_room(self.vsaq)
        push_time = self.vsaq.push(requested)
        low, high = access_bounds(base, vector_length, stride_elements, indexed=indexed)
        self._append_store(
            key, base, vector_length, stride_elements, not indexed, True, low, high, push_time
        )
        return push_time

    def enqueue_scalar_store(self, key: int, base: int, requested: int) -> int:
        """Put a scalar store's address into the SSAQ; return the push cycle."""
        self._make_room(self.ssaq)
        push_time = self.ssaq.push(requested)
        self._append_store(
            key, base, 1, 1, False, False, base, base + ELEMENT_SIZE_BYTES, push_time
        )
        return push_time

    def _append_store(
        self,
        key: int,
        base: int,
        length: int,
        stride_elements: int,
        bypassable: bool,
        is_vector: bool,
        low: float,
        high: float,
        push_time: int,
    ) -> None:
        self.store_keys.append(key)
        self.store_bases.append(base)
        self.store_lengths.append(length)
        self.store_strides.append(stride_elements)
        self.store_bypassable.append(bypassable)
        self.store_vector.append(is_vector)
        self.store_lows.append(low)
        self.store_highs.append(high)
        self.store_address_ready.append(push_time + 1)
        self.store_data_ready.append(None)

    def reserve_vector_store_data_slot(self, requested: int) -> int:
        """Reserve a VADQ slot for a QMOV (forcing a drain when the queue is full)."""
        self._make_room(self.vadq)
        return self.vadq.earliest_push(requested)

    def attach_vector_store_data(self, key: int, push_time: int, data_ready: int) -> None:
        """Record that the VP has moved store ``key``'s data into the VADQ."""
        self.vadq.push(push_time, ready=data_ready)
        self.store_data_ready[self._find_pending(key)] = data_ready

    def attach_scalar_store_data(self, key: int, push_time: int, data_ready: int) -> None:
        """Record that the SP has moved store ``key``'s data into the SADQ."""
        self._make_room(self.sadq)
        self.sadq.push(push_time, ready=data_ready)
        self.store_data_ready[self._find_pending(key)] = data_ready

    def _find_pending(self, key: int) -> int:
        """Store number of store ``key``, searching from the newest store."""
        keys = self.store_keys
        for number in range(len(keys) - 1, -1, -1):
            if keys[number] == key:
                return number
        raise SimulationError(f"no pending store found for record #{key}")

    def _make_room(self, queue: TimedQueue) -> None:
        """Force-drain old stores until ``queue`` has a free slot."""
        while queue.outstanding >= queue.capacity:
            if self._next_undrained >= len(self.store_keys):
                raise SimulationError(
                    f"queue {queue.name!r} is full but there is nothing left to drain"
                )
            self.forced_drains += 1
            self._drain_oldest()

    def _store_ready(self, number: int) -> int:
        """Cycle at which both the address and the data of a store are available."""
        data_ready = self.store_data_ready[number]
        if data_ready is None:
            raise SimulationError(
                f"store #{self.store_keys[number]} has no data yet; the producing QMOV "
                f"must be simulated before the store can be performed"
            )
        address_ready = self.store_address_ready[number]
        return address_ready if address_ready > data_ready else data_ready

    # -- load servicing -----------------------------------------------------------------

    def issue_vector_load(
        self,
        base: int,
        vector_length: int,
        stride_elements: int,
        indexed: bool,
        requested: int,
    ) -> int:
        """Service a vector load: bypass it or send it to main memory.

        ``requested`` is the cycle at which the AP has the load ready to go
        (operands available, AVDQ slot reserved).  Returns the cycle the
        load's last element is available in the AVDQ.
        """
        if self._next_undrained < len(self.store_lows):
            low, high = access_bounds(base, vector_length, stride_elements, indexed=indexed)
            conflict = self._youngest_conflict(low, high)
            if conflict >= 0:
                # The bypass requires the load to read exactly what the queued
                # store will write: same base, stride and length, both strided
                # vector accesses (paper §7).
                if (
                    self._bypass_enabled
                    and self.store_bypassable[conflict]
                    and not indexed
                    and base == self.store_bases[conflict]
                    and stride_elements == self.store_strides[conflict]
                    and vector_length == self.store_lengths[conflict]
                ):
                    return self._bypass_load(vector_length, requested, conflict)
                drained = self._drain_through(conflict)
                if drained > requested:
                    requested = drained
                self.disambiguation_stalls += 1
            self._drain_ready_stores(requested)

        cycles = (vector_length if vector_length > 1 else 1) * self._bus_cycles_per_element
        bus_start = self._occupy_port(requested, cycles, vector_length * ELEMENT_SIZE_BYTES)
        return bus_start + self._latency + cycles

    def issue_scalar_load(self, base: int, requested: int) -> int:
        """Service a scalar load through the cache; return its data-ready cycle."""
        if self._next_undrained < len(self.store_lows):
            conflict = self._youngest_conflict(base, base + ELEMENT_SIZE_BYTES)
            if conflict >= 0:
                drained = self._drain_through(conflict)
                if drained > requested:
                    requested = drained
                self.disambiguation_stalls += 1

        if self.fabric.scalar_access_at(base, False).hit:
            return requested + self._hit_latency

        if self._next_undrained < len(self.store_lows):
            self._drain_ready_stores(requested)
        bus_start = self._occupy_port(requested, self._scalar_bus_cycles, ELEMENT_SIZE_BYTES)
        return bus_start + 1 + self._latency

    def _bypass_load(self, vector_length: int, requested: int, number: int) -> int:
        length = max(vector_length, 1)
        start, _unit = self.bypass.acquire(max(requested, self._store_ready(number)), length)
        self.bypassed_loads += 1
        self.bypassed_bytes += vector_length * ELEMENT_SIZE_BYTES
        return start + length

    # -- disambiguation and draining ------------------------------------------------------

    def _youngest_conflict(self, low: float, high: float) -> int:
        """Number of the youngest queued store overlapping ``[low, high)``, or -1.

        Bounds come from :func:`~repro.memory.ranges.access_bounds`, whose
        infinite bounds for gathers and scatters overlap everything, so the
        paper's hazard rule is two comparisons per queued store.
        """
        lows = self.store_lows
        highs = self.store_highs
        for number in range(len(lows) - 1, self._next_undrained - 1, -1):
            if lows[number] < high and low < highs[number]:
                return number
        return -1

    def _drain_through(self, last: int) -> int:
        """Perform every queued store up to and including store ``last``."""
        finish = 0
        while self._next_undrained <= last:
            finish = self._drain_oldest()
        return finish

    def _drain_ready_stores(self, candidate_start: int) -> None:
        """Let stores that are already waiting use the port before a later load.

        Stores are performed behind the AP's back whenever both their address
        and data are present; when such a store would be ready no later than
        the load that is currently asking for the port, it goes first (stores
        among themselves always retire in program order).  With ``free`` the
        port's free cycle, "ready no later" is ``max(free, ready) <=
        max(free, candidate_start)``, i.e. ``ready <= candidate_start`` or
        ``ready <= free``.
        """
        data_ready = self.store_data_ready
        address_ready = self.store_address_ready
        free = self._port_free
        while self._next_undrained < len(data_ready):
            number = self._next_undrained
            ready = data_ready[number]
            if ready is None:
                break
            if address_ready[number] > ready:
                ready = address_ready[number]
            if ready > candidate_start and ready > min(free):
                break
            self._drain_oldest()

    def _drain_oldest(self) -> int:
        """Perform the oldest queued store; return the cycle it leaves the queues."""
        number = self._next_undrained
        self._next_undrained = number + 1
        ready = self._store_ready(number)
        if self.store_vector[number]:
            length = self.store_lengths[number]
            cycles = (length if length > 1 else 1) * self._bus_cycles_per_element
            end = self._occupy_port(ready, cycles, length * ELEMENT_SIZE_BYTES) + cycles
            self.vsaq.pop(end)
            self.vadq.pop(end)
            return end
        if self.fabric.scalar_access_at(self.store_bases[number], True).uses_port:
            cycles = self._scalar_bus_cycles
            end = self._occupy_port(ready, cycles, ELEMENT_SIZE_BYTES) + cycles
        else:
            end = ready + 1
        self.ssaq.pop(end)
        self.sadq.pop(end)
        return end

    # -- wind-down -------------------------------------------------------------------------

    def drain_all(self) -> int:
        """Perform every store still sitting in the queues; return the last cycle."""
        finish = self.port_quiet
        while self._next_undrained < len(self.store_keys):
            finish = max(finish, self._drain_oldest())
        return finish
