"""Event-driven (skip-ahead) core of the decoupled-architecture simulator.

Each of the four processors gets its own :class:`~repro.engine.events.WakeupScheduler`:
before a processor issues an instruction it registers every cycle it might
have to wait for — the instruction-queue entry becoming ready, operands
releasing on the scoreboard, a data-queue slot draining, a functional or
queue-move unit freeing — and one jump from the processor's own issue
pointer lands on the issue cycle.  The per-tag spans of each scheduler are
then an exact per-resource breakdown of that processor's skipped cycles.

Equivalence with the tick core
(:class:`~repro.dva.simulator._DecoupledState`) holds because the shared
state is mutated by the same calls in the same order.  The discipline the
overrides follow:

* anything *stateful* (forced VADQ drains via
  :meth:`~repro.dva.address.MemoryPipeline.vector_store_data_slot_free`,
  scoreboard reads that materialize default entries) runs before the jump,
  exactly where the tick core computes the same value;
* anything *start-dependent* (``issue_vector_load``, store enqueues, queue
  pops, pool occupations) runs after the jump with the jumped cycle, which
  equals the tick core's folded ``max`` by construction;
* unit selection is peeked with the pool's own ``least_loaded()`` rule,
  which never depends on the request cycle.

Result assembly (:meth:`finish`) is inherited outright.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import SimulationError
from repro.dva.fetch import Processor
from repro.dva.simulator import (
    _PRIMARY_ADDRESS,
    _PRIMARY_SCALAR,
    _PRIMARY_VECTOR,
    _QMOV_NONE,
    _QMOV_S_LOAD,
    _QMOV_V_LOAD,
    _QMOV_V_STORE,
    _DecoupledState,
    _routing_table,
)
from repro.dva.vector import _FU2
from repro.engine import occupancy_cycles
from repro.engine.events import WakeupScheduler
from repro.isa.registers import Register
from repro.trace.columns import InstructionInfo
from repro.trace.record import Trace


class _EventDecoupledState(_DecoupledState):
    """The four decoupled processors driven by per-processor wakeup schedulers."""

    def __init__(self, memory, config) -> None:
        super().__init__(memory, config)
        self.fetch_scheduler = WakeupScheduler()
        self.ap_scheduler = WakeupScheduler()
        self.vp_scheduler = WakeupScheduler()
        self.sp_scheduler = WakeupScheduler()

    # -- register bookkeeping ----------------------------------------------------------

    def _operand_time(
        self, register: Register, consumer: Processor, allow_chain: bool = False
    ) -> int:
        """Cycle at which ``consumer`` may use ``register``.

        Values produced on another processor travel through the (large) scalar
        data queues and arrive ``cross_processor_delay`` cycles after they were
        produced; chaining is only possible inside the vector processor.
        """
        return self.core.scoreboard.read(
            register,
            consumer=consumer,
            allow_chain=allow_chain,
            cross_delay=self.config.cross_processor_delay,
        )

    def _set_register(
        self,
        register: Register,
        owner: Processor,
        ready: int,
        chain_start: Optional[int] = None,
    ) -> None:
        self.core.scoreboard.write(
            register, ready, chain_start=chain_start, owner=owner
        )

    # -- main loop ------------------------------------------------------------------------

    def consume(self, trace: Trace) -> None:
        """Fetch, execute and queue-move every traced instruction in order."""
        columns = trace.columns
        infos = columns.instruction_infos()
        routes = _routing_table(columns)
        insn = columns.insn
        lengths = columns.vl
        strides = columns.stride
        addresses = columns.addr

        core = self.core
        iqs = self._iqs
        fp_free = self.fp.free
        fetch_stall = core.stalls.stall
        fetch_scheduler = self.fetch_scheduler
        address_execute = self._event_address_execute
        vector_compute = self._event_vector_compute
        scalar_execute = self._event_scalar_execute

        vector_loads = 0
        vector_stores = 0

        for index in range(len(insn)):
            table_index = insn[index]
            info = infos[table_index]
            primary, qmov, targets = routes[table_index]

            # Fetch: every target queue's slot-free cycle is a wakeup; the
            # jump from the FP's issue pointer is the push cycle.
            requested = fp_free[0]
            for queue_id in targets:
                fetch_scheduler.wake(
                    iqs[queue_id].slot_free_time(), "instruction-queue"
                )
            push_time = fetch_scheduler.jump(requested)
            if push_time > requested:
                fetch_stall("fetch", push_time - requested)
            primary_entry = qmov_entry = -1
            for queue_id in targets:
                entry = iqs[queue_id].push_at(push_time, push_time + 1)
                if primary_entry < 0:
                    primary_entry = entry
                else:
                    qmov_entry = entry
            fp_free[0] = push_time + 1
            if push_time + 1 > core.horizon:
                core.horizon = push_time + 1

            if primary == _PRIMARY_ADDRESS:
                if info.is_vector_memory:
                    if info.is_load:
                        vector_loads += 1
                    else:
                        vector_stores += 1
                address_execute(
                    info, index, lengths[index], strides[index],
                    addresses[index], primary_entry,
                )
            elif primary == _PRIMARY_VECTOR:
                vector_compute(info, lengths[index], primary_entry)
            elif primary == _PRIMARY_SCALAR:
                scalar_execute(info, primary_entry)
            # _PRIMARY_FETCH: consumed during translation, nothing further.

            if qmov == _QMOV_NONE:
                continue
            if qmov == _QMOV_V_LOAD:
                self._event_vector_qmov_load(info, lengths[index], qmov_entry)
            elif qmov == _QMOV_V_STORE:
                self._event_vector_qmov_store(info, index, lengths[index], qmov_entry)
            elif qmov == _QMOV_S_LOAD:
                self._event_scalar_qmov_load(info, qmov_entry)
            else:
                self._event_scalar_qmov_store(info, index, qmov_entry)

        self.fp_count += len(insn)
        self.vector_loads += vector_loads
        self.vector_stores += vector_stores

    # -- address processor --------------------------------------------------------------------------

    def _event_address_execute(
        self,
        info: InstructionInfo,
        index: int,
        vector_length: int,
        stride_elements: int,
        address: int,
        entry_index: int,
    ) -> None:
        self.ap_count += 1
        scheduler = self.ap_scheduler
        scheduler.wake(self.apiq.ready_times[entry_index], "instruction-queue")
        for register in info.scalar_sources:
            scheduler.wake(
                self._operand_time(register, Processor.ADDRESS), "operand"
            )

        memory = self.memory
        is_vector_load = info.is_vector_memory and info.is_load
        if is_vector_load:
            scheduler.wake(memory.avdq.slot_free_time(), "load-data-queue")
        start = scheduler.jump(self.ap.free[0])

        if info.is_vector_memory:
            if is_vector_load:
                data_ready = memory.issue_vector_load(
                    address, vector_length, stride_elements, info.is_indexed, start
                )
                memory.avdq.push(start, ready=data_ready)
                self.core.bump(data_ready)
                finish = start + 1
            else:
                push_time = memory.enqueue_vector_store(
                    index, address, vector_length, stride_elements,
                    info.is_indexed, start,
                )
                finish = max(start, push_time) + 1
        elif info.is_scalar_memory:
            if info.is_load:
                data_ready = memory.issue_scalar_load(address, start)
                memory.asdq.push(start, ready=data_ready)
                self.core.bump(data_ready)
                finish = start + 1
            else:
                push_time = memory.enqueue_scalar_store(index, address, start)
                finish = max(start, push_time) + 1
        else:
            finish = start + 1
            for register in info.destinations:
                self._set_register(register, Processor.ADDRESS, finish)

        self.apiq.pop(start)
        self.ap.occupy(start, finish)
        self.core.bump(finish)

    # -- vector processor -----------------------------------------------------------------------------

    def _event_vector_compute(
        self, info: InstructionInfo, vector_length: int, entry_index: int
    ) -> None:
        self.vp_count += 1
        scheduler = self.vp_scheduler
        scheduler.wake(self.vpiq.ready_times[entry_index], "instruction-queue")
        for register in info.data_sources:
            scheduler.wake(
                self._operand_time(register, Processor.VECTOR, allow_chain=True),
                "operand",
            )

        length = vector_length if vector_length > 1 else 1
        fus = self.resources.fus
        busy = occupancy_cycles(length, self.resources.lanes)
        unit = _FU2 if info.requires_fu2 else fus.least_loaded()
        scheduler.wake(fus.free[unit], "functional-unit")
        start = scheduler.jump(self.vp.free[0])
        fus.occupy(start, start + busy, unit)
        self.vpiq.pop(start)
        self.vp.occupy(start, start + 1)

        startup = self.config.functional_unit_startup
        completion = start + startup + busy
        for register, is_vector in info.destination_flags:
            chain = start + startup if is_vector else None
            self._set_register(register, Processor.VECTOR, completion, chain)
        self.core.bump(completion)

    def _event_vector_qmov_load(
        self, info: InstructionInfo, vector_length: int, entry_index: int
    ) -> None:
        self.vp_count += 1
        scheduler = self.vp_scheduler
        scheduler.wake(self.vpiq.ready_times[entry_index], "instruction-queue")
        scheduler.wake(self.memory.avdq.front_ready(), "load-data-queue")

        length = vector_length if vector_length > 1 else 1
        qmovs = self.resources.qmovs
        unit = qmovs.least_loaded()
        scheduler.wake(qmovs.free[unit], "queue-move-unit")
        start = scheduler.jump(self.vp.free[0])
        qmovs.occupy(start, start + length, unit)
        self.vpiq.pop(start)
        self.vp.occupy(start, start + 1)

        end = start + length
        self.memory.avdq.pop(end)
        startup = self.config.queue_move_startup
        completion = start + startup + length
        destinations = info.vector_destinations
        if not destinations:
            raise SimulationError(
                f"vector load without a vector destination: {info.instruction}"
            )
        self._set_register(
            destinations[0], Processor.VECTOR, completion, chain_start=start + startup
        )
        self.core.bump(completion)

    def _event_vector_qmov_store(
        self, info: InstructionInfo, index: int, vector_length: int, entry_index: int
    ) -> None:
        self.vp_count += 1
        sources = info.vector_sources
        if not sources:
            raise SimulationError(
                f"vector store without a vector data register: {info.instruction}"
            )
        scheduler = self.vp_scheduler
        scheduler.wake(self.vpiq.ready_times[entry_index], "instruction-queue")
        scheduler.wake(
            self._operand_time(sources[0], Processor.VECTOR, allow_chain=True),
            "operand",
        )
        scheduler.wake(self.memory.vector_store_data_slot_free(), "store-data-queue")

        length = vector_length if vector_length > 1 else 1
        qmovs = self.resources.qmovs
        unit = qmovs.least_loaded()
        scheduler.wake(qmovs.free[unit], "queue-move-unit")
        start = scheduler.jump(self.vp.free[0])
        qmovs.occupy(start, start + length, unit)
        self.vpiq.pop(start)
        self.vp.occupy(start, start + 1)

        data_ready = start + length
        self.memory.attach_vector_store_data(index, push_time=start, data_ready=data_ready)
        self.core.bump(data_ready)

    # -- scalar processor ----------------------------------------------------------------------------------

    def _event_scalar_execute(self, info: InstructionInfo, entry_index: int) -> None:
        self.sp_count += 1
        scheduler = self.sp_scheduler
        scheduler.wake(self.spiq.ready_times[entry_index], "instruction-queue")
        for register in info.sources:
            scheduler.wake(
                self._operand_time(register, Processor.SCALAR), "operand"
            )
        start = scheduler.jump(self.sp.free[0])

        self.spiq.pop(start)
        self.sp.occupy(start, start + 1)
        completion = start + 1
        for register in info.destinations:
            self._set_register(register, Processor.SCALAR, completion)
        self.core.bump(completion)

    def _event_scalar_qmov_load(self, info: InstructionInfo, entry_index: int) -> None:
        self.sp_count += 1
        scheduler = self.sp_scheduler
        scheduler.wake(self.spiq.ready_times[entry_index], "instruction-queue")
        scheduler.wake(self.memory.asdq.front_ready(), "scalar-data-queue")
        start = scheduler.jump(self.sp.free[0])

        self.spiq.pop(start)
        self.sp.occupy(start, start + 1)
        self.memory.asdq.pop(start + 1)
        completion = start + 1
        destinations = info.scalar_destinations
        if destinations:
            self._set_register(destinations[0], Processor.SCALAR, completion)
        self.core.bump(completion)

    def _event_scalar_qmov_store(
        self, info: InstructionInfo, index: int, entry_index: int
    ) -> None:
        self.sp_count += 1
        scheduler = self.sp_scheduler
        scheduler.wake(self.spiq.ready_times[entry_index], "instruction-queue")
        sources = info.scalar_sources
        if sources:
            scheduler.wake(
                self._operand_time(sources[0], Processor.SCALAR), "operand"
            )
        start = scheduler.jump(self.sp.free[0])

        self.spiq.pop(start)
        self.sp.occupy(start, start + 1)
        self.memory.attach_scalar_store_data(index, push_time=start, data_ready=start + 1)
        self.core.bump(start + 1)
