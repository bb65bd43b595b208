"""Event-driven (skip-ahead) core of the reference-architecture simulator.

Same issue rules, inverted control flow: where the tick core
(:class:`~repro.refarch.simulator._SimulationState`) folds every constraint
on an instruction's issue cycle into a running ``max``, this core registers
each constraint — operand scoreboard releases, the pinned or least-loaded
functional unit freeing, the memory port freeing — as a wakeup on a
:class:`~repro.engine.events.WakeupScheduler` and jumps the dispatcher's
clock straight to the last one.  Each jump starts at ``dispatch_free``, so
the scheduler's per-tag spans are an exact breakdown of the machine's
dispatch stalls by blocking resource (their sum equals the result's
``dispatch_stall_cycles``; the differential fuzz suite asserts this).

Equivalence with the tick core is by construction, not coincidence: the
shared engine state is mutated by the same calls in the same order — the
scalar cache is probed before the jump (its hit/miss outcome is
time-independent but stateful), the unit choice is peeked with the pool's
own ``least_loaded()`` rule (which never depends on the request cycle), and
occupation/scoreboard/stall writes reuse the inherited helpers.  Result
assembly is inherited outright.
"""

from __future__ import annotations

from repro.common.errors import SimulationError
from repro.engine import occupancy_cycles
from repro.engine.events import WakeupScheduler
from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.refarch.simulator import _FU2, _SimulationState
from repro.trace.columns import (
    KIND_QUEUE_MOVE,
    KIND_SCALAR_MEMORY,
    KIND_VECTOR_COMPUTE,
    KIND_VECTOR_MEMORY,
)
from repro.trace.record import Trace


class _EventReferenceState(_SimulationState):
    """The reference machine's issue rules driven by a wakeup scheduler."""

    def __init__(self, memory, config) -> None:
        super().__init__(memory, config)
        self.scheduler = WakeupScheduler()

    # -- main issue loop ---------------------------------------------------------------

    def consume(self, trace: Trace) -> None:
        """Issue every dynamic instruction by jumping between wakeups."""
        columns = trace.columns
        infos = columns.instruction_infos()
        insn = columns.insn
        lengths = columns.vl
        addresses = columns.addr
        read = self.core.scoreboard.read
        wake = self.scheduler.wake

        vector_instructions = 0
        for index in range(len(insn)):
            info = infos[insn[index]]
            may_chain = info.may_chain
            for register in info.sources:
                wake(read(register, allow_chain=may_chain), "operand")

            kind = info.kind
            if kind == KIND_VECTOR_COMPUTE:
                vector_instructions += 1
                self._event_vector_compute(info, lengths[index])
            elif kind == KIND_VECTOR_MEMORY:
                vector_instructions += 1
                self._event_vector_memory(info, lengths[index])
            elif kind == KIND_SCALAR_MEMORY:
                self._event_scalar_memory(info, addresses[index])
            elif kind == KIND_QUEUE_MOVE:
                raise SimulationError(
                    "queue-move opcodes are internal to the decoupled architecture "
                    "and cannot appear in a reference-architecture trace"
                )
            else:
                self._event_scalar(info)

        self.instructions = len(insn)
        self.vector_instructions = vector_instructions
        self.scalar_instructions = len(insn) - vector_instructions

    # -- per-class issue rules -----------------------------------------------------------

    def _advance_dispatch(self, issue_time: int) -> None:
        self.core.stalls.stall("dispatch", issue_time - self.dispatch_free)
        self.dispatch_free = issue_time + 1

    def _event_scalar(self, info) -> None:
        issue_time = self.scheduler.jump(self.dispatch_free)
        self._advance_dispatch(issue_time)
        completion = issue_time + 1
        for register in info.destinations:
            self.core.scoreboard.write(register, completion)
        self.core.bump(completion)
        self.core.stalls.account("scalar", 1)

    def _event_vector_compute(self, info, vector_length: int) -> None:
        busy = occupancy_cycles(vector_length, self.config.lanes)
        fus = self.fus
        unit = _FU2 if info.requires_fu2 else fus.least_loaded()
        scheduler = self.scheduler
        scheduler.wake(fus.free[unit], "functional-unit")
        issue_time = scheduler.jump(self.dispatch_free)
        fus.occupy(issue_time, issue_time + busy, unit)
        self._advance_dispatch(issue_time)

        startup = self.config.functional_unit_startup
        first_element = issue_time + startup
        completion = issue_time + startup + busy
        write = self.core.scoreboard.write
        for register, is_vector in info.destination_flags:
            write(
                register,
                completion,
                chain_start=first_element if is_vector else None,
            )
        self.core.bump(completion)
        self.core.stalls.account("vector_compute", busy)

    def _event_vector_memory(self, info, vector_length: int) -> None:
        memory = self.memory
        bus_cycles = memory.vector_bus_cycles(vector_length)
        ports = self.fabric.ports
        unit = ports.least_loaded()
        scheduler = self.scheduler
        scheduler.wake(ports.free[unit], "memory-port")
        issue_time = scheduler.jump(self.dispatch_free)
        ports.occupy(issue_time, issue_time + bus_cycles, unit)
        self.fabric.traffic_bytes += vector_length * ELEMENT_SIZE_BYTES
        bus_end = issue_time + bus_cycles
        self._advance_dispatch(issue_time)

        if info.is_load:
            completion = memory.load_ready(issue_time, bus_cycles)
            chain_start = (
                memory.first_element_arrival(issue_time)
                if self.config.allow_load_chaining
                else None
            )
            write = self.core.scoreboard.write
            for register in info.destinations:
                write(register, completion, chain_start=chain_start)
            self.core.bump(completion)
        else:
            completion = issue_time + bus_cycles
            self.core.bump(completion)
        self.core.stalls.account("vector_memory", bus_end - issue_time)

    def _event_scalar_memory(self, info, address: int) -> None:
        fabric = self.fabric
        is_store = info.is_store
        access = fabric.scalar_access_at(address, is_store)
        scheduler = self.scheduler

        if access.uses_port:
            ports = fabric.ports
            unit = ports.least_loaded()
            scheduler.wake(ports.free[unit], "memory-port")
            issue_time = scheduler.jump(self.dispatch_free)
            ports.occupy(
                issue_time,
                issue_time + self.memory.timings.scalar_bus_cycles,
                unit,
            )
            fabric.traffic_bytes += ELEMENT_SIZE_BYTES
        else:
            issue_time = scheduler.jump(self.dispatch_free)
        self._advance_dispatch(issue_time)

        if not is_store:
            completion = fabric.scalar_load_ready(access, issue_time)
            write = self.core.scoreboard.write
            for register in info.destinations:
                write(register, completion)
        else:
            completion = issue_time + 1
        self.core.bump(completion)
        self.core.stalls.account("scalar_memory", 1)
