"""One-pass (tick) simulator of the reference vector architecture.

The machine is in-order and issue-blocking: the dispatcher looks at one
instruction at a time and cannot move past it until the instruction has
started executing.  An instruction starts executing when

* the dispatcher has reached it (at most one instruction per cycle),
* its source operands are available — fully written for most producers, or
  merely *started* when flexible chaining applies (functional unit to
  functional unit and functional unit to store; never after a vector load),
* and its execution resource is free (FU1/FU2 for vector arithmetic, the
  memory port for vector memory and scalar-cache misses).

The timing machinery — the register scoreboard, the functional-unit and
memory-port pools, stall accounting and the completion horizon — is the
shared :mod:`repro.engine` kernel; this module contributes only the issue
rules of the reference machine.  The issue loop runs over the trace's
columns.  Once per run every unique instruction's source and destination
registers are bound to their
:class:`~repro.engine.scoreboard.RegisterEntry` objects, so the issue rules
read and write ``ready``/``chain_start`` directly; per dynamic instruction
the loop reads the vector-length and address columns into locals, so the
per-record cost is integer indexing rather than attribute access on record
objects.  Processing the trace once in program order yields exactly the
timing a cycle-by-cycle simulation would produce, at a small fraction of
the cost.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import SimulationError
from repro.engine import MemoryFabric, TimingCore
from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.memory.model import MemoryModel
from repro.refarch.config import ReferenceConfig
from repro.refarch.result import ReferenceResult
from repro.trace.columns import (
    KIND_QUEUE_MOVE,
    KIND_SCALAR_MEMORY,
    KIND_VECTOR_COMPUTE,
    KIND_VECTOR_MEMORY,
    InstructionInfo,
)
from repro.trace.record import Trace

_FU1 = 0
_FU2 = 1


class ReferenceSimulator:
    """Simulates one trace on the reference architecture."""

    def __init__(
        self,
        memory: MemoryModel,
        config: Optional[ReferenceConfig] = None,
    ) -> None:
        self.memory = memory
        self.config = config if config is not None else ReferenceConfig()

    # -- public API ----------------------------------------------------------------

    def run(self, trace: Trace) -> ReferenceResult:
        """Simulate ``trace`` and return the measured result."""
        state = _SimulationState(self.memory, self.config)
        state.consume(trace)
        return state.finish(trace)


def simulate_reference(
    trace: Trace,
    latency: int,
    config: Optional[ReferenceConfig] = None,
) -> ReferenceResult:
    """Convenience wrapper: simulate ``trace`` at the given memory latency."""
    simulator = ReferenceSimulator(MemoryModel(latency=latency), config=config)
    return simulator.run(trace)


class _SimulationState:
    """Issue rules of the reference machine over a :class:`TimingCore`."""

    def __init__(self, memory: MemoryModel, config: ReferenceConfig) -> None:
        self.memory = memory
        self.config = config
        self.core = TimingCore()
        self.fus = self.core.add_pool("FU", count=2, unit_names=("FU1", "FU2"))
        self.fabric = MemoryFabric(
            config.scalar_cache,
            ports=config.memory_ports,
            scalar_store_writes_through=config.scalar_store_writes_through,
        )

        self.dispatch_free = 0
        self.instructions = 0
        self.vector_instructions = 0
        self.scalar_instructions = 0

    # -- per-run operand binding ------------------------------------------------------------

    def _bind(self, infos: List[InstructionInfo]) -> List[tuple]:
        """Each unique instruction's issue rule with its registers bound to entries.

        One tuple per unique instruction: ``(kind, may_chain, reads, writes,
        flag)``.  ``reads`` are the entries of the instruction's sources;
        ``writes`` the entries its rule writes — paired with their vector
        flag for vector arithmetic, empty for stores; ``flag`` is
        ``requires_fu2`` for vector arithmetic, ``is_load`` for vector
        memory and ``is_store`` for scalar memory.  Exactly the registers
        each rule touches are bound, so the scoreboard ends the run holding
        the same entries as on-demand lookups would create.
        """
        entry = self.core.scoreboard.entry
        bound = []
        for info in infos:
            kind = info.kind
            reads = tuple(entry(register) for register in info.sources)
            flag = False
            if kind == KIND_VECTOR_COMPUTE:
                writes = tuple(
                    (entry(register), is_vector)
                    for register, is_vector in info.destination_flags
                )
                flag = info.requires_fu2
            else:
                if kind == KIND_VECTOR_MEMORY:
                    flag = info.is_load
                elif kind == KIND_SCALAR_MEMORY:
                    flag = info.is_store
                if kind == KIND_QUEUE_MOVE or info.is_store:
                    writes = ()
                else:
                    writes = tuple(entry(register) for register in info.destinations)
            bound.append((kind, info.may_chain, reads, writes, flag))
        return bound

    # -- main issue loop ---------------------------------------------------------------

    def consume(self, trace: Trace) -> None:
        """Issue every dynamic instruction of the trace, in program order.

        One pass over the columns: the static facts and bound scoreboard
        entries of each instruction come from :meth:`_bind`, the dynamic
        facts (VL, base address) from integer column reads, and the
        dispatcher, the completion horizon, the stall counter, the traffic
        and the per-category cycles live in locals written back once at the
        end.  Port occupation, bus cycles and load-ready arithmetic are
        written in the loop on the port pool's ``free`` list; busy intervals
        are appended straight to the recorders' lists.  The only call per
        reference is the scalar cache's ``access``.
        """
        columns = trace.columns
        bound = self._bind(columns.instruction_infos())
        insn = columns.insn
        lengths = columns.vl
        addresses = columns.addr

        config = self.config
        lanes = config.lanes
        fu_startup = config.functional_unit_startup
        load_chaining = config.allow_load_chaining
        timings = self.memory.timings
        latency = timings.latency
        bus_cycles_per_element = timings.bus_cycles_per_element
        scalar_bus_cycles = timings.scalar_bus_cycles
        fu_free = self.fus.free
        fu_starts = tuple(recorder.starts for recorder in self.fus.recorders)
        fu_ends = tuple(recorder.ends for recorder in self.fus.recorders)
        fabric = self.fabric
        cache_access = fabric.cache.access
        hit_latency = fabric.cache.config.hit_latency
        writes_through = fabric.scalar_store_writes_through
        port_free = fabric.ports.free
        port_starts = tuple(recorder.starts for recorder in fabric.ports.recorders)
        port_ends = tuple(recorder.ends for recorder in fabric.ports.recorders)
        single_port = len(port_free) == 1
        traffic = 0

        core = self.core
        horizon = core.horizon
        dispatch_free = self.dispatch_free
        dispatch_stalls = 0
        # Cycles per execution category, and the order the categories first
        # appear in (the result reports them in that order).
        scalar_cycles = vector_compute_cycles = vector_memory_cycles = 0
        scalar_memory_cycles = 0
        first_seen: List[str] = []

        vector_instructions = 0
        for index in range(len(insn)):
            kind, may_chain, reads, writes, flag = bound[insn[index]]
            earliest = dispatch_free
            if may_chain:
                for entry in reads:
                    operand = entry.chain_start
                    if operand is None:
                        operand = entry.ready
                    if operand > earliest:
                        earliest = operand
            else:
                for entry in reads:
                    if entry.ready > earliest:
                        earliest = entry.ready

            if kind == KIND_VECTOR_COMPUTE:
                vector_instructions += 1
                length = lengths[index]
                if length < 1:
                    length = 1
                busy = length if lanes == 1 else -(-length // lanes)
                # FU2 executes everything, FU1 only what does not require
                # FU2; the least-loaded eligible unit wins, FU1 taking ties.
                unit = _FU2 if flag or fu_free[_FU1] > fu_free[_FU2] else _FU1
                issue = fu_free[unit] if fu_free[unit] > earliest else earliest
                fu_free[unit] = end = issue + busy
                fu_starts[unit].append(issue)
                fu_ends[unit].append(end)
                dispatch_stalls += issue - dispatch_free
                dispatch_free = issue + 1

                first_element = issue + fu_startup
                completion = first_element + busy
                # Scalar results of reductions are not chainable; vector results are.
                for entry, is_vector in writes:
                    entry.ready = completion
                    entry.chain_start = first_element if is_vector else None
                if not vector_compute_cycles:
                    first_seen.append("vector_compute")
                vector_compute_cycles += busy

            elif kind == KIND_VECTOR_MEMORY:
                # VL bus cycles on the least-loaded port (the first unit
                # wins ties); the pipelined port returns a load's last
                # element ``latency`` cycles after its last bus cycle.
                vector_instructions += 1
                length = lengths[index]
                bus_cycles = (length if length > 1 else 1) * bus_cycles_per_element
                unit = 0 if single_port else port_free.index(min(port_free))
                issue = port_free[unit] if port_free[unit] > earliest else earliest
                port_free[unit] = completion = issue + bus_cycles
                port_starts[unit].append(issue)
                port_ends[unit].append(completion)
                traffic += length * ELEMENT_SIZE_BYTES
                dispatch_stalls += issue - dispatch_free
                dispatch_free = issue + 1

                if flag:
                    completion += latency
                    chain_start = issue + latency if load_chaining else None
                    for entry in writes:
                        entry.ready = completion
                        entry.chain_start = chain_start
                if not vector_memory_cycles:
                    first_seen.append("vector_memory")
                vector_memory_cycles += bus_cycles

            elif kind == KIND_SCALAR_MEMORY:
                # Loads use the port only on a cache miss, stores also on a
                # hit when the machine writes through.
                hit = cache_access(addresses[index])
                if not hit or (flag and writes_through):
                    unit = 0 if single_port else port_free.index(min(port_free))
                    issue = port_free[unit] if port_free[unit] > earliest else earliest
                    port_free[unit] = end = issue + scalar_bus_cycles
                    port_starts[unit].append(issue)
                    port_ends[unit].append(end)
                    traffic += ELEMENT_SIZE_BYTES
                else:
                    issue = earliest
                dispatch_stalls += issue - dispatch_free
                dispatch_free = issue + 1

                if flag:
                    completion = issue + 1
                else:
                    completion = issue + hit_latency if hit else issue + 1 + latency
                    for entry in writes:
                        entry.ready = completion
                        entry.chain_start = None
                if not scalar_memory_cycles:
                    first_seen.append("scalar_memory")
                scalar_memory_cycles += 1

            elif kind == KIND_QUEUE_MOVE:
                raise SimulationError(
                    "queue-move opcodes are internal to the decoupled architecture "
                    "and cannot appear in a reference-architecture trace"
                )

            else:
                dispatch_stalls += earliest - dispatch_free
                dispatch_free = completion = earliest + 1
                for entry in writes:
                    entry.ready = completion
                    entry.chain_start = None
                if not scalar_cycles:
                    first_seen.append("scalar")
                scalar_cycles += 1

            if completion > horizon:
                horizon = completion

        core.horizon = horizon
        self.dispatch_free = dispatch_free
        fabric.traffic_bytes += traffic
        stalls = core.stalls
        stalls.stall("dispatch", dispatch_stalls)
        cycles = {
            "scalar": scalar_cycles,
            "vector_compute": vector_compute_cycles,
            "vector_memory": vector_memory_cycles,
            "scalar_memory": scalar_memory_cycles,
        }
        for category in first_seen:
            stalls.account(category, cycles[category])
        self.instructions = len(insn)
        self.vector_instructions = vector_instructions
        self.scalar_instructions = len(insn) - vector_instructions

    # -- wind-down -------------------------------------------------------------------------

    def finish(self, trace: Trace) -> ReferenceResult:
        total_cycles = self.core.finish_time(self.dispatch_free)
        return ReferenceResult(
            program=trace.name,
            latency=self.memory.latency,
            total_cycles=total_cycles,
            instructions=self.instructions,
            vector_instructions=self.vector_instructions,
            scalar_instructions=self.scalar_instructions,
            fu1_busy=self.fus.recorder(_FU1),
            fu2_busy=self.fus.recorder(_FU2),
            port_busy=self.fabric.port_recorder(),
            memory_traffic_bytes=self.fabric.traffic_bytes,
            scalar_cache_hits=self.fabric.cache.hits,
            scalar_cache_misses=self.fabric.cache.misses,
            dispatch_stall_cycles=self.core.stalls.stalls("dispatch"),
            category_cycles=self.core.stalls.categories(),
        )
