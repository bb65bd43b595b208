"""One-pass (tick) simulator of the decoupled vector architecture.

The simulator performs a single pass over the dynamic trace in program order.
For every traced instruction it advances, in this order, the fetch processor
(which translates and distributes the instruction), the processor that
executes the instruction itself, and the processor that executes the hidden
QMOV companion the fetch processor generated for it.  Because every processor
works through its stream in order and all queues are FIFO, the blocking
behaviour of the bounded queues reduces to timestamp arithmetic on each
:class:`~repro.dva.queues.TimedQueue`'s push/pop lists, and each issue cycle
is the running ``max`` of the constraints on it — the timing a cycle-stepped
simulation would give, without stepping cycles.

The timing machinery — the owner-aware register scoreboard, the per-processor
issue pointers, the functional-unit/QMOV/port pools, fetch-stall accounting
and the completion horizon — is the shared :mod:`repro.engine` kernel; this
module contributes only the issue rules of the four processors.  The main
loop runs over the trace's columns.  Routing decisions are precomputed per
unique static instruction (cached on the trace via
:meth:`~repro.trace.columns.ColumnarTrace.instruction_infos` and the
``dva_routes`` annotation), and once per run every unique instruction's
operand and destination registers are bound to their
:class:`~repro.engine.scoreboard.RegisterEntry` objects, so the issue rules
read and write ``ready``/``chain_start``/``owner`` directly.  The dynamic
facts — vector length, stride, base address — are integer column reads held
in locals, as are the processors' issue pointers and every queue's timestamp
list.  The memory side of the address processor (paper §4.2) is loop code on
locals too: the pipelined port with its shared address bus, the two-step
store mechanism (store addresses wait in the VSAQ/SSAQ until the data
arrives in the VADQ/SADQ, then the store is performed behind the AP's back),
dynamic disambiguation of every load against the queued stores, the §7
store→load bypass and the scalar cache in front of the port.  The decoupling
(and its limits) emerge from the timestamps: the address processor is free
to run ahead of the vector processor because nothing it does waits for
vector computation — until it meets a full queue, a memory hazard against a
queued store, or a scalar value that the slower side has not produced yet
(the DYFESM lockstep case of paper §5).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.intervals import IntervalRecorder
from repro.dva.config import DecoupledConfig
from repro.dva.fetch import Processor, route_instruction
from repro.dva.queues import TimedQueue
from repro.dva.result import DecoupledResult
from repro.dva.vector import _FU1, _FU2, VectorExecutionResources
from repro.engine import MemoryFabric, TimingCore
from repro.isa.opcodes import Opcode
from repro.isa.registers import ELEMENT_SIZE_BYTES, Register, RegisterClass
from repro.memory.model import MemoryModel
from repro.memory.ranges import access_bounds
from repro.trace.columns import ColumnarTrace, InstructionInfo
from repro.trace.record import Trace

#: Queue-move dispatch codes precomputed per unique instruction.
_QMOV_NONE = 0
_QMOV_V_LOAD = 1
_QMOV_V_STORE = 2
_QMOV_S_LOAD = 3
_QMOV_S_STORE = 4

_QMOV_CODES = {
    None: _QMOV_NONE,
    Opcode.QMOV_V_LOAD: _QMOV_V_LOAD,
    Opcode.QMOV_V_STORE: _QMOV_V_STORE,
    Opcode.QMOV_S_LOAD: _QMOV_S_LOAD,
    Opcode.QMOV_S_STORE: _QMOV_S_STORE,
}

#: Primary-processor dispatch codes (also the instruction-queue ids of the
#: three queue-backed processors, in ``(APIQ, VPIQ, SPIQ)`` order).
_PRIMARY_ADDRESS = 0
_PRIMARY_VECTOR = 1
_PRIMARY_SCALAR = 2
_PRIMARY_FETCH = 3

_PRIMARY_CODES = {
    Processor.ADDRESS: _PRIMARY_ADDRESS,
    Processor.VECTOR: _PRIMARY_VECTOR,
    Processor.SCALAR: _PRIMARY_SCALAR,
    Processor.FETCH: _PRIMARY_FETCH,
}

#: One routing entry per unique instruction: (primary dispatch code, QMOV
#: dispatch code, instruction-queue ids receiving an entry).
RouteEntry = Tuple[int, int, Tuple[int, ...]]

#: Issue-rule codes of the tick core: one per (primary, QMOV) combination the
#: fetch processor's routing produces.
_OP_FETCH = 0
_OP_ADDRESS = 1
_OP_VECTOR = 2
_OP_SCALAR = 3
_OP_VECTOR_LOAD = 4
_OP_VECTOR_STORE = 5
_OP_SCALAR_LOAD = 6
_OP_SCALAR_STORE = 7

_OPS = {
    (_PRIMARY_FETCH, _QMOV_NONE): _OP_FETCH,
    (_PRIMARY_ADDRESS, _QMOV_NONE): _OP_ADDRESS,
    (_PRIMARY_VECTOR, _QMOV_NONE): _OP_VECTOR,
    (_PRIMARY_SCALAR, _QMOV_NONE): _OP_SCALAR,
    (_PRIMARY_ADDRESS, _QMOV_V_LOAD): _OP_VECTOR_LOAD,
    (_PRIMARY_ADDRESS, _QMOV_V_STORE): _OP_VECTOR_STORE,
    (_PRIMARY_ADDRESS, _QMOV_S_LOAD): _OP_SCALAR_LOAD,
    (_PRIMARY_ADDRESS, _QMOV_S_STORE): _OP_SCALAR_STORE,
}

#: The register list whose first entry a memory reference's QMOV moves.
_MOVED_REGISTERS = {
    _OP_VECTOR_LOAD: "vector_destinations",
    _OP_VECTOR_STORE: "vector_sources",
    _OP_SCALAR_LOAD: "scalar_destinations",
    _OP_SCALAR_STORE: "scalar_sources",
}

_ADDRESS = Processor.ADDRESS
_VECTOR = Processor.VECTOR
_SCALAR = Processor.SCALAR


def _routing_table(columns: ColumnarTrace) -> List[RouteEntry]:
    """The fetch processor's decisions for every unique instruction.

    Entries are plain integer codes (not enums or objects) so the main loop
    dispatches on them without hashing.  Cached on the trace's annotation
    dict, so repeated simulations of the same trace (every latency and
    machine variant of a sweep) share it.
    """
    infos = columns.instruction_infos()
    table = columns.annotations.get("dva_routes")
    if isinstance(table, list) and len(table) == len(infos):
        return table
    table = []
    for info in infos:
        decision = route_instruction(info.instruction)
        table.append(
            (
                _PRIMARY_CODES[decision.primary],
                _QMOV_CODES[decision.queue_move],
                tuple(_PRIMARY_CODES[target] for target in decision.targets()),
            )
        )
    columns.annotations["dva_routes"] = table
    return table


def _default_owner(register: Register) -> Processor:
    if register.register_class is RegisterClass.ADDRESS:
        return Processor.ADDRESS
    if register.register_class is RegisterClass.SCALAR:
        return Processor.SCALAR
    if register.register_class is RegisterClass.VECTOR:
        return Processor.VECTOR
    return Processor.FETCH


class DecoupledSimulator:
    """Simulates one trace on the decoupled vector architecture."""

    def __init__(
        self,
        memory: MemoryModel,
        config: Optional[DecoupledConfig] = None,
    ) -> None:
        self.memory_model = memory
        self.config = config if config is not None else DecoupledConfig()

    def run(self, trace: Trace) -> DecoupledResult:
        state = _DecoupledState(self.memory_model, self.config)
        state.consume(trace)
        return state.finish(trace)


def simulate_decoupled(
    trace: Trace,
    latency: int,
    config: Optional[DecoupledConfig] = None,
) -> DecoupledResult:
    """Convenience wrapper: simulate ``trace`` on the DVA at a given latency."""
    simulator = DecoupledSimulator(MemoryModel(latency=latency), config=config)
    return simulator.run(trace)


class _DecoupledState:
    """Issue rules of the four decoupled processors over a :class:`TimingCore`."""

    def __init__(self, memory: MemoryModel, config: DecoupledConfig) -> None:
        self.config = config
        self.memory = memory
        self.core = TimingCore(default_owner=_default_owner)
        self.fabric = MemoryFabric(
            config.scalar_cache,
            ports=config.memory_ports,
            scalar_store_writes_through=config.scalar_store_writes_through,
        )
        self.resources = VectorExecutionResources(
            qmov_unit_count=config.qmov_units, lanes=config.lanes
        )

        queues = config.queues
        self.apiq = TimedQueue("APIQ", queues.instruction_queue)
        self.vpiq = TimedQueue("VPIQ", queues.instruction_queue)
        self.spiq = TimedQueue("SPIQ", queues.instruction_queue)
        self.avdq = TimedQueue("AVDQ", queues.vector_load_data)
        self.asdq = TimedQueue("ASDQ", queues.scalar_data)
        # The VADQ's pop list is the drain cycle of every vector store, which
        # is also when its VSAQ slot is released.
        self.vadq = TimedQueue("VADQ", queues.vector_store_data)
        self.bypass = IntervalRecorder("BYPASS")
        self.bypass_free = 0
        # Completion of the wind-down drain of the store queues.
        self.drain_end = 0

        # Per-processor issue pointers: each processor is a one-unit pool
        # whose free time is the cycle it will look at its next instruction
        # (no busy intervals are recorded — nothing reads them).
        self.fp = self.core.add_pool("FP", record=False)
        self.ap = self.core.add_pool("AP", record=False)
        self.vp = self.core.add_pool("VP", record=False)
        self.sp = self.core.add_pool("SP", record=False)

        # Per-processor instruction counters; folded into the result's
        # ``instructions_per_processor`` dict at wind-down (plain int
        # attributes keep the hot loop free of dict writes).
        self.fp_count = 0
        self.ap_count = 0
        self.vp_count = 0
        self.sp_count = 0
        self.vector_loads = 0
        self.vector_stores = 0
        self.bypassed_loads = 0
        self.bypassed_bytes = 0
        self.disambiguation_stalls = 0
        # Provenance of the memory path, not part of the result: stores
        # performed early to make room in each full store queue, and scalar
        # stores that hit the cache and still wrote through to memory.
        self.forced_drains = dict.fromkeys(("VSAQ", "SSAQ", "VADQ", "SADQ"), 0)
        self.write_through_hits = 0

    # -- per-run operand binding ------------------------------------------------------------

    def _bind(self, infos: List[InstructionInfo], routes: List[RouteEntry]) -> List[tuple]:
        """Each unique instruction's issue rule with its registers bound to entries.

        One tuple per unique instruction: ``(op, reads, writes, moved, flag,
        info)``.  ``reads``/``writes`` are the scoreboard entries the primary
        rule reads and writes (``writes`` pairs each entry with its
        vector flag on the VP); ``moved`` is the entry the QMOV companion of
        a memory reference moves — written by loads, read by stores — or
        ``None`` when the instruction names no such register; ``flag`` is
        ``requires_fu2`` on the VP and ``is_indexed`` for memory references.
        The instruction queues an instruction enters follow from ``op``
        alone, so the rules push into them without a binding.  Exactly the
        registers each rule touches are bound, so the scoreboard ends the run
        holding the same entries as on-demand lookups would create.  Entries
        are per run, so the binding is too; the routing it starts from is
        cached on the trace.
        """
        entry = self.core.scoreboard.entry
        bound = []
        for info, (primary, qmov, _targets) in zip(infos, routes):
            op = _OPS[primary, qmov]
            reads: tuple = ()
            writes: tuple = ()
            moved = None
            flag = False
            if op == _OP_VECTOR:
                reads = tuple(entry(register) for register in info.data_sources)
                writes = tuple(
                    (entry(register), is_vector)
                    for register, is_vector in info.destination_flags
                )
                flag = info.requires_fu2
            elif op == _OP_SCALAR:
                reads = tuple(entry(register) for register in info.sources)
                writes = tuple(entry(register) for register in info.destinations)
            elif op != _OP_FETCH:
                # Everything the AP executes waits only for scalar operands
                # (addresses, lengths); the data registers of vector accesses
                # belong to the VP and travel through the queues instead.
                reads = tuple(entry(register) for register in info.scalar_sources)
                if op == _OP_ADDRESS:
                    writes = tuple(entry(register) for register in info.destinations)
                else:
                    flag = info.is_indexed
                    moved_registers = getattr(info, _MOVED_REGISTERS[op])
                    if moved_registers:
                        moved = entry(moved_registers[0])
            bound.append((op, reads, writes, moved, flag, info))
        return bound

    # -- main loop ------------------------------------------------------------------------

    def consume(self, trace: Trace) -> None:
        """Fetch, execute and queue-move every traced instruction in order.

        One pass over the columns: static facts and bound scoreboard entries
        come from :meth:`_bind`, dynamic facts (VL, stride, base address)
        are integer column reads, and the processors' issue pointers, the
        completion horizon and the counters live in locals written back once
        at the end.

        Every entry of the instruction queues, the AVDQ and the ASDQ is
        popped within the traced instruction that pushed it, so the rules
        write those queues' timestamp lists directly: a push appends the
        push cycle, the issuing processor appends the pop cycle, and the
        entry ``capacity`` places back — the one a push waits for — has
        always been released.  A full APIQ/VPIQ/SPIQ holds the fetch
        processor and a full AVDQ holds the AP; a full ASDQ only records its
        push late (the AP goes on).

        The memory side is written in the loop too.  Queued stores are
        parallel lists indexed by store number (program order); stores are
        performed oldest first, so numbers from ``next_store`` on are still
        queued.  A store's number is known when its address enters the
        VSAQ/SSAQ, and its QMOV companion, in the same traced instruction,
        appends the cycle both its address and data are present.  The VSAQ
        and the VADQ release a vector store's slots when it is performed,
        and so do the SSAQ and the SADQ for a scalar store, so one list of
        drain cycles per kind serves both queues of the pair.  A full store
        queue forces the oldest store out (``forced_drains``).  The pass
        ends with the wind-down drain of every store still queued.
        """
        columns = trace.columns
        bound = self._bind(columns.instruction_infos(), _routing_table(columns))
        insn = columns.insn
        lengths = columns.vl
        strides = columns.stride
        addresses = columns.addr

        config = self.config
        cross = config.cross_processor_delay
        fu_startup = config.functional_unit_startup
        qmov_startup = config.queue_move_startup
        lanes = config.lanes
        iq_capacity = config.queues.instruction_queue
        ap_pushes = self.apiq.push_times
        ap_pops = self.apiq.pop_times
        vp_pushes = self.vpiq.push_times
        vp_pops = self.vpiq.pop_times
        sp_pushes = self.spiq.push_times
        sp_pops = self.spiq.pop_times
        avdq_capacity = self.avdq.capacity
        avdq_pushes = self.avdq.push_times
        avdq_pops = self.avdq.pop_times
        asdq_capacity = self.asdq.capacity
        asdq_pushes = self.asdq.push_times
        asdq_pops = self.asdq.pop_times

        fus = self.resources.fus
        fu_free = fus.free
        fu_starts = tuple(recorder.starts for recorder in fus.recorders)
        fu_ends = tuple(recorder.ends for recorder in fus.recorders)
        qmovs = self.resources.qmovs
        qmov_free = qmovs.free
        qmov_starts = tuple(recorder.starts for recorder in qmovs.recorders)
        qmov_ends = tuple(recorder.ends for recorder in qmovs.recorders)

        timings = self.memory.timings
        latency = timings.latency
        bus_cycles_per_element = timings.bus_cycles_per_element
        scalar_bus_cycles = timings.scalar_bus_cycles
        fabric = self.fabric
        cache_access = fabric.cache.access
        hit_latency = fabric.cache.config.hit_latency
        writes_through = fabric.scalar_store_writes_through
        port_free = fabric.ports.free
        port_starts = tuple(recorder.starts for recorder in fabric.ports.recorders)
        port_ends = tuple(recorder.ends for recorder in fabric.ports.recorders)
        single_port = len(port_free) == 1
        bypass_enabled = config.enable_bypass
        bypass_starts = self.bypass.starts
        bypass_ends = self.bypass.ends
        bypass_free = self.bypass_free

        vsaq_capacity = config.queues.effective_vector_store_address
        ssaq_capacity = config.queues.scalar_store_address
        sadq_capacity = config.queues.scalar_data
        vadq_capacity = self.vadq.capacity
        # Drain cycles of the vector and the scalar stores, in order: the
        # release cycles of their VSAQ+VADQ and SSAQ+SADQ slots.  Every
        # vector store before the current one has its data in the VADQ, and
        # ``scalar_stores`` counts the scalar stores with data in the SADQ.
        vadq_pushes = self.vadq.push_times
        vector_drains = self.vadq.pop_times
        scalar_drains: List[int] = []
        scalar_stores = 0
        # The queued stores.  ``store_lows``/``store_highs`` are the byte
        # bounds of :func:`~repro.memory.ranges.access_bounds` loads are
        # disambiguated against; ``store_lengths`` is ``None`` for a scalar
        # store and ``store_strides`` is ``None`` for a store no load can
        # bypass from (a scatter or a scalar store).
        store_lows: List[float] = []
        store_highs: List[float] = []
        store_bases: List[int] = []
        store_lengths: List[Optional[int]] = []
        store_strides: List[Optional[int]] = []
        store_ready: List[int] = []
        next_store = 0
        traffic = write_through_hits = 0
        forced_vsaq = forced_ssaq = forced_vadq = forced_sadq = 0

        def drain(number: int) -> int:
            """Perform queued store ``number``; return the cycle it leaves its queues."""
            nonlocal traffic, write_through_hits
            ready = store_ready[number]
            length = store_lengths[number]
            if length is None:
                if cache_access(store_bases[number]):
                    if not writes_through:
                        scalar_drains.append(ready + 1)
                        return ready + 1
                    write_through_hits += 1
                cycles = scalar_bus_cycles
                traffic += ELEMENT_SIZE_BYTES
                drains = scalar_drains
            else:
                cycles = (length if length > 1 else 1) * bus_cycles_per_element
                traffic += length * ELEMENT_SIZE_BYTES
                drains = vector_drains
            unit = 0 if single_port else port_free.index(min(port_free))
            start = port_free[unit] if port_free[unit] > ready else ready
            port_free[unit] = end = start + cycles
            port_starts[unit].append(start)
            port_ends[unit].append(end)
            drains.append(end)
            return end

        core = self.core
        horizon = core.horizon
        fp_time = fp_start = self.fp.free[0]
        ap_time = self.ap.free[0]
        vp_time = self.vp.free[0]
        sp_time = self.sp.free[0]
        ap_count = vp_count = sp_count = 0
        vector_loads = vector_stores = 0
        bypassed_loads = bypassed_bytes = disambiguation_stalls = 0

        for index in range(len(insn)):
            op, reads, writes, moved, flag, info = bound[insn[index]]

            # Fetch: translate and distribute.  The push cycle is the first
            # cycle every target instruction queue can accept an entry; the
            # rule's route fixes the targets.  The FP moves on one cycle
            # after the push, so its stalls are its final issue pointer less
            # one cycle per instruction.
            push_time = fp_time

            if op == _OP_VECTOR:
                depth = len(vp_pushes)
                if depth >= iq_capacity and vp_pops[depth - iq_capacity] > push_time:
                    push_time = vp_pops[depth - iq_capacity]
                vp_pushes.append(push_time)
                ready = fp_time = push_time + 1

                vp_count += 1
                start = vp_time if vp_time > ready else ready
                for entry in reads:
                    if entry.owner is _VECTOR:
                        operand = entry.chain_start
                        if operand is None:
                            operand = entry.ready
                    else:
                        operand = entry.ready + cross
                    if operand > start:
                        start = operand
                length = lengths[index]
                if length < 1:
                    length = 1
                busy = length if lanes == 1 else -(-length // lanes)
                # FU2 executes everything, FU1 only what does not require
                # FU2; the least-loaded eligible unit wins, FU1 taking ties.
                unit = _FU2 if flag or fu_free[_FU1] > fu_free[_FU2] else _FU1
                if fu_free[unit] > start:
                    start = fu_free[unit]
                fu_free[unit] = end = start + busy
                fu_starts[unit].append(start)
                fu_ends[unit].append(end)
                vp_pops.append(start)
                vp_time = start + 1
                chain = start + fu_startup
                completion = chain + busy
                for entry, is_vector in writes:
                    entry.ready = completion
                    entry.chain_start = chain if is_vector else None
                    entry.owner = _VECTOR
                if completion > horizon:
                    horizon = completion
                continue

            if op == _OP_SCALAR:
                depth = len(sp_pushes)
                if depth >= iq_capacity and sp_pops[depth - iq_capacity] > push_time:
                    push_time = sp_pops[depth - iq_capacity]
                sp_pushes.append(push_time)
                ready = fp_time = push_time + 1

                sp_count += 1
                start = sp_time if sp_time > ready else ready
                for entry in reads:
                    operand = entry.ready if entry.owner is _SCALAR else entry.ready + cross
                    if operand > start:
                        start = operand
                sp_pops.append(start)
                sp_time = completion = start + 1
                for entry in writes:
                    entry.ready = completion
                    entry.chain_start = None
                    entry.owner = _SCALAR
                continue

            if op == _OP_FETCH:
                # Consumed during translation, nothing further.
                fp_time += 1
                continue

            # The address processor: address arithmetic, AP-resolved branches
            # and the address half of every memory reference, whose QMOV
            # companion enters the VPIQ (vector) or the SPIQ (scalar).
            depth = len(ap_pushes)
            if depth >= iq_capacity and ap_pops[depth - iq_capacity] > push_time:
                push_time = ap_pops[depth - iq_capacity]
            if op == _OP_ADDRESS:
                pass
            elif op <= _OP_VECTOR_STORE:
                depth = len(vp_pushes)
                if depth >= iq_capacity and vp_pops[depth - iq_capacity] > push_time:
                    push_time = vp_pops[depth - iq_capacity]
                vp_pushes.append(push_time)
            else:
                depth = len(sp_pushes)
                if depth >= iq_capacity and sp_pops[depth - iq_capacity] > push_time:
                    push_time = sp_pops[depth - iq_capacity]
                sp_pushes.append(push_time)
            ap_pushes.append(push_time)
            ready = fp_time = push_time + 1

            ap_count += 1
            start = ap_time if ap_time > ready else ready
            for entry in reads:
                operand = entry.ready if entry.owner is _ADDRESS else entry.ready + cross
                if operand > start:
                    start = operand

            if op == _OP_ADDRESS:
                # Address arithmetic and AP-resolved branches take one cycle.
                ap_pops.append(start)
                ap_time = finish = start + 1
                for entry in writes:
                    entry.ready = finish
                    entry.chain_start = None
                    entry.owner = _ADDRESS
                continue

            length = lengths[index]
            base = addresses[index]
            if op == _OP_VECTOR_LOAD:
                vector_loads += 1
                depth = len(avdq_pushes)
                if depth >= avdq_capacity and avdq_pops[depth - avdq_capacity] > start:
                    start = avdq_pops[depth - avdq_capacity]

                # Disambiguation: the load waits for the youngest queued
                # store it overlaps — or, with the bypass (§7), copies an
                # identical strided store's data from the VADQ in VL cycles
                # without the port or memory latency.  Other stores whose
                # address and data are present go first.
                issue = start
                bypassed = False
                if next_store < len(store_lows):
                    stride = strides[index]
                    low, high = access_bounds(base, length, stride, indexed=flag)
                    number = len(store_lows) - 1
                    while number >= next_store and not (
                        store_lows[number] < high and low < store_highs[number]
                    ):
                        number -= 1
                    if number >= next_store and (
                        bypass_enabled
                        and not flag
                        and store_strides[number] == stride
                        and store_bases[number] == base
                        and store_lengths[number] == length
                    ):
                        if store_ready[number] > issue:
                            issue = store_ready[number]
                        if bypass_free > issue:
                            issue = bypass_free
                        bypass_free = data_ready = issue + (length if length > 1 else 1)
                        bypassed = True
                        bypass_starts.append(issue)
                        bypass_ends.append(data_ready)
                        bypassed_loads += 1
                        bypassed_bytes += length * ELEMENT_SIZE_BYTES
                    else:
                        if number >= next_store:
                            while next_store <= number:
                                end = drain(next_store)
                                next_store += 1
                            if end > issue:
                                issue = end
                            disambiguation_stalls += 1
                        while next_store < len(store_ready):
                            ready_store = store_ready[next_store]
                            if ready_store > issue and ready_store > min(port_free):
                                break
                            drain(next_store)
                            next_store += 1
                if not bypassed:
                    cycles = (length if length > 1 else 1) * bus_cycles_per_element
                    unit = 0 if single_port else port_free.index(min(port_free))
                    if port_free[unit] > issue:
                        issue = port_free[unit]
                    port_free[unit] = end = issue + cycles
                    port_starts[unit].append(issue)
                    port_ends[unit].append(end)
                    traffic += length * ELEMENT_SIZE_BYTES
                    data_ready = end + latency
                avdq_pushes.append(start)
                ap_pops.append(start)
                ap_time = start + 1

                # QMOV on the VP: AVDQ → vector register.  The load's own
                # entry is the AVDQ head (every earlier entry was popped by
                # its own QMOV), so its data-ready cycle is the head's.
                vp_count += 1
                start = vp_time if vp_time > ready else ready
                if data_ready > start:
                    start = data_ready
                if length < 1:
                    length = 1
                unit = qmov_free.index(min(qmov_free))
                if qmov_free[unit] > start:
                    start = qmov_free[unit]
                end = qmov_free[unit] = start + length
                qmov_starts[unit].append(start)
                qmov_ends[unit].append(end)
                vp_pops.append(start)
                vp_time = start + 1
                avdq_pops.append(end)
                if moved is None:
                    raise SimulationError(
                        f"vector load without a vector destination: {info.instruction}"
                    )
                moved.ready = completion = end + qmov_startup
                moved.chain_start = start + qmov_startup
                moved.owner = _VECTOR
                if completion > horizon:
                    horizon = completion

            elif op == _OP_VECTOR_STORE:
                # The address enters the VSAQ, whose slot ``capacity`` stores
                # back is released when that store is performed.
                vector_stores += 1
                while len(vadq_pushes) - len(vector_drains) >= vsaq_capacity:
                    forced_vsaq += 1
                    drain(next_store)
                    next_store += 1
                depth = len(vadq_pushes)
                push = start
                if depth >= vsaq_capacity and vector_drains[depth - vsaq_capacity] > push:
                    push = vector_drains[depth - vsaq_capacity]
                stride = strides[index]
                low, high = access_bounds(base, length, stride, indexed=flag)
                store_lows.append(low)
                store_highs.append(high)
                store_bases.append(base)
                store_lengths.append(length)
                store_strides.append(None if flag else stride)
                ap_pops.append(start)
                ap_time = address_ready = push + 1

                # QMOV on the VP: vector register → VADQ.
                vp_count += 1
                start = vp_time if vp_time > ready else ready
                if moved is None:
                    raise SimulationError(
                        f"vector store without a vector data register: {info.instruction}"
                    )
                if moved.owner is _VECTOR:
                    operand = moved.chain_start
                    if operand is None:
                        operand = moved.ready
                else:
                    operand = moved.ready + cross
                if operand > start:
                    start = operand
                while len(vadq_pushes) - len(vector_drains) >= vadq_capacity:
                    forced_vadq += 1
                    drain(next_store)
                    next_store += 1
                if depth >= vadq_capacity and vector_drains[depth - vadq_capacity] > start:
                    start = vector_drains[depth - vadq_capacity]
                if length < 1:
                    length = 1
                unit = qmov_free.index(min(qmov_free))
                if qmov_free[unit] > start:
                    start = qmov_free[unit]
                data_ready = qmov_free[unit] = start + length
                qmov_starts[unit].append(start)
                qmov_ends[unit].append(data_ready)
                vp_pops.append(start)
                vp_time = start + 1
                vadq_pushes.append(start)
                store_ready.append(address_ready if address_ready > data_ready else data_ready)
                if data_ready > horizon:
                    horizon = data_ready

            elif op == _OP_SCALAR_LOAD:
                # A load waits for the youngest queued store it overlaps; a
                # cache hit then needs no port, a miss lets ready stores go
                # first.
                issue = start
                if next_store < len(store_lows):
                    high = base + ELEMENT_SIZE_BYTES
                    number = len(store_lows) - 1
                    while number >= next_store and not (
                        store_lows[number] < high and base < store_highs[number]
                    ):
                        number -= 1
                    if number >= next_store:
                        while next_store <= number:
                            end = drain(next_store)
                            next_store += 1
                        if end > issue:
                            issue = end
                        disambiguation_stalls += 1
                if cache_access(base):
                    data_ready = issue + hit_latency
                else:
                    while next_store < len(store_ready):
                        ready_store = store_ready[next_store]
                        if ready_store > issue and ready_store > min(port_free):
                            break
                        drain(next_store)
                        next_store += 1
                    unit = 0 if single_port else port_free.index(min(port_free))
                    if port_free[unit] > issue:
                        issue = port_free[unit]
                    port_free[unit] = end = issue + scalar_bus_cycles
                    port_starts[unit].append(issue)
                    port_ends[unit].append(end)
                    traffic += ELEMENT_SIZE_BYTES
                    data_ready = issue + 1 + latency
                depth = len(asdq_pushes)
                if depth >= asdq_capacity and asdq_pops[depth - asdq_capacity] > start:
                    asdq_pushes.append(asdq_pops[depth - asdq_capacity])
                else:
                    asdq_pushes.append(start)
                ap_pops.append(start)
                ap_time = start + 1

                # QMOV on the SP: ASDQ → scalar register; the load's own
                # entry is the ASDQ head.
                sp_count += 1
                start = sp_time if sp_time > ready else ready
                if data_ready > start:
                    start = data_ready
                sp_pops.append(start)
                sp_time = completion = start + 1
                asdq_pops.append(completion)
                if moved is not None:
                    moved.ready = completion
                    moved.chain_start = None
                    moved.owner = _SCALAR

            else:
                # The address enters the SSAQ, whose slot ``capacity`` scalar
                # stores back is released when that store is performed.
                while scalar_stores - len(scalar_drains) >= ssaq_capacity:
                    forced_ssaq += 1
                    drain(next_store)
                    next_store += 1
                push = start
                if (
                    scalar_stores >= ssaq_capacity
                    and scalar_drains[scalar_stores - ssaq_capacity] > push
                ):
                    push = scalar_drains[scalar_stores - ssaq_capacity]
                store_lows.append(base)
                store_highs.append(base + ELEMENT_SIZE_BYTES)
                store_bases.append(base)
                store_lengths.append(None)
                store_strides.append(None)
                ap_pops.append(start)
                ap_time = address_ready = push + 1

                # QMOV on the SP: scalar register → SADQ.
                sp_count += 1
                start = sp_time if sp_time > ready else ready
                if moved is not None:
                    operand = moved.ready if moved.owner is _SCALAR else moved.ready + cross
                    if operand > start:
                        start = operand
                sp_pops.append(start)
                sp_time = completion = start + 1
                while scalar_stores - len(scalar_drains) >= sadq_capacity:
                    forced_sadq += 1
                    drain(next_store)
                    next_store += 1
                scalar_stores += 1
                store_ready.append(address_ready if address_ready > completion else completion)

        # Wind-down: perform every store still queued.
        drain_end = max(port_free)
        while next_store < len(store_ready):
            end = drain(next_store)
            next_store += 1
            if end > drain_end:
                drain_end = end

        # The FP, AP and SP issue pointers only grow, and each one passed the
        # completion or data-ready cycle of everything its rules finished
        # (a scalar load's data arrives before its QMOV completes), so their
        # final values stand for all of those horizon updates.
        core.horizon = max(horizon, fp_time, ap_time, sp_time)
        core.stalls.stall("fetch", fp_time - fp_start - len(insn))
        self.fp.free[0] = fp_time
        self.ap.free[0] = ap_time
        self.vp.free[0] = vp_time
        self.sp.free[0] = sp_time
        self.bypass_free = bypass_free
        self.drain_end = drain_end
        fabric.traffic_bytes += traffic
        self.fp_count += len(insn)
        self.ap_count += ap_count
        self.vp_count += vp_count
        self.sp_count += sp_count
        self.vector_loads += vector_loads
        self.vector_stores += vector_stores
        self.bypassed_loads += bypassed_loads
        self.bypassed_bytes += bypassed_bytes
        self.disambiguation_stalls += disambiguation_stalls
        forced = self.forced_drains
        forced["VSAQ"] += forced_vsaq
        forced["SSAQ"] += forced_ssaq
        forced["VADQ"] += forced_vadq
        forced["SADQ"] += forced_sadq
        self.write_through_hits += write_through_hits

    # -- wind-down ------------------------------------------------------------------------------------------

    def finish(self, trace: Trace) -> DecoupledResult:
        fabric = self.fabric
        total_cycles = self.core.finish_time(
            self.fp.free_time(),
            self.ap.free_time(),
            self.vp.free_time(),
            self.sp.free_time(),
            fabric.port_quiet(),
            self.bypass_free,
            self.drain_end,
        )
        if not len(trace):
            total_cycles = 0

        counts = {
            "FP": self.fp_count,
            "AP": self.ap_count,
            "VP": self.vp_count,
            "SP": self.sp_count,
            "vector_loads": self.vector_loads,
            "vector_stores": self.vector_stores,
        }
        return DecoupledResult(
            program=trace.name,
            latency=self.memory.latency,
            total_cycles=total_cycles,
            instructions=len(trace),
            bypass_enabled=self.config.enable_bypass,
            fu1_busy=self.resources.fu1,
            fu2_busy=self.resources.fu2,
            port_busy=fabric.port_recorder(),
            qmov_busy=list(self.resources.qmov_units),
            bypass_busy=self.bypass,
            avdq_occupancy=self.avdq.occupancy_timeline("AVDQ", horizon=total_cycles),
            timeline_queues={
                "VADQ": self.vadq,
                "APIQ": self.apiq,
                "VPIQ": self.vpiq,
                "SPIQ": self.spiq,
            },
            instructions_per_processor=counts,
            memory_traffic_bytes=fabric.traffic_bytes,
            bypassed_loads=self.bypassed_loads,
            bypassed_bytes=self.bypassed_bytes,
            disambiguation_stalls=self.disambiguation_stalls,
            fetch_stall_cycles=self.core.stalls.stalls("fetch"),
            scalar_cache_hits=fabric.cache.hits,
            scalar_cache_misses=fabric.cache.misses,
        )
