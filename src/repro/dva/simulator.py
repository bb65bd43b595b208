"""One-pass (tick) simulator of the decoupled vector architecture.

The simulator performs a single pass over the dynamic trace in program order.
For every traced instruction it advances, in this order, the fetch processor
(which translates and distributes the instruction), the processor that
executes the instruction itself, and the processor that executes the hidden
QMOV companion the fetch processor generated for it.  Because every processor
works through its stream in order and all queues are FIFO, the blocking
behaviour of the bounded queues reduces to timestamp arithmetic on each
:class:`~repro.dva.queues.TimedQueue`'s push/ready/pop lists, and each issue
cycle is the running ``max`` of the constraints on it — the timing a
cycle-stepped simulation would give, without stepping cycles.

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
in locals, as are the processors' issue pointers and the timestamp lists of
the queues whose entries live within one traced instruction (the three
instruction queues, the AVDQ and the ASDQ), which the issue rules append to
directly.  Stores go through the
:class:`~repro.dva.address.MemoryPipeline`, which keeps its queued stores in
columns.  The decoupling (and its limits) emerge from the
timestamps: the address processor is free to run ahead of the vector
processor because nothing it does waits for vector computation — until it
meets a full queue, a memory hazard against a queued store, or a scalar
value that the slower side has not produced yet (the DYFESM lockstep case of
paper §5).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.dva.address import MemoryPipeline
from repro.dva.config import DecoupledConfig
from repro.dva.fetch import Processor, route_instruction
from repro.dva.queues import TimedQueue
from repro.dva.result import DecoupledResult
from repro.dva.vector import _FU1, _FU2, VectorExecutionResources
from repro.engine import TimingCore
from repro.isa.opcodes import Opcode
from repro.isa.registers import Register, RegisterClass
from repro.memory.model import MemoryModel
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
        self.core = TimingCore(default_owner=_default_owner)
        self.memory = MemoryPipeline(memory, config)
        self.resources = VectorExecutionResources(
            qmov_unit_count=config.qmov_units, lanes=config.lanes
        )

        queue_size = config.queues.instruction_queue
        self.apiq = TimedQueue("APIQ", queue_size)
        self.vpiq = TimedQueue("VPIQ", queue_size)
        self.spiq = TimedQueue("SPIQ", queue_size)
        # Indexed by the routing table's integer queue ids.
        self._iqs = (self.apiq, self.vpiq, self.spiq)

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
        always been released.  Instruction-queue ready cycles (push + 1) are
        filled in once after the loop.  A full APIQ/VPIQ/SPIQ holds the
        fetch processor and a full AVDQ holds the AP; a full ASDQ only
        records its push late (the AP goes on).  The store queues keep their
        :class:`~repro.dva.queues.TimedQueue` methods: their entries leave
        when stores drain, long after the push.
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

        fus = self.resources.fus
        fu_free = fus.free
        fu_record = tuple(recorder.record for recorder in fus.recorders)
        qmovs = self.resources.qmovs
        qmov_free = qmovs.free
        qmov_record = tuple(recorder.record for recorder in qmovs.recorders)

        memory = self.memory
        issue_vector_load = memory.issue_vector_load
        issue_scalar_load = memory.issue_scalar_load
        enqueue_vector_store = memory.enqueue_vector_store
        enqueue_scalar_store = memory.enqueue_scalar_store
        reserve_store_slot = memory.reserve_vector_store_data_slot
        attach_vector_store_data = memory.attach_vector_store_data
        attach_scalar_store_data = memory.attach_scalar_store_data
        avdq_capacity = memory.avdq.capacity
        avdq_pushes = memory.avdq.push_times
        avdq_readies = memory.avdq.ready_times
        avdq_pops = memory.avdq.pop_times
        asdq_capacity = memory.asdq.capacity
        asdq_pushes = memory.asdq.push_times
        asdq_readies = memory.asdq.ready_times
        asdq_pops = memory.asdq.pop_times

        core = self.core
        horizon = core.horizon
        fp_time = fp_start = self.fp.free[0]
        ap_time = self.ap.free[0]
        vp_time = self.vp.free[0]
        sp_time = self.sp.free[0]
        ap_count = vp_count = sp_count = 0
        vector_loads = vector_stores = 0

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
                fu_free[unit] = start + busy
                fu_record[unit](start, start + busy)
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
            if op == _OP_VECTOR_LOAD:
                vector_loads += 1
                depth = len(avdq_pushes)
                if depth >= avdq_capacity and avdq_pops[depth - avdq_capacity] > start:
                    start = avdq_pops[depth - avdq_capacity]
                data_ready = issue_vector_load(
                    addresses[index], length, strides[index], flag, start
                )
                avdq_pushes.append(start)
                avdq_readies.append(data_ready)
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
                qmov_record[unit](start, end)
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
                vector_stores += 1
                push = enqueue_vector_store(
                    index, addresses[index], length, strides[index], flag, start
                )
                ap_pops.append(start)
                ap_time = (push if push > start else start) + 1

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
                slot = reserve_store_slot(start)
                if slot > start:
                    start = slot
                if length < 1:
                    length = 1
                unit = qmov_free.index(min(qmov_free))
                if qmov_free[unit] > start:
                    start = qmov_free[unit]
                data_ready = qmov_free[unit] = start + length
                qmov_record[unit](start, data_ready)
                vp_pops.append(start)
                vp_time = start + 1
                attach_vector_store_data(index, start, data_ready)
                if data_ready > horizon:
                    horizon = data_ready

            elif op == _OP_SCALAR_LOAD:
                data_ready = issue_scalar_load(addresses[index], start)
                depth = len(asdq_pushes)
                if depth >= asdq_capacity and asdq_pops[depth - asdq_capacity] > start:
                    asdq_pushes.append(asdq_pops[depth - asdq_capacity])
                else:
                    asdq_pushes.append(start)
                asdq_readies.append(data_ready)
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
                push = enqueue_scalar_store(index, addresses[index], start)
                ap_pops.append(start)
                ap_time = (push if push > start else start) + 1

                # QMOV on the SP: scalar register → SADQ.
                sp_count += 1
                start = sp_time if sp_time > ready else ready
                if moved is not None:
                    operand = moved.ready if moved.owner is _SCALAR else moved.ready + cross
                    if operand > start:
                        start = operand
                sp_pops.append(start)
                sp_time = completion = start + 1
                attach_scalar_store_data(index, start, completion)

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
        for queue in self._iqs:
            pushes = queue.push_times
            queue.ready_times.extend(
                [push_time + 1 for push_time in pushes[len(queue.ready_times):]]
            )
            queue.released_through(len(pushes))
        for queue in (memory.avdq, memory.asdq):
            queue.released_through(len(queue.push_times))
        self.fp_count += len(insn)
        self.ap_count += ap_count
        self.vp_count += vp_count
        self.sp_count += sp_count
        self.vector_loads += vector_loads
        self.vector_stores += vector_stores

    # -- wind-down ------------------------------------------------------------------------------------------

    def finish(self, trace: Trace) -> DecoupledResult:
        drain_end = self.memory.drain_all()
        total_cycles = self.core.finish_time(
            self.fp.free_time(),
            self.ap.free_time(),
            self.vp.free_time(),
            self.sp.free_time(),
            self.memory.port_quiet,
            self.memory.bypass_free,
            drain_end,
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
            latency=self.memory.memory.latency,
            total_cycles=total_cycles,
            instructions=len(trace),
            bypass_enabled=self.config.enable_bypass,
            fu1_busy=self.resources.fu1,
            fu2_busy=self.resources.fu2,
            port_busy=self.memory.port,
            qmov_busy=list(self.resources.qmov_units),
            bypass_busy=self.memory.bypass_unit,
            avdq_occupancy=self.memory.avdq.occupancy_timeline("AVDQ", horizon=total_cycles),
            timeline_queues={
                "VADQ": self.memory.vadq,
                "APIQ": self.apiq,
                "VPIQ": self.vpiq,
                "SPIQ": self.spiq,
            },
            instructions_per_processor=counts,
            memory_traffic_bytes=self.memory.traffic_bytes,
            bypassed_loads=self.memory.bypassed_loads,
            bypassed_bytes=self.memory.bypassed_bytes,
            disambiguation_stalls=self.memory.disambiguation_stalls,
            fetch_stall_cycles=self.core.stalls.stalls("fetch"),
            scalar_cache_hits=self.memory.cache.hits,
            scalar_cache_misses=self.memory.cache.misses,
        )
