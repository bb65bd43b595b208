"""Trace generation from static programs.

The :class:`TraceBuilder` plays the role of running a Dixie-instrumented
executable: it walks basic blocks in dynamic order, keeps track of the vector
length and vector stride registers, lays program data regions out in a flat
address space, and writes each executed block's records straight into the
trace's :class:`~repro.trace.columns.ColumnarTrace` columns.

A trace replays the same few hundred static instructions thousands of times,
so everything about a block that does not change between replays — its
interned instruction indices, opcode-class bytes, strides, vector lengths,
where its memory references sit and the vector length and stride it leaves
behind — is worked out once per builder and block, on the block's first
replay, into a :class:`_BlockPlan`.  Each replay then extends the columns
with whole arrays and fills in only what depends on the replay: sequence
numbers, vector lengths inherited from before the block's first ``SET_VL``,
and the addresses of its memory references.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.common.errors import TraceError
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import ELEMENT_SIZE_BYTES, VECTOR_REGISTER_LENGTH
from repro.trace.columns import NO_ADDRESS, ColumnarTrace, kind_of
from repro.trace.record import Trace

#: Version of the trace-generation algorithm.  Any change that alters the
#: dynamic instruction stream a program model produces (instruction order,
#: addresses, vector lengths, region layout, ...) must bump this constant:
#: it is folded into every :mod:`repro.store` cache key, so bumping it
#: invalidates persisted results computed from the old streams.
#: v2: the columnar pipeline — the stream itself is unchanged, but results
#: persisted before the representation change are not served as hits.
TRACE_GENERATOR_VERSION = 2

#: Base of the data segment used by the region allocator.
_DATA_SEGMENT_BASE = 0x1000_0000

#: Base of the (scalar + vector spill) stack segment.
_STACK_SEGMENT_BASE = 0x7000_0000

#: Alignment (bytes) between allocated regions, to keep ranges visually distinct.
_REGION_ALIGNMENT = 0x1000


class RegionAllocator:
    """Lays out named data regions in a flat byte-addressed space.

    Regions whose name starts with ``spill`` or ``stack`` are placed in a
    separate stack segment, mirroring how compiler spill slots live on the
    stack while array data lives in the static data segment.
    """

    def __init__(self) -> None:
        self._addresses: Dict[str, int] = {}
        self._next_data = _DATA_SEGMENT_BASE
        self._next_stack = _STACK_SEGMENT_BASE

    def base_of(self, region: str, size_bytes: int = 0x10000) -> int:
        """Return (allocating on first use) the base address of ``region``."""
        if region in self._addresses:
            return self._addresses[region]
        is_stack = region.startswith("spill") or region.startswith("stack")
        aligned = _align(size_bytes, _REGION_ALIGNMENT)
        if is_stack:
            base = self._next_stack
            self._next_stack += aligned
        else:
            base = self._next_data
            self._next_data += aligned
        self._addresses[region] = base
        return base

    def address_of(self, region: str, element_offset: int = 0) -> int:
        """Byte address of element ``element_offset`` within ``region``."""
        return self.base_of(region) + element_offset * ELEMENT_SIZE_BYTES

    @property
    def regions(self) -> Dict[str, int]:
        """A copy of the region → base-address map."""
        return dict(self._addresses)


def _align(value: int, alignment: int) -> int:
    return ((value + alignment - 1) // alignment) * alignment


class _BlockPlan:
    """Everything about one block's records that is the same on every replay.

    ``vl`` is the block's vector-length column with 0 at the ``inherited``
    positions: vector instructions that execute before the block's first
    ``SET_VL`` and so run at whatever vector length the block is entered
    with.  ``references`` lists ``(position, region)`` for every memory
    reference in instruction order; ``addr`` is the address column with
    :data:`~repro.trace.columns.NO_ADDRESS` everywhere until a replay fills
    those positions in.  ``vector_length``/``vector_stride`` are the values
    the block's last ``SET_VL``/``SET_VS`` leave behind (``None``: the block
    does not set it).  ``block`` is what the plan was built from: keeping it
    alive keeps its ``id`` a valid cache key, and the copied ``label`` and
    ``instructions`` detect a block that changed since.
    """

    __slots__ = (
        "block",
        "label",
        "instructions",
        "insn",
        "kind",
        "stride",
        "vl",
        "inherited",
        "references",
        "addr",
        "block_ids",
        "vector_length",
        "vector_stride",
    )

    def __init__(self, columns: ColumnarTrace, block: BasicBlock) -> None:
        instructions = block.instructions
        label = block.label
        vector_length: Optional[int] = None
        vector_stride: Optional[int] = None
        vl: List[int] = []
        inherited: List[int] = []
        stride: List[int] = []
        references: List[Tuple[int, str]] = []
        for position, instruction in enumerate(instructions):
            opcode = instruction.opcode
            if opcode is Opcode.SET_VL:
                immediate = instruction.immediate
                if immediate is None:
                    raise TraceError("SET_VL traced without an immediate vector length")
                if not 0 <= immediate <= VECTOR_REGISTER_LENGTH:
                    raise TraceError(
                        f"SET_VL immediate {immediate} outside "
                        f"[0, {VECTOR_REGISTER_LENGTH}]"
                    )
                vector_length = immediate
            elif opcode is Opcode.SET_VS:
                if instruction.immediate is None:
                    raise TraceError("SET_VS traced without an immediate stride")
                vector_stride = instruction.immediate
            memory = instruction.memory
            if memory is None:
                if instruction.is_memory:
                    raise TraceError(
                        f"memory instruction {instruction} traced without a base address"
                    )
                stride.append(1)
            else:
                references.append((position, memory.region))
                stride.append(memory.stride if instruction.is_vector_memory else 1)
            if not instruction.is_vector:
                vl.append(1)
            elif vector_length is None:
                inherited.append(position)
                vl.append(0)
            else:
                vl.append(vector_length)

        # Interning comes after validation, so a rejected block leaves the
        # trace's tables as they were.
        count = len(vl)
        self.block = block
        self.label = label
        self.instructions = list(instructions)
        self.insn = array("q", [columns.intern_instruction(insn) for insn in instructions])
        self.kind = bytes(kind_of(insn) for insn in instructions)
        self.stride = array("q", stride)
        self.vl = array("q", vl)
        self.inherited = tuple(inherited)
        self.references = tuple(references)
        self.addr = array("q", [NO_ADDRESS]) * count
        self.block_ids = array("q")
        if count:
            # An empty block never interns its label: no record refers to it.
            self.block_ids = array("q", [columns.intern_block(label)]) * count
        self.vector_length = vector_length
        self.vector_stride = vector_stride


class TraceBuilder:
    """Builds a dynamic trace by replaying basic blocks.

    The builder tracks the architectural vector length and vector stride
    registers (set by ``SET_VL`` / ``SET_VS`` instructions) and assigns a
    concrete byte address to every memory reference.  Callers control where a
    block's memory references land through ``region_offsets`` — a map from
    region name to an element offset — which is how loop iterations advance
    through their arrays.

    Every block is validated when it is planned, before any of its records
    is written: a ``SET_VL`` without an immediate or outside
    ``[0, VECTOR_REGISTER_LENGTH]``, a ``SET_VS`` without an immediate, or a
    memory instruction without a memory operand raises :class:`TraceError`
    and appends none of the block's records — the trace, its executed-block
    count and the vector length and stride registers stay as they were.
    """

    def __init__(self, name: str, allocator: Optional[RegionAllocator] = None) -> None:
        self.trace = Trace(name=name)
        self.allocator = allocator if allocator is not None else RegionAllocator()
        self._vector_length = VECTOR_REGISTER_LENGTH
        self._vector_stride = 1
        self._sequence = 0
        # Plans hold indices into this trace's instruction table, so they
        # are per builder; keyed by block id (the plan keeps the block alive).
        self._plans: Dict[int, _BlockPlan] = {}

    # -- architectural state ---------------------------------------------------

    @property
    def vector_length(self) -> int:
        return self._vector_length

    @property
    def vector_stride(self) -> int:
        return self._vector_stride

    # -- emission ---------------------------------------------------------------

    def append_block(
        self,
        block: BasicBlock,
        region_offsets: Optional[Dict[str, int]] = None,
    ) -> None:
        """Replay one basic block, emitting a dynamic record per instruction.

        The block is planned on its first replay by this builder and
        re-planned if its label or instruction list changed since.
        """
        plan = self._plans.get(id(block))
        if plan is None or plan.instructions != block.instructions or plan.label != block.label:
            plan = _BlockPlan(self.trace.columns, block)
            self._plans[id(block)] = plan
        self.trace.blocks_executed += 1
        self._replay(plan, region_offsets or {})

    def _replay(self, plan: _BlockPlan, offsets: Dict[str, int]) -> None:
        columns = self.trace.columns
        start = len(columns.insn)
        first = self._sequence
        self._sequence = first + len(plan.insn)
        columns.insn.extend(plan.insn)
        columns.kind.extend(plan.kind)
        columns.seq.extend(range(first, self._sequence))
        columns.stride.extend(plan.stride)
        columns.block.extend(plan.block_ids)
        vl = columns.vl
        vl.extend(plan.vl)
        if plan.inherited:
            incoming = self._vector_length
            for position in plan.inherited:
                vl[start + position] = incoming
        addr = columns.addr
        addr.extend(plan.addr)
        if plan.references:
            address_of = self.allocator.address_of
            offset_of = offsets.get
            for position, region in plan.references:
                addr[start + position] = address_of(region, offset_of(region, 0))
        if plan.vector_length is not None:
            self._vector_length = plan.vector_length
        if plan.vector_stride is not None:
            self._vector_stride = plan.vector_stride

    # -- results -----------------------------------------------------------------

    def build(self) -> Trace:
        """Finalize and return the accumulated trace."""
        self.trace.metadata.setdefault("regions", self.allocator.regions)
        self.trace.validate()
        return self.trace
