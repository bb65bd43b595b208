"""Block replay in the trace builder against a per-record reference.

``TraceBuilder`` plans each basic block once and replays it with whole-array
column extends.  The reference below generates the same trace the direct
way — one ``ColumnarTrace.append`` per executed instruction, tracking the
vector length and stride registers as it goes — and every column, table,
count and register value the builder produces must match it exactly.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TraceError
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import MemoryOperand, make_instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import VECTOR_REGISTER_LENGTH, a_reg, s_reg, v_reg
from repro.trace.columns import ColumnarTrace
from repro.trace.generator import RegionAllocator, TraceBuilder
from repro.trace.statistics import DIGEST_COLUMNS

REGIONS = ("a", "b", "spill0", "stack.t")


class RecordReference:
    """Per-record trace generation: one column append per executed instruction."""

    def __init__(self) -> None:
        self.columns = ColumnarTrace()
        self.allocator = RegionAllocator()
        self.vector_length = VECTOR_REGISTER_LENGTH
        self.vector_stride = 1
        self.blocks_executed = 0

    def append_block(self, block, offsets):
        self.blocks_executed += 1
        for instruction in block.instructions:
            if instruction.opcode is Opcode.SET_VL:
                self.vector_length = instruction.immediate
            elif instruction.opcode is Opcode.SET_VS:
                self.vector_stride = instruction.immediate
            memory = instruction.memory
            self.columns.append(
                instruction,
                sequence=len(self.columns),
                block_label=block.label,
                vector_length=self.vector_length if instruction.is_vector else 1,
                stride_elements=(
                    memory.stride if memory is not None and instruction.is_vector_memory else 1
                ),
                base_address=(
                    None
                    if memory is None
                    else self.allocator.address_of(memory.region, offsets.get(memory.region, 0))
                ),
            )


def _palette():
    """Shared static instructions: every block drawn from it shares objects."""
    scratch = BasicBlock("palette")
    emit = InstructionBuilder(scratch)
    for length in (0, 1, 17, 64, VECTOR_REGISTER_LENGTH):
        emit.set_vector_length(length)
    for stride in (-3, 1, 2, 8):
        emit.set_vector_stride(stride)
    for region in REGIONS:
        emit.vector_load(v_reg(0), region, stride=2)
        emit.vector_store(v_reg(1), region, stride=-1)
        emit.scalar_load(s_reg(0), region)
        emit.scalar_store(s_reg(0), region)
    emit.vector_load(v_reg(2), "a", indexed=True)
    emit.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(2)])
    emit.vector_op(Opcode.V_MUL, v_reg(3), [v_reg(1), v_reg(1)])
    emit.scalar_op(Opcode.S_ADD, s_reg(1), [s_reg(0)])
    emit.branch(a_reg(6))
    return scratch.instructions


PALETTE = _palette()


def _assert_same(builder, reference):
    columns = builder.trace.columns
    for name in DIGEST_COLUMNS:
        assert getattr(columns, name) == getattr(reference.columns, name), name
    assert [id(insn) for insn in columns.instructions] == [
        id(insn) for insn in reference.columns.instructions
    ]
    assert columns.block_labels == reference.columns.block_labels
    assert builder.trace.blocks_executed == reference.blocks_executed
    assert list(builder.allocator.regions.items()) == list(reference.allocator.regions.items())
    assert (builder.vector_length, builder.vector_stride) == (
        reference.vector_length,
        reference.vector_stride,
    )


def _replay(pairs, block, offsets, index=0):
    builder, reference = pairs[index]
    builder.append_block(block, offsets)
    reference.append_block(block, offsets)


palette_indices = st.integers(0, len(PALETTE) - 1)
offsets = st.dictionaries(st.sampled_from(REGIONS), st.integers(0, 4096), max_size=3)
steps = st.lists(
    st.tuples(
        st.integers(0, 3),  # block
        st.integers(0, 1),  # builder
        offsets,
        st.one_of(st.none(), palette_indices),  # instruction appended to the block first
    ),
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(
    shapes=st.lists(st.lists(palette_indices, max_size=12), min_size=1, max_size=4),
    steps=steps,
)
def test_block_replay_matches_per_record_generation(shapes, steps):
    blocks = [
        BasicBlock(f"b{index}", [PALETTE[i] for i in shape]) for index, shape in enumerate(shapes)
    ]
    pairs = [(TraceBuilder("t"), RecordReference()) for _ in range(2)]
    for block_index, builder_index, region_offsets, appended in steps:
        block = blocks[block_index % len(blocks)]
        if appended is not None:
            block.append(PALETTE[appended])
        _replay(pairs, block, region_offsets, builder_index)
    for builder, reference in pairs:
        _assert_same(builder, reference)
        builder.build()


def test_vector_instructions_before_the_first_set_vl_inherit_the_incoming_length():
    setter = BasicBlock("setter")
    InstructionBuilder(setter).set_vector_length(40)
    body = BasicBlock("body")
    emit = InstructionBuilder(body)
    emit.vector_load(v_reg(0), "a")
    emit.set_vector_length(9)
    emit.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
    pairs = [(TraceBuilder("t"), RecordReference())]
    _replay(pairs, body, {})
    _replay(pairs, setter, {})
    _replay(pairs, body, {})
    builder, reference = pairs[0]
    _assert_same(builder, reference)
    assert list(builder.trace.columns.vl) == [128, 1, 9, 1, 40, 1, 9]


def test_several_set_vl_and_set_vs_in_one_block():
    block = BasicBlock("body")
    emit = InstructionBuilder(block)
    for length, stride in ((5, 2), (70, -1), (3, 4)):
        emit.set_vector_length(length)
        emit.set_vector_stride(stride)
        emit.vector_store(v_reg(1), "b", stride=stride)
    pairs = [(TraceBuilder("t"), RecordReference())]
    _replay(pairs, block, {"b": 16})
    builder, reference = pairs[0]
    _assert_same(builder, reference)
    assert (builder.vector_length, builder.vector_stride) == (3, 4)


def test_empty_block_counts_but_interns_no_label():
    pairs = [(TraceBuilder("t"), RecordReference())]
    _replay(pairs, BasicBlock("empty"), {})
    builder, reference = pairs[0]
    _assert_same(builder, reference)
    assert builder.trace.blocks_executed == 1
    assert builder.trace.columns.block_labels == []


def test_relabelled_block_is_replanned():
    block = BasicBlock("before", [PALETTE[0], PALETTE[-1]])
    pairs = [(TraceBuilder("t"), RecordReference())]
    _replay(pairs, block, {})
    block.label = "after"
    _replay(pairs, block, {})
    _assert_same(*pairs[0])
    assert pairs[0][0].trace.columns.block_labels == ["before", "after"]


# -- validation -----------------------------------------------------------------------


def _memory_without_operand():
    instruction = make_instruction(Opcode.S_LOAD, [s_reg(0)], memory=MemoryOperand("g"))
    # The constructor refuses this combination, so patch the field to reach
    # the builder's own check.
    object.__setattr__(instruction, "memory", None)
    return instruction


BAD_INSTRUCTIONS = [
    pytest.param(
        make_instruction(Opcode.SET_VL),
        "SET_VL traced without an immediate vector length",
        id="set-vl-without-immediate",
    ),
    pytest.param(
        make_instruction(Opcode.SET_VL, immediate=VECTOR_REGISTER_LENGTH + 1),
        f"SET_VL immediate {VECTOR_REGISTER_LENGTH + 1} outside [0, {VECTOR_REGISTER_LENGTH}]",
        id="set-vl-out-of-range",
    ),
    pytest.param(
        make_instruction(Opcode.SET_VL, immediate=-1),
        f"SET_VL immediate -1 outside [0, {VECTOR_REGISTER_LENGTH}]",
        id="set-vl-negative",
    ),
    pytest.param(
        make_instruction(Opcode.SET_VS),
        "SET_VS traced without an immediate stride",
        id="set-vs-without-immediate",
    ),
]


def _bad_memory_param():
    instruction = _memory_without_operand()
    return pytest.param(
        instruction,
        f"memory instruction {instruction} traced without a base address",
        id="memory-without-operand",
    )


@pytest.mark.parametrize("bad, message", BAD_INSTRUCTIONS + [_bad_memory_param()])
def test_invalid_block_raises_and_appends_none_of_its_records(bad, message):
    good = BasicBlock("good", [PALETTE[2], PALETTE[5], PALETTE[9]])
    builder = TraceBuilder("t")
    builder.append_block(good, {"a": 4})
    before = (
        {name: bytes(getattr(builder.trace.columns, name)) for name in DIGEST_COLUMNS},
        list(builder.trace.columns.instructions),
        list(builder.trace.columns.block_labels),
        builder.trace.blocks_executed,
        builder.vector_length,
        builder.vector_stride,
    )
    # Valid instructions on both sides of the bad one, some of them new to
    # the trace, so a partial append or a partial interning would show.
    bad_block = BasicBlock("bad", [PALETTE[3], PALETTE[6], PALETTE[10], bad, PALETTE[-1]])
    with pytest.raises(TraceError, match=re.escape(message)):
        builder.append_block(bad_block, {"a": 4})
    after = (
        {name: bytes(getattr(builder.trace.columns, name)) for name in DIGEST_COLUMNS},
        list(builder.trace.columns.instructions),
        list(builder.trace.columns.block_labels),
        builder.trace.blocks_executed,
        builder.vector_length,
        builder.vector_stride,
    )
    assert after == before


@pytest.mark.parametrize("bad, message", BAD_INSTRUCTIONS + [_bad_memory_param()])
def test_block_made_invalid_between_replays_raises_on_replay(bad, message):
    block = BasicBlock("body", [PALETTE[2], PALETTE[9]])
    builder = TraceBuilder("t")
    builder.append_block(block)
    block.append(bad)
    with pytest.raises(TraceError, match=re.escape(message)):
        builder.append_block(block)
    assert len(builder.trace) == 2
