"""Tests for trace generation and the region allocator."""

import pytest

from repro.common.errors import TraceError
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import make_instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import ELEMENT_SIZE_BYTES, VECTOR_REGISTER_LENGTH, s_reg, v_reg
from repro.trace.columns import NO_ADDRESS
from repro.trace.generator import RegionAllocator, TraceBuilder


def _simple_block(vl=64, region="x"):
    block = BasicBlock("body")
    builder = InstructionBuilder(block)
    builder.set_vector_length(vl)
    builder.vector_load(v_reg(0), region)
    builder.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
    builder.vector_store(v_reg(1), "y")
    return block


def _static(trace):
    """The static instruction of every dynamic slot, in trace order."""
    columns = trace.columns
    return [columns.instructions[index] for index in columns.insn]


def _one_instruction_block(instruction):
    return BasicBlock("loose", [instruction])


class TestRegionAllocator:
    def test_regions_are_stable(self):
        allocator = RegionAllocator()
        first = allocator.base_of("a")
        second = allocator.base_of("a")
        assert first == second

    def test_distinct_regions_do_not_overlap(self):
        allocator = RegionAllocator()
        base_a = allocator.base_of("a", size_bytes=0x2000)
        base_b = allocator.base_of("b", size_bytes=0x2000)
        assert abs(base_a - base_b) >= 0x2000

    def test_spill_regions_live_in_stack_segment(self):
        allocator = RegionAllocator()
        data = allocator.base_of("matrix")
        spill = allocator.base_of("spill_loop0")
        assert spill > data

    def test_address_of_offsets_by_elements(self):
        allocator = RegionAllocator()
        base = allocator.base_of("a")
        assert allocator.address_of("a", 10) == base + 10 * ELEMENT_SIZE_BYTES

    def test_regions_map_copy(self):
        allocator = RegionAllocator()
        allocator.base_of("a")
        regions = allocator.regions
        regions["a"] = 0
        assert allocator.base_of("a") != 0


class TestTraceBuilder:
    def test_default_vector_length_is_architectural_maximum(self):
        builder = TraceBuilder("demo")
        assert builder.vector_length == VECTOR_REGISTER_LENGTH

    def test_set_vl_updates_subsequent_records(self):
        builder = TraceBuilder("demo")
        builder.append_block(_simple_block(vl=33))
        trace = builder.build()
        vector_lengths = [
            trace.columns.vl[i]
            for i, instruction in enumerate(_static(trace))
            if instruction.is_vector
        ]
        assert vector_lengths and all(vl == 33 for vl in vector_lengths)

    def test_set_vl_requires_immediate(self):
        builder = TraceBuilder("demo")
        bad = make_instruction(Opcode.SET_VL)
        with pytest.raises(TraceError):
            builder.append_block(_one_instruction_block(bad))

    def test_set_vl_range_checked(self):
        builder = TraceBuilder("demo")
        bad = make_instruction(Opcode.SET_VL, immediate=VECTOR_REGISTER_LENGTH + 1)
        with pytest.raises(TraceError):
            builder.append_block(_one_instruction_block(bad))

    def test_set_vs_updates_stride_state(self):
        builder = TraceBuilder("demo")
        builder.append_block(
            _one_instruction_block(make_instruction(Opcode.SET_VS, immediate=4))
        )
        assert builder.vector_stride == 4

    def test_region_offsets_advance_addresses(self):
        builder = TraceBuilder("demo")
        block = _simple_block()
        builder.append_block(block, region_offsets={"x": 0})
        builder.append_block(block, region_offsets={"x": 64})
        trace = builder.build()
        loads = [
            trace.columns.addr[i]
            for i, instruction in enumerate(_static(trace))
            if instruction.is_load
        ]
        assert loads[1] - loads[0] == 64 * ELEMENT_SIZE_BYTES

    def test_block_counting(self):
        builder = TraceBuilder("demo")
        block = _simple_block()
        for _ in range(5):
            builder.append_block(block)
        trace = builder.build()
        assert trace.blocks_executed == 5
        assert len(trace) == 5 * len(block)

    def test_sequence_numbers_are_dense(self):
        builder = TraceBuilder("demo")
        builder.append_block(_simple_block())
        trace = builder.build()
        assert list(trace.columns.seq) == list(range(len(trace)))

    def test_memory_stride_comes_from_operand(self):
        block = BasicBlock("strided")
        ib = InstructionBuilder(block)
        ib.set_vector_length(16)
        ib.vector_load(v_reg(0), "m", stride=5)
        builder = TraceBuilder("demo")
        builder.append_block(block)
        trace = builder.build()
        load = [i for i, insn in enumerate(_static(trace)) if insn.is_load][0]
        assert trace.columns.stride[load] == 5

    def test_scalar_memory_gets_addresses_too(self):
        block = BasicBlock("scalar")
        ib = InstructionBuilder(block)
        ib.scalar_load(s_reg(0), "globals")
        ib.scalar_store(s_reg(0), "globals")
        builder = TraceBuilder("demo")
        builder.append_block(block)
        trace = builder.build()
        addresses = [
            trace.columns.addr[i]
            for i, instruction in enumerate(_static(trace))
            if instruction.is_memory
        ]
        assert len(addresses) == 2
        assert NO_ADDRESS not in addresses

    def test_metadata_contains_regions(self):
        builder = TraceBuilder("demo")
        builder.append_block(_simple_block())
        trace = builder.build()
        assert "x" in trace.metadata["regions"]
        assert "y" in trace.metadata["regions"]
