"""Tests for the :class:`Trace` container."""

import pytest

from repro.common.errors import TraceError
from repro.isa.builder import InstructionBuilder
from repro.isa.instruction import make_instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import s_reg, v_reg
from repro.trace.record import Trace
from repro.trace.statistics import compute_statistics


class TestTrace:
    def test_counts(self):
        block = BasicBlock("b")
        builder = InstructionBuilder(block)
        builder.set_vector_length(50)
        builder.vector_load(v_reg(0), "x")
        builder.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])

        trace = Trace(name="demo")
        trace.columns.append(block.instructions[0], sequence=0)
        trace.columns.append(
            block.instructions[1], sequence=1, vector_length=50, base_address=0x100
        )
        trace.columns.append(block.instructions[2], sequence=2, vector_length=50)
        stats = compute_statistics(trace)
        assert len(trace) == 3
        assert stats.vector_instructions == 2
        assert stats.scalar_instructions == 1
        assert stats.vector_operations == 100
        assert stats.memory_instructions == 1
        assert trace.columns.seq[0] == 0

    def test_validate_detects_sequence_gaps(self):
        trace = Trace(name="demo")
        trace.columns.append(
            make_instruction(Opcode.S_ADD, destinations=[s_reg(0)]), sequence=3
        )
        with pytest.raises(TraceError, match="record 0 carries sequence number 3"):
            trace.columns.validate()
        with pytest.raises(TraceError, match="'demo'"):
            trace.validate()
