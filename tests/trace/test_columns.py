"""Columnar-trace coverage: re-encoding, a reference statistics walk, invariants
of hand-built columns and of every program's generated columns."""

import dataclasses

import pytest

from repro.common.errors import TraceError
from repro.isa.instruction import MemoryOperand, make_instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import ELEMENT_SIZE_BYTES, RegisterClass, s_reg, v_reg
from repro.trace.columns import NO_ADDRESS, ColumnarTrace, kind_of
from repro.trace.statistics import compute_statistics
from repro.workloads.perfect_club import load_program, program_names

#: Small but non-trivial scale so all six programs stay fast to build.
_SCALE = 0.05


def _program_trace(name):
    return load_program(name).build_trace(scale=_SCALE)


class TestColumnarRecordEquivalence:
    """The builder's columns agree with per-record appends and a record walk."""

    @pytest.mark.parametrize("program", program_names())
    def test_record_roundtrip(self, program):
        """Re-appending every slot one record at a time reproduces the columns."""
        trace = _program_trace(program)
        columns = trace.columns
        rebuilt = ColumnarTrace()
        for i, index in enumerate(columns.insn):
            address = columns.addr[i]
            rebuilt.append(
                columns.instructions[index],
                sequence=columns.seq[i],
                block_label=columns.block_labels[columns.block[i]],
                vector_length=columns.vl[i],
                stride_elements=columns.stride[i],
                base_address=None if address == NO_ADDRESS else address,
            )
        assert len(rebuilt) == len(trace)
        for name in ("insn", "seq", "vl", "stride", "addr", "block"):
            assert getattr(rebuilt, name) == getattr(columns, name), name
        assert rebuilt.kind == columns.kind
        assert rebuilt.instructions == columns.instructions
        assert rebuilt.block_labels == columns.block_labels

    def test_statistics_match_record_walk(self):
        """The one-pass columnar statistics agree with a record-by-record walk
        over the static instructions (not the precomputed instruction infos)."""
        trace = _program_trace("DYFESM")
        columns = trace.columns
        walk = [
            (columns.instructions[index], columns.vl[i])
            for i, index in enumerate(columns.insn)
        ]
        stats = compute_statistics(trace)
        assert stats.vector_instructions == sum(1 for insn, _ in walk if insn.is_vector)
        assert stats.scalar_instructions == sum(
            1 for insn, _ in walk if not insn.is_vector
        )
        assert stats.vector_operations == sum(vl for insn, vl in walk if insn.is_vector)
        assert stats.memory_bytes == sum(
            (vl if insn.is_vector else 1) * ELEMENT_SIZE_BYTES
            for insn, vl in walk
            if insn.is_memory
        )
        assert stats.spill_memory_instructions == sum(
            1 for insn, _ in walk if insn.is_memory and insn.is_spill_access
        )


class TestColumnarTraceInvariants:
    def test_negative_vector_length_rejected(self):
        columns = ColumnarTrace()
        add = make_instruction(Opcode.V_ADD, destinations=[v_reg(0)])
        with pytest.raises(TraceError):
            columns.append(add, sequence=0, vector_length=-1)

    def test_memory_without_address_rejected(self):
        columns = ColumnarTrace()
        load = make_instruction(
            Opcode.V_LOAD, destinations=[v_reg(0)], memory=MemoryOperand(region="x")
        )
        with pytest.raises(TraceError):
            columns.append(load, sequence=0, vector_length=8)

    def test_no_address_sentinel_maps_to_none(self):
        columns = ColumnarTrace()
        add = make_instruction(Opcode.V_ADD, destinations=[v_reg(0)])
        columns.append(add, sequence=0, vector_length=8)
        assert columns.addr[0] == NO_ADDRESS

    def test_equal_instructions_intern_by_value(self):
        """A distinct-but-equal instruction object shares the first one's
        static-table entry."""
        columns = ColumnarTrace()
        add = make_instruction(Opcode.S_ADD, destinations=[s_reg(0)])
        twin = dataclasses.replace(add)
        assert twin == add and twin is not add
        columns.append(add, sequence=0)
        columns.append(twin, sequence=1)
        assert columns.instructions == [add]
        assert list(columns.insn) == [0, 0]

    def test_instruction_infos_cached_and_aligned(self):
        trace = _program_trace("ARC2D")
        infos = trace.columns.instruction_infos()
        assert infos is trace.columns.instruction_infos()
        assert len(infos) == len(trace.columns.instructions)
        for info, instruction in zip(infos, trace.columns.instructions):
            assert info.instruction is instruction
            assert info.is_vector == instruction.is_vector
            assert info.opcode_class == instruction.opcode_class

    def test_validate_names_the_first_out_of_order_record(self):
        columns = ColumnarTrace()
        add = make_instruction(Opcode.S_ADD, destinations=[s_reg(0)])
        for sequence in (0, 1, 5, 3):
            columns.append(add, sequence=sequence)
        with pytest.raises(TraceError, match="trace 'gap': record 2 carries sequence number 5"):
            columns.validate("gap")

    def test_blocks_intern_by_label(self):
        columns = ColumnarTrace()
        add = make_instruction(Opcode.S_ADD, destinations=[s_reg(0)])
        for sequence, label in enumerate(("body", "exit", "body")):
            columns.append(add, sequence=sequence, block_label=label)
        assert columns.block_labels == ["body", "exit"]
        assert list(columns.block) == [0, 1, 0]
        assert columns.intern_block("exit") == 1

    def test_annotations_cleared_only_when_the_instruction_table_grows(self):
        columns = ColumnarTrace()
        add = make_instruction(Opcode.S_ADD, destinations=[s_reg(0)])
        columns.append(add, sequence=0)
        first = columns.instruction_infos()
        columns.annotations["derived"] = "table"
        columns.append(add, sequence=1)
        assert columns.annotations == {"derived": "table"}
        assert columns.instruction_infos() is first
        columns.append(make_instruction(Opcode.V_ADD, destinations=[v_reg(0)]), sequence=2)
        assert columns.annotations == {}
        infos = columns.instruction_infos()
        assert infos is not first
        assert [info.instruction for info in infos] == columns.instructions


class TestGeneratedColumnInvariants:
    """Properties every generated program trace holds, checked slot by slot."""

    @pytest.mark.parametrize("program", program_names())
    def test_columns_are_parallel(self, program):
        columns = _program_trace(program).columns
        count = len(columns)
        assert count > 0
        for name in ("insn", "kind", "seq", "vl", "stride", "addr", "block"):
            assert len(getattr(columns, name)) == count, name

    @pytest.mark.parametrize("program", program_names())
    def test_sequence_numbers_count_up_from_zero(self, program):
        trace = _program_trace(program)
        assert list(trace.columns.seq) == list(range(len(trace)))
        trace.validate()

    @pytest.mark.parametrize("program", program_names())
    def test_table_references_are_in_range(self, program):
        columns = _program_trace(program).columns
        assert 0 <= min(columns.insn) and max(columns.insn) < len(columns.instructions)
        assert 0 <= min(columns.block) and max(columns.block) < len(columns.block_labels)
        # Every table entry is referenced by at least one record.
        assert set(columns.insn) == set(range(len(columns.instructions)))
        assert set(columns.block) == set(range(len(columns.block_labels)))

    @pytest.mark.parametrize("program", program_names())
    def test_tables_hold_unique_entries(self, program):
        columns = _program_trace(program).columns
        assert len(set(columns.instructions)) == len(columns.instructions)
        assert len(set(columns.block_labels)) == len(columns.block_labels)

    @pytest.mark.parametrize("program", program_names())
    def test_kind_column_matches_the_static_instruction(self, program):
        columns = _program_trace(program).columns
        for i, index in enumerate(columns.insn):
            assert columns.kind[i] == kind_of(columns.instructions[index]), i

    @pytest.mark.parametrize("program", program_names())
    def test_address_present_exactly_for_memory_records(self, program):
        columns = _program_trace(program).columns
        for i, index in enumerate(columns.insn):
            instruction = columns.instructions[index]
            assert (columns.addr[i] != NO_ADDRESS) == instruction.is_memory, i
            if instruction.is_memory:
                assert columns.addr[i] % ELEMENT_SIZE_BYTES == 0, i

    @pytest.mark.parametrize("program", program_names())
    def test_scalar_records_carry_unit_length_and_stride(self, program):
        columns = _program_trace(program).columns
        for i, index in enumerate(columns.insn):
            instruction = columns.instructions[index]
            if instruction.is_vector:
                assert columns.vl[i] >= 0, i
            else:
                assert (columns.vl[i], columns.stride[i]) == (1, 1), i

    @pytest.mark.parametrize("program", program_names())
    def test_stride_comes_from_the_vector_memory_operand(self, program):
        columns = _program_trace(program).columns
        for i, index in enumerate(columns.insn):
            instruction = columns.instructions[index]
            expected = instruction.memory.stride if instruction.is_vector_memory else 1
            assert columns.stride[i] == expected, i

    @pytest.mark.parametrize("program", program_names())
    def test_instruction_infos_agree_with_the_instructions(self, program):
        columns = _program_trace(program).columns
        for info, instruction in zip(columns.instruction_infos(), columns.instructions):
            assert info.kind == kind_of(instruction)
            assert (
                info.is_vector,
                info.is_memory,
                info.is_load,
                info.is_store,
                info.is_vector_memory,
                info.is_scalar_memory,
                info.is_spill,
                info.is_branch,
                info.is_conditional_branch,
                info.is_queue_move,
                info.requires_fu2,
            ) == (
                instruction.is_vector,
                instruction.is_memory,
                instruction.is_load,
                instruction.is_store,
                instruction.is_vector_memory,
                instruction.is_scalar_memory,
                instruction.is_spill_access,
                instruction.is_branch,
                instruction.is_conditional_branch,
                instruction.is_queue_move,
                instruction.requires_fu2,
            )
            assert info.is_indexed == (
                instruction.memory is not None and instruction.memory.indexed
            )
            assert info.sources == instruction.sources
            assert info.destinations == instruction.destinations
            assert info.vector_destinations == instruction.vector_destinations()
            assert info.scalar_destinations == instruction.scalar_destinations()
            assert info.vector_sources == instruction.vector_sources()
            assert info.scalar_sources == instruction.scalar_sources()
            assert info.data_sources == tuple(
                register
                for register in instruction.sources
                if register.register_class
                not in (RegisterClass.VECTOR_LENGTH, RegisterClass.VECTOR_STRIDE)
            )
