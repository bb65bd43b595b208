"""Unit tests for ResourcePool and its rules in the tick loops."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.engine import ResourcePool
from repro.isa.builder import InstructionBuilder
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import v_reg
from repro.memory.model import MemoryModel
from repro.refarch.config import ReferenceConfig
from repro.refarch.simulator import _SimulationState
from repro.trace.generator import TraceBuilder
from repro.workloads.perfect_club import load_program


class TestConstruction:
    def test_single_unit_keeps_bare_name(self):
        pool = ResourcePool("LD")
        assert pool.unit_names == ("LD",)

    def test_multi_unit_names_are_numbered(self):
        pool = ResourcePool("LD", count=2)
        assert pool.unit_names == ("LD0", "LD1")

    def test_explicit_unit_names(self):
        pool = ResourcePool("FU", count=2, unit_names=("FU1", "FU2"))
        assert [r.name for r in pool.recorders] == ["FU1", "FU2"]

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourcePool("X", count=0)
        with pytest.raises(ConfigurationError):
            ResourcePool("X", count=2, unit_names=("only-one",))


def _trace(emit):
    block = BasicBlock("body")
    emit(InstructionBuilder(block))
    builder = TraceBuilder("unit")
    builder.append_block(block)
    return builder.build()


def _reference_state(emit, **config):
    trace = _trace(emit)
    state = _SimulationState(MemoryModel(latency=1), ReferenceConfig(**config))
    state.consume(trace)
    state.finish(trace)
    return state


def _intervals(recorder):
    return list(zip(recorder.starts, recorder.ends))


class TestPoolRulesInTheTickLoops:
    """The pool's selection and occupation rules, as the tick loops apply them."""

    def test_least_loaded_selection_first_unit_wins_ties(self):
        """The seed's ``fu1_free <= fu2_free`` rule: FU1 takes ties."""

        def emit(b):
            b.set_vector_length(10)
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])  # tie at 0/0
            b.set_vector_length(8)
            b.vector_op(Opcode.V_ADD, v_reg(2), [v_reg(0), v_reg(0)])  # FU1 busy
            b.vector_op(Opcode.V_ADD, v_reg(3), [v_reg(0), v_reg(0)])  # tie at 11/11

        fu1, fu2 = _reference_state(emit).fus.recorders
        assert _intervals(fu1) == [(1, 11), (11, 19)]
        assert _intervals(fu2) == [(3, 11)]

    def test_pinned_unit_overrides_selection_and_waits_for_the_unit(self):
        def emit(b):
            b.set_vector_length(10)
            b.vector_op(Opcode.V_MUL, v_reg(1), [v_reg(0), v_reg(0)])
            b.vector_op(Opcode.V_MUL, v_reg(2), [v_reg(0), v_reg(0)])

        fu1, fu2 = _reference_state(emit).fus.recorders
        # Pinned to FU2 even though FU1 is idle; the second waits for FU2.
        assert _intervals(fu1) == []
        assert _intervals(fu2) == [(1, 11), (11, 21)]

    def test_a_reference_takes_the_port_that_frees_first(self):
        def emit(b):
            b.set_vector_length(8)
            b.vector_load(v_reg(0), "a")
            b.set_vector_length(4)
            b.vector_load(v_reg(1), "b")
            b.vector_load(v_reg(2), "c")
            b.vector_load(v_reg(3), "d")

        port0, port1 = _reference_state(emit, memory_ports=2).fabric.ports.recorders
        assert _intervals(port0) == [(1, 9), (9, 13)]
        assert _intervals(port1) == [(3, 7), (7, 11)]

    def test_units_are_held_in_order_and_free_times_never_rewind(self):
        trace = load_program("trfd").build_trace(scale=0.2)
        state = _SimulationState(
            MemoryModel(latency=50), ReferenceConfig(lanes=2, memory_ports=2)
        )
        state.consume(trace)
        for pool in (state.fus, state.fabric.ports):
            for free, recorder in zip(pool.free, pool.recorders):
                assert recorder.starts, recorder.name
                for (start, end), next_start in zip(
                    _intervals(recorder), recorder.starts[1:]
                ):
                    assert start < end <= next_start, recorder.name
                assert free == recorder.ends[-1], recorder.name


class TestRecording:
    def test_record_false_tracks_time_without_intervals(self):
        pool = ResourcePool("FP", record=False)
        pool.free[0] = 100
        assert pool.free_time() == 100
        with pytest.raises(SimulationError):
            pool.recorder()
        with pytest.raises(SimulationError):
            pool.busy_time()

    def test_latest_free_is_the_slowest_unit(self):
        pool = ResourcePool("LD", count=3)
        pool.free[:] = [4, 9, 2]
        assert pool.latest_free() == 9

    def test_combined_recorder_single_unit_is_the_unit(self):
        pool = ResourcePool("LD")
        pool.recorder().record(0, 5)
        assert pool.combined_recorder() is pool.recorder()

    def test_combined_recorder_merges_units(self):
        pool = ResourcePool("LD", count=2)
        pool.recorder(0).record(0, 5)
        pool.recorder(1).record(2, 7)
        combined = pool.combined_recorder()
        assert combined.name == "LD"
        assert combined.busy_time() == 7  # [0,5) U [2,7)

    def test_busy_time_sums_all_units(self):
        pool = ResourcePool("QMOV", count=2)
        pool.recorder(0).record(0, 5)
        pool.recorder(1).record(0, 3)
        assert pool.busy_time() == 8
