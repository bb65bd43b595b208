"""Tests for the main-memory timing model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.isa.builder import InstructionBuilder
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import s_reg, v_reg
from repro.memory.model import MemoryModel, MemoryTimings
from repro.refarch.config import ReferenceConfig
from repro.refarch.simulator import _SimulationState
from repro.trace.generator import TraceBuilder


class TestMemoryTimings:
    def test_defaults(self):
        timings = MemoryTimings()
        assert timings.latency == 1
        assert timings.bus_cycles_per_element == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryTimings(latency=-1)
        with pytest.raises(ConfigurationError):
            MemoryTimings(bus_cycles_per_element=0)
        with pytest.raises(ConfigurationError):
            MemoryTimings(scalar_bus_cycles=0)


class TestMemoryModel:
    def test_constructor_guard(self):
        with pytest.raises(ConfigurationError):
            MemoryModel(timings=MemoryTimings(), latency=5)

    def test_latency_shortcut(self):
        assert MemoryModel(latency=30).latency == 30
        assert MemoryModel().latency == 1

    def test_scalar_bus_cycles_default(self):
        assert MemoryModel(latency=10).scalar_bus_cycles == 1

    def test_with_latency_preserves_other_parameters(self):
        base = MemoryModel(MemoryTimings(latency=1, bus_cycles_per_element=2))
        derived = base.with_latency(70)
        assert derived.latency == 70
        assert derived.timings.bus_cycles_per_element == 2
        assert base.latency == 1


def _reference_run(emit, latency, **config):
    block = BasicBlock("body")
    emit(InstructionBuilder(block))
    builder = TraceBuilder("unit")
    builder.append_block(block)
    trace = builder.build()
    state = _SimulationState(MemoryModel(latency=latency), ReferenceConfig(**config))
    state.consume(trace)
    return state, state.finish(trace)


class TestTimingsInTheReferenceLoop:
    """The model's three facts, as the reference tick loop applies them."""

    def test_bus_cycles(self):
        def emit(b):
            b.set_vector_length(50)
            b.vector_store(v_reg(0), "x")
            b.set_vector_length(7)
            b.vector_store(v_reg(0), "y")
            b.scalar_load(s_reg(0), "globals")

        state, _ = _reference_run(emit, latency=10)
        port = state.fabric.ports.recorder()
        assert [end - start for start, end in zip(port.starts, port.ends)] == [50, 7, 1]

    def test_zero_length_vector_still_issues(self):
        def emit(b):
            b.set_vector_length(0)
            b.vector_load(v_reg(0), "x")

        state, result = _reference_run(emit, latency=10)
        port = state.fabric.ports.recorder()
        assert list(zip(port.starts, port.ends)) == [(1, 2)]
        assert result.memory_traffic_bytes == 0

    def test_load_ready_includes_latency_and_streaming(self):
        def emit(b):
            b.set_vector_length(64)
            b.vector_load(v_reg(0), "x")
            b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])

        # The load's bus start is cycle 1: its last element arrives at
        # 1 + 30 + 64, its first at 1 + 30, where a chained add may start.
        for chaining, add_start in ((False, 1 + 30 + 64), (True, 1 + 30)):
            state, _ = _reference_run(emit, latency=30, allow_load_chaining=chaining)
            assert state.fus.recorder(0).starts == [add_start]

    def test_store_bus_time_hides_latency(self):
        def emit(b):
            b.set_vector_length(16)
            b.vector_store(v_reg(0), "x")

        _, result = _reference_run(emit, latency=100)
        assert result.total_cycles == 1 + 16
