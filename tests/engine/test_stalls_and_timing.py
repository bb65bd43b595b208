"""Unit tests for StallAccountant, TimingCore and the memory rules of both tick loops."""

import pytest

from repro.common.errors import ConfigurationError
from repro.dva.config import DecoupledConfig
from repro.dva.simulator import _DecoupledState
from repro.engine import StallAccountant, TimingCore
from repro.isa.builder import InstructionBuilder
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import ELEMENT_SIZE_BYTES, s_reg, v_reg
from repro.memory.model import MemoryModel
from repro.refarch.config import ReferenceConfig
from repro.refarch.simulator import _SimulationState
from repro.trace.generator import TraceBuilder


class TestStallAccountant:
    def test_stalls_accumulate_by_kind(self):
        stalls = StallAccountant()
        stalls.stall("dispatch", 3)
        stalls.stall("dispatch", 4)
        stalls.stall("fetch", 1)
        assert stalls.stalls("dispatch") == 7
        assert stalls.stalls("fetch") == 1
        assert stalls.stalls("unknown") == 0

    def test_negative_charges_clamp_to_zero(self):
        stalls = StallAccountant()
        stalls.stall("dispatch", -5)
        assert stalls.stalls("dispatch") == 0

    def test_categories_accumulate_and_copy(self):
        stalls = StallAccountant()
        stalls.account("vector_compute", 64)
        stalls.account("vector_compute", 36)
        stalls.account("scalar", 1)
        assert stalls.total("vector_compute") == 100
        copied = stalls.categories()
        copied["scalar"] = 999
        assert stalls.total("scalar") == 1


class TestTimingCore:
    def test_finish_time_includes_pointers(self):
        core = TimingCore()
        core.horizon = 10
        assert core.finish_time() == 10
        assert core.finish_time(25, 3) == 25

    def test_pools_are_registered_by_name(self):
        core = TimingCore()
        pool = core.add_pool("FU", count=2)
        assert core.pools["FU"] is pool
        with pytest.raises(ConfigurationError, match="already exists"):
            core.add_pool("FU")


def _trace(emit):
    block = BasicBlock("body")
    emit(InstructionBuilder(block))
    builder = TraceBuilder("unit")
    builder.append_block(block)
    return builder.build()


def _run(family, emit, latency=50, **config):
    """Run a hand-built trace through one machine's tick loop; return (state, result)."""
    trace = _trace(emit)
    if family == "ref":
        state = _SimulationState(MemoryModel(latency=latency), ReferenceConfig(**config))
    else:
        state = _DecoupledState(MemoryModel(latency=latency), DecoupledConfig(**config))
    state.consume(trace)
    return state, state.finish(trace)


def _load_then_store_same_line(b):
    b.scalar_load(s_reg(0), "globals")
    b.scalar_store(s_reg(0), "globals")


@pytest.mark.parametrize("family", ["ref", "dva"])
class TestMemoryRulesInTheTickLoops:
    """The memory fabric's rules, as both tick loops apply them in place."""

    def test_scalar_load_miss_then_hit(self, family):
        def emit(b):
            b.scalar_load(s_reg(0), "globals")
            b.scalar_load(s_reg(1), "globals")

        state, result = _run(family, emit)
        assert (result.scalar_cache_misses, result.scalar_cache_hits) == (1, 1)
        # Only the miss uses the port.
        assert result.port_busy.busy_time() == 1
        assert result.memory_traffic_bytes == ELEMENT_SIZE_BYTES

    def test_store_hit_stays_off_port_unless_write_through(self, family):
        _, default = _run(family, _load_then_store_same_line)
        assert default.scalar_cache_hits == 1
        assert default.port_busy.busy_time() == 1
        through_state, through = _run(
            family, _load_then_store_same_line, scalar_store_writes_through=True
        )
        assert through.scalar_cache_hits == 1
        assert through.port_busy.busy_time() == 2
        assert through.memory_traffic_bytes == 2 * ELEMENT_SIZE_BYTES
        if family == "dva":
            assert through_state.write_through_hits == 1


class TestMemoryTimingInTheReferenceLoop:
    def test_scalar_load_ready_latencies(self):
        def emit(b):
            b.scalar_load(s_reg(0), "globals")
            b.scalar_op(Opcode.S_ADD, s_reg(1), [s_reg(0)])
            b.scalar_load(s_reg(2), "globals")
            b.scalar_op(Opcode.S_ADD, s_reg(3), [s_reg(2)])

        _, result = _run("ref", emit, latency=50)
        # The miss issues at 0 and its value arrives 1 + latency later; the
        # add issues then, the hit one cycle after it (hit latency 1), and
        # the second add when the hit's value arrives.
        miss_ready = 0 + 1 + 50
        hit_ready = (miss_ready + 1) + 1
        assert result.total_cycles == hit_ready + 1

    def test_bus_occupation_accumulates_traffic_and_port_time(self):
        def emit(b):
            b.set_vector_length(4)
            b.vector_load(v_reg(0), "x")
            b.scalar_load(s_reg(0), "globals")

        state, result = _run("ref", emit, latency=1)
        recorder = state.fabric.ports.recorders[0]
        # The scalar miss waits for the single port the vector load holds.
        assert list(zip(recorder.starts, recorder.ends)) == [(1, 5), (5, 6)]
        assert state.fabric.ports.free == [6]
        assert result.memory_traffic_bytes == 5 * ELEMENT_SIZE_BYTES

    def test_two_ports_overlap_references(self):
        def emit(b):
            b.set_vector_length(4)
            b.vector_load(v_reg(0), "x")
            b.vector_load(v_reg(1), "y")

        state, result = _run("ref", emit, latency=1, memory_ports=2)
        starts = [recorder.starts for recorder in state.fabric.ports.recorders]
        assert starts == [[1], [2]]
        assert result.port_busy.busy_time() == 5  # merged "any port busy": [1, 6)
