"""Same-cycle enqueue/dequeue ordering rules, pinned as regression tests.

The timestamp-arithmetic simulators never step cycles, so every "who goes
first within one cycle" question is answered by a convention: the DVA tick
loop applies the queue rules while it appends to the
:class:`~repro.dva.queues.TimedQueue` timestamp lists, and
:class:`~repro.common.intervals.IntervalRecorder` and the loops' in-place
use of the :class:`~repro.engine.ResourcePool` lists fix the busy-interval
rules.  Every
issue rule of both simulators leans on these conventions, so each one is
pinned here, the queue rules through runs of ``_DecoupledState`` on small
hand-built traces:

* a queue entry may be released on the very cycle it was pushed (zero
  residency is legal), but never earlier, and never before the consumer
  has been simulated;
* a queue slot is reusable on the cycle its entry is released — the blocking
  time is the pop cycle itself, not the cycle after;
* busy intervals are half-open ``[start, end)``: a resource handed over at a
  cycle boundary is busy each cycle exactly once, and zero-length intervals
  are no-ops rather than errors.
"""

import pytest

from repro.common.errors import SimulationError
from repro.common.intervals import Interval, IntervalRecorder
from repro.dva.config import DecoupledConfig, QueueSizes
from repro.dva.queues import TimedQueue
from repro.dva.simulator import _DecoupledState
from repro.isa.builder import InstructionBuilder
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock
from repro.isa.registers import a_reg, s_reg, v_reg
from repro.memory.model import MemoryModel
from repro.refarch.config import ReferenceConfig
from repro.refarch.simulator import _SimulationState
from repro.trace.generator import TraceBuilder


def _trace(emit):
    block = BasicBlock("body")
    emit(InstructionBuilder(block))
    builder = TraceBuilder("unit")
    builder.append_block(block)
    return builder.build()


def _run(emit, **queue_sizes):
    trace = _trace(emit)
    config = DecoupledConfig(queues=QueueSizes(**queue_sizes))
    state = _DecoupledState(MemoryModel(latency=10), config)
    state.consume(trace)
    return state, state.finish(trace)


def _two_vector_stores(b):
    b.set_vector_length(8)
    b.vector_store(v_reg(0), "x")
    b.vector_store(v_reg(1), "y")


def _two_scalar_stores_then_address_op(b):
    b.scalar_store(s_reg(0), "x")
    b.scalar_store(s_reg(1), "y")
    b.scalar_op(Opcode.S_ADD, a_reg(1), [a_reg(2)])


def _every_queue(b):
    b.set_vector_length(8)
    b.vector_load(v_reg(0), "x")
    b.vector_op(Opcode.V_ADD, v_reg(1), [v_reg(0), v_reg(0)])
    b.vector_store(v_reg(1), "y")
    b.vector_load(v_reg(2), "y")
    b.scalar_load(s_reg(0), "g")
    b.scalar_op(Opcode.S_ADD, s_reg(1), [s_reg(0)])
    b.scalar_store(s_reg(1), "g")
    b.scalar_store(s_reg(1), "h")
    b.vector_store(v_reg(2), "z")


class TestQueueSameCycleRules:
    def test_vadq_slot_is_reusable_on_the_release_cycle_not_after(self):
        state, _ = _run(_two_vector_stores, vector_store_data=1, vector_store_address=16)
        assert state.forced_drains["VADQ"] == 1
        pushes, pops = state.vadq.push_times, state.vadq.pop_times
        # The second QMOV was ready before the first store left the VADQ,
        # and moves its data in on the release cycle itself.
        assert pushes[1] == pops[0]
        assert pushes[1] > pushes[0] + 1

    def test_ssaq_slot_is_reusable_on_the_release_cycle_not_after(self):
        state, _ = _run(_two_scalar_stores_then_address_op, scalar_store_address=1)
        assert state.forced_drains["SSAQ"] == 1
        # The first store leaves the SSAQ when its port access ends; the
        # second store's address enters on that cycle, so the AP takes its
        # next instruction one cycle later.
        first_store_release = state.fabric.ports.recorders[0].ends[0]
        assert state.apiq.pop_times[2] == first_store_release + 1

    def test_a_queue_under_capacity_accepts_the_push_at_once(self):
        state, _ = _run(_two_scalar_stores_then_address_op, scalar_store_address=2)
        assert state.forced_drains["SSAQ"] == 0
        assert state.apiq.pop_times == [1, 2, 3]

    def test_a_full_queue_delays_the_push_by_exactly_the_blocked_cycles(self):
        free, _ = _run(_two_scalar_stores_then_address_op, scalar_store_address=2)
        blocked, _ = _run(_two_scalar_stores_then_address_op, scalar_store_address=1)
        requested = blocked.apiq.pop_times[1]
        released = blocked.fabric.ports.recorders[0].ends[0]
        assert released > requested
        delay = blocked.apiq.pop_times[2] - free.apiq.pop_times[2]
        assert delay == released - requested

    def test_every_entry_is_released_no_earlier_than_its_push(self):
        state, result = _run(
            _every_queue,
            instruction_queue=1,
            vector_load_data=1,
            vector_store_data=1,
            scalar_store_address=1,
            scalar_data=1,
        )
        assert sum(state.forced_drains.values()) > 0
        for queue in (state.apiq, state.vpiq, state.spiq, state.avdq, state.asdq, state.vadq):
            pushes, pops = queue.push_times, queue.pop_times
            # The consumer was simulated for every entry ...
            assert len(pops) == len(pushes) > 0, queue.name
            assert all(pop >= push for push, pop in zip(pushes, pops)), queue.name
            # ... and each push of a one-slot queue waited for the release
            # of the entry before it.
            assert all(push >= pop for push, pop in zip(pushes[1:], pops)), queue.name
        assert result.total_cycles >= max(state.vadq.pop_times)

    def test_a_one_slot_queue_passes_one_entry_per_cycle_without_stalls(self):
        def independent_scalar_ops(b):
            for index in range(5):
                b.scalar_op(Opcode.S_ADD, s_reg(index), [s_reg(7)])

        state, result = _run(independent_scalar_ops, instruction_queue=1)
        # Each entry is pushed on the cycle the previous one is released.
        assert state.spiq.push_times == [0, 1, 2, 3, 4]
        assert state.spiq.pop_times == [1, 2, 3, 4, 5]
        assert result.fetch_stall_cycles == 0

    def test_zero_residency_entry_is_legal_and_occupies_no_cycle(self):
        queue = TimedQueue("VADQ", capacity=1)
        queue.push_times += [5, 5]
        queue.pop_times += [5, 9]
        timeline = queue.occupancy_timeline()
        assert len(timeline) == 1  # only [5, 9)
        assert dict(timeline.occupancy_histogram(10).items()) == {0: 6, 1: 4}
        assert queue.outstanding == 0

    def test_queue_capacity_must_be_positive(self):
        with pytest.raises(SimulationError, match="positive capacity"):
            TimedQueue("VADQ", capacity=0)


class TestIntervalSameCycleRules:
    def test_zero_length_interval_is_ignored_not_an_error(self):
        recorder = IntervalRecorder("FU")
        recorder.record(5, 5)
        assert len(recorder) == 0
        assert recorder.busy_time() == 0

    def test_negative_interval_raises(self):
        recorder = IntervalRecorder("FU")
        with pytest.raises(SimulationError, match="before it starts"):
            recorder.record(5, 4)

    def test_boundary_handover_counts_each_cycle_once(self):
        recorder = IntervalRecorder("FU")
        recorder.record(0, 5)
        recorder.record(5, 8)
        assert recorder.merged_pairs() == [(0, 8)]
        assert recorder.busy_time() == 8

    def test_intervals_are_half_open_at_the_end(self):
        recorder = IntervalRecorder("FU")
        recorder.record(0, 5)
        assert recorder.busy_time() == 5  # cycles 0-4; cycle 5 is free
        assert not Interval(0, 5).overlaps(Interval(5, 8))


class TestPortSameCycleRules:
    def test_a_port_is_reacquired_on_its_free_cycle_not_after(self):
        def emit(b):
            b.set_vector_length(4)
            b.vector_load(v_reg(0), "x")
            b.scalar_load(s_reg(0), "globals")
            b.scalar_load(s_reg(1), "other")

        trace = _trace(emit)
        state = _SimulationState(MemoryModel(latency=1), ReferenceConfig())
        state.consume(trace)
        port = state.fabric.ports.recorder()
        # Each miss starts on the cycle the reference before it frees the
        # port, and the merged busy time counts each handed-over cycle once.
        assert list(zip(port.starts, port.ends)) == [(1, 5), (5, 6), (6, 7)]
        assert port.busy_time() == 6
