"""The DVA result's queue timelines: AVDQ at wind-down, the rest on request."""

import pytest

from repro.dva.simulator import simulate_decoupled
from repro.workloads.perfect_club import load_program


@pytest.fixture(scope="module")
def trace():
    return load_program("trfd").build_trace(scale=0.2)


@pytest.fixture
def result(trace):
    return simulate_decoupled(trace, latency=50)


def test_to_json_builds_no_other_queue_timeline(result):
    result.to_json()
    assert result._timelines == {}


def test_instruction_queue_timelines_hold_one_residency_per_issued_instruction(result):
    timelines = result.instruction_queue_occupancy
    counts = result.instructions_per_processor
    assert set(timelines) == {"APIQ", "VPIQ", "SPIQ"}
    assert len(timelines["APIQ"]) == counts["AP"]
    assert len(timelines["VPIQ"]) == counts["VP"]
    assert len(timelines["SPIQ"]) == counts["SP"]
    for timeline in timelines.values():
        assert timeline.occupancy_histogram(result.total_cycles).total() == result.total_cycles


def test_vadq_timeline_is_built_once_and_covers_the_run(result):
    vadq = result.vadq_occupancy
    assert vadq is result.vadq_occupancy
    assert 0 < len(vadq) <= result.instructions_per_processor["vector_stores"]
    assert vadq.max_occupancy() <= vadq.capacity
    assert vadq.occupancy_histogram(result.total_cycles).total() == result.total_cycles
