"""The one-union idle count equals the state breakdown's all-idle cycles.

Both results report ``all_idle_cycles`` as ``total_cycles`` less the union of
the FU2, FU1 and port busy intervals, clipped to ``[0, total_cycles)``
(:func:`repro.common.intervals.idle_cycles`).  The eight-state sweep of
:func:`~repro.common.intervals.state_breakdown` stays the lazy method behind
the figures; these checks demand that both give the same count on every
golden cell, on every case of the seeded fuzz batch (multi-port and
multi-lane machines included) and on hand-built interval sets the
simulators never produce.
"""

import json
from pathlib import Path

import pytest

from repro.common.intervals import IntervalRecorder, idle_cycles, state_breakdown
from repro.core.fuzz import DEFAULT_SEED, FuzzCase, case_seed, generate_case
from repro.core.registry import machine_spec
from repro.dva.config import DecoupledConfig
from repro.dva.simulator import DecoupledSimulator
from repro.memory.model import MemoryModel
from repro.refarch.config import ReferenceConfig
from repro.refarch.simulator import ReferenceSimulator
from repro.workloads.perfect_club import build_trace

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "golden" / "golden_cycles.json").read_text()
)
ORACLE = json.loads((Path(__file__).parent / "tick_oracle.json").read_text())

FUZZ_CASES = [
    pytest.param(generate_case(case_seed(DEFAULT_SEED, index)), id=f"batch-{index}")
    for index in range(ORACLE["cases"])
] + [
    pytest.param(FuzzCase(**entry["case"]), id=f"extra-{entry['case']['seed']}")
    for entry in ORACLE["extra"]
]


def _assert_one_union_matches_the_breakdown(result):
    recorders = [result.fu2_busy, result.fu1_busy, result.port_busy]
    breakdown = state_breakdown(recorders, result.total_cycles)
    assert result.all_idle_cycles == breakdown.cycles_all_idle()
    # Port busy time comes from the same sorted bounds the union used.
    port_idle = breakdown.cycles_resource_idle(result.port_busy.name)
    assert result.total_cycles - result.port_busy.busy_time() == port_idle


@pytest.fixture(scope="module")
def golden_results():
    spec = GOLDEN["spec"]
    results = []
    for program in spec["programs"]:
        trace = build_trace(program)
        for name in spec["architectures"]:
            machine = machine_spec(name)
            for latency in spec["latencies"]:
                memory = MemoryModel(latency=latency)
                if machine.family == "ref":
                    simulator = ReferenceSimulator(
                        memory, machine.apply_reference(ReferenceConfig())
                    )
                else:
                    simulator = DecoupledSimulator(
                        memory, machine.apply_decoupled(DecoupledConfig())
                    )
                results.append((f"{program}/{latency}/{name}", simulator.run(trace)))
    return results


def test_every_golden_cell(golden_results):
    assert len(golden_results) == len(GOLDEN["cells"]) == 54
    for key, result in golden_results:
        assert result.total_cycles == GOLDEN["cells"][key]["total_cycles"], key
        _assert_one_union_matches_the_breakdown(result)


@pytest.mark.parametrize("case", FUZZ_CASES)
def test_every_fuzz_case(case):
    memory = MemoryModel(latency=case.latency)
    if case.family == "ref":
        simulator = ReferenceSimulator(memory, case.build_config())
    else:
        simulator = DecoupledSimulator(memory, case.build_config())
    _assert_one_union_matches_the_breakdown(simulator.run(case.build_trace()))


def test_the_batch_includes_multi_port_and_multi_lane_machines():
    cases = [param.values[0] for param in FUZZ_CASES]
    assert any(case.ports > 1 for case in cases)
    assert any(case.lanes > 1 for case in cases)


def _recorders(*interval_lists):
    recorders = []
    for index, intervals in enumerate(interval_lists):
        recorder = IntervalRecorder(f"R{index}")
        for start, end in intervals:
            recorder.record(start, end)
        recorders.append(recorder)
    return recorders


class TestHandCases:
    def _check(self, recorders, total_cycles, expected):
        assert idle_cycles(recorders, total_cycles) == expected
        assert state_breakdown(recorders, total_cycles).cycles_all_idle() == expected

    def test_unsorted_overlapping_intervals_of_a_combined_multi_port_recorder(self):
        port0 = IntervalRecorder("LD0")
        port1 = IntervalRecorder("LD1")
        for start, end in [(10, 20), (30, 34), (50, 60)]:
            port0.record(start, end)
        for start, end in [(12, 18), (2, 5), (33, 40), (60, 61)]:
            port1.record(start, end)
        combined = IntervalRecorder("LD")
        combined.record_all(port0)
        combined.record_all(port1)
        assert combined.starts != sorted(combined.starts)
        assert combined.busy_time() == 3 + 10 + 10 + 11  # [2, 5) [10, 20) [30, 40) [50, 61)
        fu2, fu1 = _recorders([(4, 11)], [(70, 75), (41, 42)])
        # Busy: [2, 20) [30, 40) [41, 42) [50, 61) [70, 75).
        self._check([fu2, fu1, combined], 80, 80 - (18 + 10 + 1 + 11 + 5))

    def test_intervals_running_past_the_end_of_the_run(self):
        fu2, fu1, port = _recorders([(0, 4), (90, 130)], [(95, 200)], [(150, 160)])
        # Clipped to [0, 100): busy [0, 4) and [90, 100).
        self._check([fu2, fu1, port], 100, 100 - 14)

    def test_a_run_of_zero_cycles(self):
        fu2, fu1, port = _recorders([(0, 4)], [], [(2, 3)])
        self._check([fu2, fu1, port], 0, 0)

    def test_no_intervals_leaves_every_cycle_idle(self):
        self._check(_recorders([], [], []), 25, 25)

    def test_touching_intervals_leave_no_idle_cycle_between_them(self):
        fu2, fu1, port = _recorders([(0, 5)], [(5, 9)], [(9, 12)])
        self._check([fu2, fu1, port], 12, 0)
