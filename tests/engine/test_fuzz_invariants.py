"""Properties every simulated outcome must have, over the seeded random batch.

``test_tick_oracle.py`` pins each case's outcome to a recorded digest, which
catches any change but cannot say whether the recorded outcome is sensible.
These tests check the same cases (:mod:`repro.core.fuzz`) against facts
that hold for any correct run, whatever its cycle count:

* the result's counters agree with each other and with the trace — the AVDQ
  histogram covers every cycle, no occupancy exceeds the queue's size, stall
  and idle counts fit inside the run, a machine without the bypass never
  bypasses, and the payload survives a JSON round trip;
* the public route — a :class:`~repro.core.machine.MachineSpec` string
  through :func:`repro.core.registry.simulate` — builds the very machine the
  case describes, so it produces the identical payload.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import RunConfig
from repro.core.fuzz import DEFAULT_SEED, FuzzCase, case_seed, generate_case
from repro.core.registry import simulate
from repro.core.result import RunResult

#: Cases in the seeded batch (the tick oracle pins the same 200).
BATCH_CASES = 200

#: The tick oracle's fixed extra cases (memory-path corners the batch misses).
EXTRA_CASES = json.loads((Path(__file__).parent / "tick_oracle.json").read_text())["extra"]

CASES = [
    pytest.param(generate_case(case_seed(DEFAULT_SEED, index)), id=f"batch-{index}")
    for index in range(BATCH_CASES)
] + [
    pytest.param(FuzzCase(**entry["case"]), id=f"extra-{entry['case']['seed']}")
    for entry in EXTRA_CASES
]


def _on_off(flag: bool) -> str:
    return "on" if flag else "off"


def spec_string(case: FuzzCase) -> str:
    """The ``--arch`` spec naming the machine a batch case describes."""
    common = f"lanes={case.lanes},ports={case.ports}"
    if case.family == "ref":
        return f"ref@{common},chaining={_on_off(case.chaining)}"
    return (
        f"dva@{common},bypass={_on_off(case.bypass)},iq={case.instruction_queue},"
        f"avdq={case.vector_load_data},vadq={case.vector_store_data},"
        f"ssaq={case.scalar_store_address},sdq={case.scalar_data}"
    )


@pytest.mark.parametrize("case", CASES)
def test_fuzzed_case_keeps_the_result_invariants(case):
    result, _board, error = case.simulate()
    assert error is None, f"{error}\n  case: {case.describe()}"
    total = result["total_cycles"]

    assert result["latency"] == case.latency
    assert result["instructions"] == len(case.build_trace())
    assert 0 <= result["all_idle_cycles"] <= total
    assert 0.0 <= result["port_idle_fraction"] <= 1.0

    if case.family == "ref":
        assert result["vector_instructions"] + result["scalar_instructions"] == result["instructions"]
        assert 0 <= result["dispatch_stall_cycles"] <= total
    else:
        histogram = result["avdq_histogram"]
        occupancies = [occupancy for occupancy, _count in histogram]
        assert occupancies == sorted(occupancies)
        assert sum(count for _occupancy, count in histogram) == total
        assert max(occupancy for occupancy, count in histogram if count) == result["max_avdq_occupancy"]
        assert result["max_avdq_occupancy"] <= case.vector_load_data
        mean = sum(occupancy * count for occupancy, count in histogram) / total
        assert result["mean_avdq_occupancy"] == round(mean, 4)

        per_processor = result["instructions_per_processor"]
        assert per_processor["FP"] == result["instructions"]
        assert 0 <= result["bypassed_loads"] <= per_processor["vector_loads"]
        if not case.bypass:
            assert (result["bypassed_loads"], result["bypassed_bytes"]) == (0, 0)
        assert 0 <= result["fetch_stall_cycles"] <= total

    wrapped = RunResult.from_json({"architecture": case.family, "detail": result})
    assert RunResult.from_json(json.loads(json.dumps(wrapped.to_json()))) == wrapped


@pytest.mark.parametrize("index", range(BATCH_CASES))
def test_fuzzed_case_runs_the_same_through_its_machine_spec(index):
    case = generate_case(case_seed(DEFAULT_SEED, index))
    direct, _board, error = case.simulate()
    assert error is None, f"{error}\n  case: {case.describe()}"
    public = simulate(case.build_trace(), spec_string(case), config=RunConfig(latency=case.latency))
    assert public.detail == direct, f"spec route diverged\n  case: {case.describe()}"
