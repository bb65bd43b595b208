"""Trace generation against digests of its own recorded output.

The golden snapshot and the tick oracle pin what trace generation feeds the
timing cores, but only the parts that move cycles: sequence numbers, block
ids and most addresses can change without either noticing.
``trace_oracle.json`` pins every column, the instruction table, the block
labels, the region layout and the executed-block count of the six program
models at scales 1.0 and 0.25 and of the 200 fuzz-batch traces.

A failure here means the dynamic stream a program model produces changed.
That is a bug unless the change was deliberate and reviewed, in which case
``TRACE_GENERATOR_VERSION`` is bumped and the fixture regenerated with
``python scripts/make_trace_oracle.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.fuzz import DEFAULT_SEED, case_seed, generate_case
from repro.trace.statistics import trace_digests
from repro.workloads import load_program, program_names

ORACLE_PATH = Path(__file__).parent / "trace_oracle.json"
ORACLE = json.loads(ORACLE_PATH.read_text())
PROGRAM_ENTRIES = [entry for entry in ORACLE["traces"] if "program" in entry]
FUZZ_ENTRIES = [entry for entry in ORACLE["traces"] if "fuzz_case" in entry]


def _recorded(entry):
    return {
        key: value for key, value in entry.items() if key not in ("program", "scale", "fuzz_case")
    }


def _moved(recorded, digests):
    return sorted(key for key in recorded if digests.get(key) != recorded[key])


def test_fixture_covers_every_program_scale_and_fuzz_case():
    assert ORACLE["seed"] == DEFAULT_SEED
    assert sorted((entry["program"], entry["scale"]) for entry in PROGRAM_ENTRIES) == sorted(
        (name, scale) for name in program_names() for scale in ORACLE["scales"]
    )
    assert [entry["fuzz_case"] for entry in FUZZ_ENTRIES] == list(range(ORACLE["cases"]))


@pytest.mark.parametrize(
    "entry", PROGRAM_ENTRIES, ids=lambda entry: f"{entry['program']}-{entry['scale']}"
)
def test_program_trace_reproduces_the_recorded_digests(entry):
    trace = load_program(entry["program"]).build_trace(scale=entry["scale"])
    digests = trace_digests(trace)
    recorded = _recorded(entry)
    assert digests == recorded, f"moved: {_moved(recorded, digests)}"


def test_fuzz_batch_traces_reproduce_the_recorded_digests():
    moved = {}
    for entry in FUZZ_ENTRIES:
        case = generate_case(case_seed(ORACLE["seed"], entry["fuzz_case"]))
        digests = trace_digests(case.build_trace())
        recorded = _recorded(entry)
        if digests != recorded:
            moved[entry["fuzz_case"]] = (case.describe(), _moved(recorded, digests))
    assert not moved, f"fuzz traces moved: {moved}"
