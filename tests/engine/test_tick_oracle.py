"""The simulators against digests of their own recorded outcomes.

``tick_oracle.json`` pins, for every case of the seeded random batch
(:mod:`repro.core.fuzz`) and for a few fixed extra cases that reach
memory-path corners the batch cannot, SHA-256 digests of the simulator's
``to_json()`` payload (in its key order) and of its final scoreboard, as
recorded before the memory pipeline, timed queues, resource pools and result
assembly were last optimized.

A failure here means a simulator's observable behaviour changed.  That is
a bug unless the change was a deliberate, reviewed timing-model change, in
which case ``TIMING_MODEL_VERSION`` is bumped and the fixture regenerated
with ``python scripts/make_tick_oracle.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.fuzz import DEFAULT_SEED, FuzzCase, case_seed, generate_case, tick_digests

ORACLE_PATH = Path(__file__).parent / "tick_oracle.json"
ORACLE = json.loads(ORACLE_PATH.read_text())


def test_fixture_covers_the_ci_fuzz_batch():
    assert ORACLE["seed"] == DEFAULT_SEED
    assert [entry["index"] for entry in ORACLE["digests"]] == list(range(200))


@pytest.mark.parametrize("entry", ORACLE["digests"], ids=lambda entry: str(entry["index"]))
def test_tick_core_reproduces_the_recorded_digests(entry):
    case = generate_case(case_seed(ORACLE["seed"], entry["index"]))
    result, board, error = tick_digests(case)
    assert (result, board, error) == (entry["result"], entry["scoreboard"], entry["error"]), (
        f"tick core diverged from its recorded outcome\n  case: {case.describe()}"
    )


@pytest.mark.parametrize("entry", ORACLE["extra"], ids=lambda entry: str(entry["case"]["seed"]))
def test_tick_core_reproduces_the_extra_cases(entry):
    case = FuzzCase(**entry["case"])
    result, board, error = tick_digests(case)
    assert (result, board, error) == (entry["result"], entry["scoreboard"], entry["error"]), (
        f"tick core diverged from its recorded outcome\n  case: {case.describe()}"
    )
