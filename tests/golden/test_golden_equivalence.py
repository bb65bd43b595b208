"""Golden-equivalence tests for the engine-based simulators.

``golden_cycles.json`` pins ``total_cycles`` and the key stall counters that
the *seed* (pre-``repro.engine``) simulators produced for every cell of the
paper's grid — six Perfect Club programs x memory latencies {1, 50, 100} x
{ref, dva, dva-nobypass}.  These tests assert that the simulators, however
they are implemented internally, still reproduce those numbers exactly.

A failure here means the timing model changed.  That is a bug unless the
change was deliberate and reviewed, in which case the snapshot is regenerated
with ``python scripts/make_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro import Runner, SweepSpec

GOLDEN_PATH = Path(__file__).parent / "golden_cycles.json"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def sweep(golden):
    spec = SweepSpec(
        programs=tuple(golden["spec"]["programs"]),
        latencies=tuple(golden["spec"]["latencies"]),
        architectures=tuple(golden["spec"]["architectures"]),
    )
    return Runner(jobs=1).run(spec)


def test_snapshot_covers_the_full_grid(golden):
    spec = golden["spec"]
    expected = len(spec["programs"]) * len(spec["latencies"]) * len(spec["architectures"])
    assert len(golden["cells"]) == expected == 54


def test_every_cell_matches_the_seed_exactly(golden, sweep):
    mismatches = []
    for result in sweep:
        key = f"{result.program}/{result.latency}/{result.architecture}"
        expected = golden["cells"][key]
        actual = {name: result.detail[name] for name in expected}
        if actual != expected:
            mismatches.append((key, expected, actual))
    assert not mismatches, (
        "engine-based simulators diverged from the seed timing:\n"
        + "\n".join(
            f"  {key}: expected {expected}, got {actual}"
            for key, expected, actual in mismatches
        )
    )


def test_total_cycles_match_per_architecture(golden, sweep):
    """Redundant with the cell check, but failure output localizes the machine."""
    for architecture in golden["spec"]["architectures"]:
        expected = {
            key: cell["total_cycles"]
            for key, cell in golden["cells"].items()
            if key.endswith("/" + architecture)
        }
        actual = {
            f"{r.program}/{r.latency}/{r.architecture}": r.total_cycles
            for r in sweep.by_architecture(architecture)
        }
        assert actual == expected
