#!/usr/bin/env python
"""Regenerate the tick-oracle fixture in tests/engine/tick_oracle.json.

The fixture pins, for every case of the seeded random batch (master seed
20260808, 200 cases) and for the fixed extra cases below, SHA-256 digests of
the simulator's ``to_json()`` payload and of its final scoreboard, or the
exact text of the simulation error the case raises.  The extra cases reach
memory-path corners the random batch cannot (``tests/engine/
test_oracle_corners.py`` counts them): a VSAQ deeper than the VADQ, so the
VADQ fills and forces drains, and scalar stores that queue behind each other
and write through on cache hits.

Like the golden snapshot it must NOT be regenerated casually: regenerate only
when a deliberate, reviewed timing-model change makes the old digests wrong
(and bump ``TIMING_MODEL_VERSION`` with it):

    PYTHONPATH=src python scripts/make_tick_oracle.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from dataclasses import asdict  # noqa: E402

from repro.core.fuzz import (  # noqa: E402
    DEFAULT_SEED,
    FuzzCase,
    case_seed,
    generate_case,
    tick_digests,
)

CASES = 200

_SHAPE = dict(family="dva", elements=200, max_vector_length=16, invocations=2)

EXTRA_CASES = (
    FuzzCase(seed=1, kernel="stream_triad", latency=50, lanes=1, ports=1,
             vector_store_data=1, vector_store_address=16, **_SHAPE),
    FuzzCase(seed=2, kernel="spill_heavy", latency=7, lanes=2, ports=2, bypass=True,
             vector_store_data=2, vector_store_address=16, **_SHAPE),
    FuzzCase(seed=3, kernel="scalar_writeback", latency=50, lanes=1, ports=1,
             scalar_store_address=1, scalar_store_writes_through=True, **_SHAPE),
    FuzzCase(seed=4, kernel="scalar_writeback", latency=1, lanes=1, ports=2,
             scalar_store_address=2, scalar_data=2, scalar_store_writes_through=True,
             **_SHAPE),
)


def main() -> int:
    digests = []
    for index in range(CASES):
        case = generate_case(case_seed(DEFAULT_SEED, index))
        result, board, error = tick_digests(case)
        digests.append(
            {"index": index, "result": result, "scoreboard": board, "error": error}
        )
    extra = []
    for case in EXTRA_CASES:
        result, board, error = tick_digests(case)
        extra.append(
            {"case": asdict(case), "result": result, "scoreboard": board, "error": error}
        )

    destination = os.path.join(
        os.path.dirname(__file__), os.pardir, "tests", "engine", "tick_oracle.json"
    )
    # One case per line, so a diff of the fixture names the moved cases.
    with open(destination, "w") as handle:
        handle.write(f'{{"seed": {DEFAULT_SEED}, "cases": {CASES}, "digests": [\n')
        handle.write(",\n".join(json.dumps(entry) for entry in digests))
        handle.write('\n], "extra": [\n')
        handle.write(",\n".join(json.dumps(entry) for entry in extra))
        handle.write("\n]}\n")
    print(
        f"wrote {os.path.normpath(destination)} "
        f"({len(digests)} batch cases, {len(extra)} extra cases)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
