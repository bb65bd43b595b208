#!/usr/bin/env python
"""Regenerate the tick-oracle fixture in tests/engine/tick_oracle.json.

The fixture pins, for every case of the differential fuzz batch (master seed
20260808, 200 cases), SHA-256 digests of the tick core's ``to_json()``
payload and of its final scoreboard, or the exact text of the simulation
error the case raises.  The event core shares the memory pipeline, the timed
queues and the resource pools with the tick core, so the tick-vs-event fuzz
cannot see a change to those shared layers; this fixture can.

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

from repro.core.fuzz import DEFAULT_SEED, case_seed, generate_case, tick_digests  # noqa: E402

CASES = 200


def main() -> int:
    digests = []
    for index in range(CASES):
        case = generate_case(case_seed(DEFAULT_SEED, index))
        result, board, error = tick_digests(case)
        digests.append(
            {"index": index, "result": result, "scoreboard": board, "error": error}
        )

    destination = os.path.join(
        os.path.dirname(__file__), os.pardir, "tests", "engine", "tick_oracle.json"
    )
    # One case per line, so a diff of the fixture names the moved cases.
    with open(destination, "w") as handle:
        handle.write(f'{{"seed": {DEFAULT_SEED}, "cases": {CASES}, "digests": [\n')
        handle.write(",\n".join(json.dumps(entry) for entry in digests))
        handle.write("\n]}\n")
    print(f"wrote {os.path.normpath(destination)} ({len(digests)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
