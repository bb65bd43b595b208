#!/usr/bin/env python
"""Regenerate the trace-oracle fixture in tests/trace/trace_oracle.json.

The fixture pins, for the six Perfect Club program models at scales 1.0 and
0.25 and for the trace of every case of the seeded random batch (master
seed 20260808, 200 cases), the digests :func:`repro.trace.statistics.trace_digests`
takes: one SHA-256 per trace column, the instruction table, the block labels
and the region layout, plus the record and executed-block counts.  The tick
oracle only sees what moves cycles; this fixture also pins sequence numbers,
block ids and the exact addresses trace generation assigns.

Regenerate only for a deliberate, reviewed change to the dynamic stream a
program model produces (and bump ``TRACE_GENERATOR_VERSION`` with it):

    PYTHONPATH=src python scripts/make_trace_oracle.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.core.fuzz import DEFAULT_SEED, case_seed, generate_case  # noqa: E402
from repro.trace.statistics import trace_digests  # noqa: E402
from repro.workloads import load_program, program_names  # noqa: E402

SCALES = (1.0, 0.25)
CASES = 200


def main() -> int:
    entries = []
    for scale in SCALES:
        for name in program_names():
            trace = load_program(name).build_trace(scale=scale)
            entries.append({"program": name, "scale": scale, **trace_digests(trace)})
    for index in range(CASES):
        trace = generate_case(case_seed(DEFAULT_SEED, index)).build_trace()
        entries.append({"fuzz_case": index, **trace_digests(trace)})

    destination = os.path.join(
        os.path.dirname(__file__), os.pardir, "tests", "trace", "trace_oracle.json"
    )
    # One trace per line, so a diff of the fixture names the moved traces.
    with open(destination, "w") as handle:
        handle.write(
            f'{{"scales": {json.dumps(SCALES)}, "seed": {DEFAULT_SEED}, '
            f'"cases": {CASES}, "traces": [\n'
        )
        handle.write(",\n".join(json.dumps(entry) for entry in entries))
        handle.write("\n]}\n")
    print(f"wrote {os.path.normpath(destination)} ({len(entries)} traces)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
