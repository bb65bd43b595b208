#!/usr/bin/env python3
"""Record the expected numbers of every cell the golden snapshot does not cover.

The benchmark checks each preset cell at latencies {1, 50, 100} against
``tests/golden/golden_cycles.json``.  Everything else it runs — the axis
grid of ``axis_sweep_pool`` and the latency-10 and non-preset machines of
``serve_zipf`` — is checked against ``perfbench/reference_cells.json``,
which this script writes: ``total_cycles`` and ``instructions`` per cell, as
the simulators of the commit that ran it produce them.  Regenerate only for
a deliberate, reviewed timing-model change:

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro import Runner, SweepSpec  # noqa: E402
from workloads import (  # noqa: E402
    AXES, AXIS_LATENCIES, AXIS_PROGRAMS, PAPER_PROGRAMS, SERVE_LATENCIES, SERVE_MACHINES,
    axis_label,
)

FIELDS = ("total_cycles", "instructions")


def main() -> int:
    with open(os.path.join(os.getcwd(), "tests", "golden", "golden_cycles.json")) as handle:
        golden = json.load(handle)["cells"]
    specs = [
        SweepSpec(programs=AXIS_PROGRAMS, latencies=AXIS_LATENCIES, architectures=("dva",),
                  axes=AXES),
        SweepSpec(programs=PAPER_PROGRAMS, latencies=SERVE_LATENCIES,
                  architectures=SERVE_MACHINES),
    ]
    cells = {}
    with Runner(jobs=1) as runner:
        for spec in specs:
            for cell, result in zip(spec.cells(), runner.run(spec)):
                machine = axis_label(cell.architecture, cell.overrides)
                key = f"{cell.program}/{cell.latency}/{machine}"
                if key not in golden:
                    cells[key] = {name: result.detail[name] for name in FIELDS}
    with open(os.path.join(HERE, "reference_cells.json"), "w") as handle:
        json.dump({"fields": list(FIELDS), "cells": cells}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote perfbench/reference_cells.json ({len(cells)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
