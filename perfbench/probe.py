"""Set-up probe: import what a workload needs, then print ``ready``.

``python3 perfbench/probe.py {sweep,pool,cluster}`` is what the benchmark
starts (with ``src`` on ``PYTHONPATH``) to time a fresh process's set-up:
interpreter start, ``repro`` imports and the objects a workload creates
before its first cell can be issued.
"""

import sys

kind = sys.argv[1]
from repro import ResultStore, Runner  # noqa: E402

if kind == "sweep":
    Runner(jobs=1, store=ResultStore(sys.argv[2]))
elif kind == "pool":
    Runner(jobs=2)
elif kind == "cluster":
    from repro.cluster import ClusterCoordinator

    ClusterCoordinator(ResultStore(sys.argv[2]))
else:
    sys.exit(f"unknown probe {kind!r}")
print("ready", flush=True)
