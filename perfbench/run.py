#!/usr/bin/env python3
"""The repository benchmark: one workload per run, checked, timed and reported.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload paper_grid_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` runs the same work with spans around the public calls of every
layer and reports the per-layer ledger instead.  The metric names and units
are the ones ``BENCHMARK.json`` lists.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the environment (CPUs, Python, effective parallelism) and
the sample count behind every percentile, the raw (unnormalized) timings and
the measured values ``BENCHMARK.json`` does not list (``p50_ms``, too noisy
on shared hosts to gate on).  Any cell or request that errors
or disagrees with ``tests/golden/golden_cycles.json`` or
``perfbench/reference_cells.json`` counts as failed and makes the run exit 1.

Every store, the ``REPRO_CACHE_DIR`` and ``TMPDIR`` of the run live in a
fresh directory under ``.perfbench_tmp/`` in the checkout, removed at exit;
every process the run starts is ended and waited for on every exit path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden", "golden_cycles.json")
REFERENCE = os.path.join(HERE, "reference_cells.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def _terminate(signum, frame):
    # Turn SIGTERM into an exception, so every ``finally`` reaps its processes.
    raise SystemExit(128 + signum)


def load_expected() -> tuple:
    with open(GOLDEN) as handle:
        golden = json.load(handle)["cells"]
    with open(REFERENCE) as handle:
        reference = json.load(handle)["cells"]
    return golden, reference


def environment(outcome) -> dict:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    requested = max([1] + [v for k, v in outcome.parallelism.items()
                           if k in ("pool_jobs_requested", "cluster_workers", "processes")])
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": cpus,
        "python": platform.python_version(),
        "parallelism": outcome.parallelism,
        "oversubscribed": requested > cpus,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for path in (os.path.join(SRC, "repro", "__init__.py"), GOLDEN, REFERENCE, BENCHMARK):
        if not os.path.isfile(path):
            print(f"error: {path} is missing; run from the root of a repro checkout",
                  file=sys.stderr)
            return 2
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        # Hermetic: the default store, temp files and children all stay in scratch.
        os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
        os.environ["TMPDIR"] = scratch
        os.environ["PYTHONPATH"] = SRC
        tempfile.tempdir = scratch
        golden, reference = load_expected()
        ctx = Context(scratch, args.seed, args.seconds, bool(args.trace), golden, reference)
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for error in ctx.errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    if ctx.errors:
        print(f"perfbench: {len(ctx.errors)} errors; {outcome.failed} of "
              f"{outcome.attempted} cells failed", file=sys.stderr)
    missing = [name for name in units if name not in outcome.metrics]
    if not args.trace and missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 2
    # A layer that does no work in this workload reads 0.
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    unlisted = {name: value for name, value in outcome.metrics.items() if name not in units}
    correct = outcome.failed == 0 and not ctx.errors
    print(json.dumps({"environment": environment(outcome), "samples": outcome.samples,
                      "raw": outcome.raw, "unlisted": unlisted}))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
