"""The cycle oracles reach every corner of the decoupled memory path.

``tests/golden`` and the tick oracle (``tick_oracle.json``) pin the
decoupled machine's outcomes, but a pin only protects the code paths its
cases actually execute.  This test counts, over the oracle's random batch,
the fixed extra cases of the tick oracle and the decoupled cells of the
golden grid, how often each corner of the address processor's memory path
is reached, and fails if any corner is never reached:

* a forced drain of the VSAQ, the SSAQ and the VADQ (a store queue is full,
  so the oldest queued store is performed to make room);
* an AP stall on a full AVDQ;
* a load serviced by the store→load bypass;
* a disambiguation stall (a load conflicts with a queued store);
* traffic on a second memory port;
* an indexed (gather/scatter) reference;
* a scalar store that hits the cache and still writes through to memory.

The counts come from instrumenting the pipeline's forced-drain hook and the
fabric's scalar accesses, and from the pipeline's counters and port
recorders.  An AVDQ stall leaves no counter of its own, so each run is
repeated with an AVDQ too deep to fill: the AP stalled on a full AVDQ
exactly when the two runs push load data at different cycles.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.fuzz import FuzzCase, case_seed, generate_case
from repro.core.registry import machine_spec
from repro.dva.address import MemoryPipeline
from repro.dva.config import DecoupledConfig
from repro.dva.simulator import _DecoupledState
from repro.engine.memory import MemoryFabric
from repro.memory.model import MemoryModel
from repro.workloads.perfect_club import build_trace

ORACLE = json.loads((Path(__file__).parent / "tick_oracle.json").read_text())
GOLDEN = json.loads(
    (Path(__file__).parents[1] / "golden" / "golden_cycles.json").read_text()
)

CORNERS = (
    "forced drain VSAQ",
    "forced drain SSAQ",
    "forced drain VADQ",
    "AP stall on full AVDQ",
    "bypassed load",
    "disambiguation stall",
    "second-port traffic",
    "indexed reference",
    "write-through scalar store",
)


def _decoupled_runs():
    """(trace, latency, config) of every decoupled run the oracles pin."""
    cases = [
        generate_case(case_seed(ORACLE["seed"], entry["index"]))
        for entry in ORACLE["digests"]
    ]
    cases += [FuzzCase(**entry["case"]) for entry in ORACLE["extra"]]
    for case in cases:
        if case.family == "dva":
            yield case.build_trace(), case.latency, case.build_config()
    spec = GOLDEN["spec"]
    for program in spec["programs"]:
        trace = build_trace(program)
        for name in spec["architectures"]:
            machine = machine_spec(name)
            if machine.family != "dva":
                continue
            config = machine.apply_decoupled(DecoupledConfig())
            for latency in spec["latencies"]:
                yield trace, latency, config


@pytest.fixture(scope="module")
def corner_counts():
    counts = dict.fromkeys(CORNERS, 0)
    patch = pytest.MonkeyPatch()
    make_room = MemoryPipeline._make_room
    scalar_access_at = MemoryFabric.scalar_access_at

    def counting_make_room(self, queue):
        before = self.forced_drains
        make_room(self, queue)
        if self.forced_drains > before:
            counts[f"forced drain {queue.name}"] += 1

    def counting_scalar_access_at(self, address, is_store):
        access = scalar_access_at(self, address, is_store)
        if is_store and access.hit and access.uses_port:
            counts["write-through scalar store"] += 1
        return access

    patch.setattr(MemoryPipeline, "_make_room", counting_make_room)
    patch.setattr(MemoryFabric, "scalar_access_at", counting_scalar_access_at)
    try:
        for trace, latency, config in _decoupled_runs():
            state = _DecoupledState(MemoryModel(latency=latency), config)
            state.consume(trace)
            state.finish(trace)
            memory = state.memory
            counts["bypassed load"] += memory.bypassed_loads
            counts["disambiguation stall"] += memory.disambiguation_stalls
            recorders = memory.fabric.ports.recorders
            if len(recorders) > 1:
                counts["second-port traffic"] += recorders[1].busy_time()
            infos = trace.columns.instruction_infos()
            counts["indexed reference"] += sum(
                1 for table_index in trace.columns.insn
                if infos[table_index].is_indexed
            )
            deep = replace(
                config, queues=replace(config.queues, vector_load_data=65536)
            )
            unbounded = _DecoupledState(MemoryModel(latency=latency), deep)
            unbounded.consume(trace)
            if unbounded.memory.avdq.push_times != memory.avdq.push_times:
                counts["AP stall on full AVDQ"] += 1
    finally:
        patch.undo()
    return counts


@pytest.mark.parametrize("corner", CORNERS)
def test_the_oracles_reach_the_corner(corner_counts, corner):
    assert corner_counts[corner] > 0, f"no pinned run reaches: {corner}"
