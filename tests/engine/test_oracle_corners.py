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

The counts come from the counters the tick loop keeps beside its result —
forced drains per store queue, write-through scalar store hits, bypassed
loads, disambiguation stalls — and from the port recorders.  An AVDQ stall
leaves no counter of its own, so each run is repeated with an AVDQ too deep
to fill: the AP stalled on a full AVDQ exactly when the two runs push load
data at different cycles.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.fuzz import FuzzCase, case_seed, generate_case
from repro.core.registry import machine_spec
from repro.dva.config import DecoupledConfig
from repro.dva.simulator import _DecoupledState
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
    for trace, latency, config in _decoupled_runs():
        state = _DecoupledState(MemoryModel(latency=latency), config)
        state.consume(trace)
        state.finish(trace)
        for queue in ("VSAQ", "SSAQ", "VADQ"):
            counts[f"forced drain {queue}"] += state.forced_drains[queue]
        counts["write-through scalar store"] += state.write_through_hits
        counts["bypassed load"] += state.bypassed_loads
        counts["disambiguation stall"] += state.disambiguation_stalls
        recorders = state.fabric.ports.recorders
        if len(recorders) > 1:
            counts["second-port traffic"] += recorders[1].busy_time()
        infos = trace.columns.instruction_infos()
        counts["indexed reference"] += sum(
            1 for table_index in trace.columns.insn if infos[table_index].is_indexed
        )
        deep = replace(config, queues=replace(config.queues, vector_load_data=65536))
        unbounded = _DecoupledState(MemoryModel(latency=latency), deep)
        unbounded.consume(trace)
        if unbounded.avdq.push_times != state.avdq.push_times:
            counts["AP stall on full AVDQ"] += 1
    return counts


def test_loop_counters_stay_out_of_the_payload():
    case = FuzzCase(**ORACLE["extra"][0]["case"])
    result, _board, error = case.simulate()
    assert error is None
    assert not {"forced_drains", "write_through_hits"} & set(result)


@pytest.mark.parametrize("corner", CORNERS)
def test_the_oracles_reach_the_corner(corner_counts, corner):
    assert corner_counts[corner] > 0, f"no pinned run reaches: {corner}"
