"""Differential equivalence suite: the event core against the tick oracle.

Three layers of pinning:

* a fixed-seed batch of fuzzed (machine, program, latency) cases runs on
  every CI invocation via :mod:`repro.core.fuzz` — total cycles, stall
  counters, final scoreboard and error text must all be identical
  (``scripts/fuzz_cores.py`` runs larger batches and single-case repros);
* the core selector must thread through the public layers — ``RunConfig``,
  ``MachineSpec`` pins, the registry and the CLI — without changing what a
  cell *is*: store keys deliberately ignore the core, so tick- and
  event-computed results are interchangeable in the store;
* the ``--distributed`` path, whose workers always run the tick core,
  refuses an event-core request instead of silently ignoring it.
"""

import json
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.core.cli import main as cli_main
from repro.core.config import RunConfig
from repro.core.fuzz import (
    DEFAULT_SEED,
    FuzzCase,
    case_seed,
    generate_case,
    repro_command,
    run_case,
)
from repro.core.machine import MachineSpec
from repro.core.registry import architecture, simulate
from repro.core.experiment import Runner, SweepSpec
from repro.store import ResultStore
from repro.store.keys import cell_key, core_invariant_label
from repro.workloads.perfect_club import load_program

#: Cases in the in-tree CI batch; scripts/fuzz_cores.py defaults to 200+.
CI_CASES = 80

#: The tick oracle's fixed extra cases (memory-path corners the batch misses).
EXTRA_CASES = json.loads((Path(__file__).parent / "tick_oracle.json").read_text())["extra"]


@pytest.mark.parametrize("index", range(CI_CASES))
def test_fuzzed_case_is_cycle_identical(index):
    case = generate_case(case_seed(DEFAULT_SEED, index))
    failure = run_case(case)
    assert failure is None, (
        f"{failure}\n  repro: {repro_command(DEFAULT_SEED, index)}"
    )


@pytest.mark.parametrize("entry", EXTRA_CASES, ids=lambda entry: str(entry["case"]["seed"]))
def test_extra_oracle_case_is_cycle_identical(entry):
    failure = run_case(FuzzCase(**entry["case"]))
    assert failure is None, failure


class TestCoreSelectorPlumbing:
    @pytest.fixture(scope="class")
    def trace(self):
        return load_program("arc2d").build_trace(scale=1.0)

    @pytest.mark.parametrize("arch", ["ref", "dva", "dva-nobypass"])
    def test_registry_simulate_is_identical_on_both_cores(self, trace, arch):
        tick = simulate(trace, arch, config=RunConfig(latency=100))
        event = simulate(trace, arch, config=RunConfig(latency=100, core="event"))
        assert event.to_json() == tick.to_json()

    def test_spec_pin_overrides_the_runconfig_core(self, trace):
        pinned = simulate(trace, "dva@core=event", config=RunConfig(latency=50))
        plain = simulate(trace, "dva", config=RunConfig(latency=50))
        assert pinned.total_cycles == plain.total_cycles

    def test_unknown_core_is_rejected_everywhere(self):
        with pytest.raises(ConfigurationError, match="unknown timing core"):
            RunConfig(core="cycle")
        with pytest.raises(ConfigurationError):
            MachineSpec(family="dva", core="cycle")
        with pytest.raises(ConfigurationError):
            architecture("dva@core=cycle")

    def test_spec_core_round_trips_through_the_spec_string(self):
        spec = architecture("dva@core=event").spec
        assert spec.core == "event"
        assert spec.to_string() == "dva@core=event"


class TestStoreKeyCoreInvariance:
    def test_runconfig_core_does_not_change_the_key(self):
        simulator = architecture("dva")
        tick_key = cell_key("arc2d", 1.0, 50, simulator, RunConfig(latency=50))
        event_key = cell_key(
            "arc2d", 1.0, 50, simulator, RunConfig(latency=50, core="event")
        )
        assert tick_key == event_key

    def test_spec_core_pin_does_not_change_the_key(self):
        config = RunConfig(latency=50)
        base = cell_key("arc2d", 1.0, 50, architecture("dva"), config)
        pinned = cell_key("arc2d", 1.0, 50, architecture("dva@core=event"), config)
        assert base == pinned

    def test_core_pin_is_stripped_even_among_other_pins(self):
        config = RunConfig(latency=50)
        mixed = cell_key(
            "arc2d", 1.0, 50, architecture("dva@lanes=2,core=event"), config
        )
        plain = cell_key("arc2d", 1.0, 50, architecture("dva@lanes=2"), config)
        assert mixed == plain

    def test_core_invariant_label_strips_only_the_core(self):
        assert core_invariant_label("dva@core=event") == "dva"
        assert core_invariant_label("dva@lanes=2,core=event") == "dva@lanes=2"
        assert core_invariant_label("dva@lanes=2") == "dva@lanes=2"
        assert core_invariant_label("dva") == "dva"
        # Unparseable labels (hand-written simulators) pass through untouched.
        assert core_invariant_label("custom@weird label") == "custom@weird label"


class TestSweepOverCores:
    def test_axis_core_sweep_shares_cells_and_restores_provenance(self, tmp_path):
        spec = SweepSpec.from_strings(
            programs="arc2d",
            latencies="100",
            architectures="dva",
            axes=("core=tick,event",),
        )
        store = ResultStore(tmp_path)
        cold = Runner(jobs=1, store=store).run(spec)
        assert {r.architecture for r in cold} == {"dva@core=tick", "dva@core=event"}
        assert len({r.total_cycles for r in cold}) == 1

        warm = Runner(jobs=1, store=ResultStore(tmp_path)).run(spec)
        assert warm.cached_count == 2 and warm.simulated_count == 0
        # The shared store entry answers both cells, relabelled per request.
        assert {r.architecture for r in warm} == {"dva@core=tick", "dva@core=event"}

    def test_tick_warmed_store_answers_an_event_sweep(self, tmp_path):
        spec = SweepSpec.from_strings(
            programs="arc2d", latencies="50", architectures="ref,dva"
        )
        cold = Runner(jobs=1, store=ResultStore(tmp_path)).run(spec)
        assert cold.simulated_count == 2
        warm = Runner(jobs=1, store=ResultStore(tmp_path)).run(
            spec, config=RunConfig(core="event")
        )
        assert warm.cached_count == 2 and warm.simulated_count == 0

    def test_distributed_refuses_the_event_core(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "sweep",
                    "--programs", "arc2d",
                    "--latencies", "1",
                    "--arch", "dva",
                    "--core", "event",
                    "--distributed",
                    "--store-dir", str(tmp_path),
                ]
            )
        assert "tick core" in capsys.readouterr().err
