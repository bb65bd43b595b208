"""A scalar data queue shallower than the SSAQ forces drains instead of failing.

The SADQ holds the data of queued scalar stores.  When it is shallower than
the SSAQ it fills while store addresses are still queued, and the oldest
store must be performed to make room — exactly what the VADQ does for
vector stores.  BDNA queues enough scalar stores to fill an SADQ of one to
three slots.
"""

import pytest

from repro.core.registry import machine_spec
from repro.dva.config import DecoupledConfig
from repro.dva.simulator import DecoupledSimulator
from repro.memory.model import MemoryModel
from repro.workloads.perfect_club import build_trace


@pytest.fixture(scope="module")
def trace():
    return build_trace("BDNA")


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_a_full_sadq_drains_instead_of_failing(trace, slots):
    config = machine_spec(f"dva@sdq={slots}").apply_decoupled(DecoupledConfig())
    assert config.queues.scalar_data == slots
    result = DecoupledSimulator(MemoryModel(latency=1), config=config).run(trace)
    assert result.total_cycles > 0
