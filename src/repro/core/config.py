"""Unified run configuration shared by every architecture adapter.

A :class:`RunConfig` carries everything one sweep cell needs besides the trace
itself: the memory latency under study plus the architecture-specific
parameter blocks.  Keeping both blocks in one frozen object lets a single
configuration drive heterogeneous architectures — each adapter picks the block
it understands and ignores the other — and makes sweep cells trivially
picklable for the multiprocessing runner.

A :class:`~repro.core.machine.MachineSpec` sits *above* this object: the
fields a spec pins (lanes, ports, bypass, queue depths, ...) override the
matching block values at simulation time, and everything the spec leaves
unpinned falls through to the blocks here.  The blocks are therefore the
sweep-wide baseline and the spec is the per-machine delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError
from repro.dva.config import DecoupledConfig
from repro.refarch.config import ReferenceConfig


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs besides the trace.

    Attributes:
        latency: main-memory latency in cycles (the paper sweeps 1–100).
        reference: parameters of the reference (non-decoupled) machine.
        decoupled: parameters of the decoupled machine.  Architectures that
            fix the bypass setting (``"dva"``, ``"dva-nobypass"``) override
            ``enable_bypass`` and keep everything else.
    """

    latency: int = 1
    reference: ReferenceConfig = field(default_factory=ReferenceConfig)
    decoupled: DecoupledConfig = field(default_factory=DecoupledConfig)

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError("memory latency cannot be negative")

    def with_latency(self, latency: int) -> "RunConfig":
        """A copy of this configuration at a different memory latency."""
        return replace(self, latency=latency)
