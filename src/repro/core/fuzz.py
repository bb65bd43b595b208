"""Seeded random (machine, program, latency) cases for the tick oracle.

``tests/engine/tick_oracle.json`` pins each simulator's outcome on a batch
of random cases; this module generates that batch.  Everything here is
deterministic in the seed: :func:`case_seed` derives one case seed per index
from a master seed, :func:`generate_case` expands a case seed into a
fully-described :class:`FuzzCase`, and :func:`tick_digests` runs a case and
digests its outcome, so a mismatch always names a reproducible case.

The harness deliberately instantiates the simulation *states* directly
(rather than going through :class:`~repro.core.registry.SpecArchitecture`)
so it can pin the final scoreboard — internal machine state the public
result does not carry.  Results are pinned via ``to_json()``, the exact
payload the store persists.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.memory.model import MemoryModel
from repro.workloads import synthetic
from repro.workloads.kernel import KernelSchedule
from repro.workloads.program_model import ProgramModel, ProgramTargets

#: Synthetic kernel factories the fuzzer draws programs from.
KERNELS: Tuple[str, ...] = (
    "daxpy",
    "stream_triad",
    "stencil3",
    "compute_bound",
    "reduction",
    "spill_heavy",
    "gather_scatter",
    "strided",
)

#: Memory latencies exercised — the paper's extremes plus two interior points.
LATENCIES: Tuple[int, ...] = (1, 7, 50, 100)

#: Default master seed (today's date when the suite was written); the CI batch
#: uses it so failures are reproducible across machines.
DEFAULT_SEED = 20260808


def case_seed(master: int, index: int) -> int:
    """The per-case seed derived from a master seed and a case index.

    A multiplicative hash keeps neighbouring indices uncorrelated while
    staying trivially recomputable from the two integers.
    """
    return (master * 1_000_003 + index) & 0xFFFFFFFF


@dataclass(frozen=True)
class FuzzCase:
    """One fully-described oracle test case.

    Every field that shapes timing is explicit, so ``describe()`` is a
    complete record of what diverged.  Reference-family cases ignore the
    queue-depth fields; decoupled-family cases ignore ``chaining``.
    :func:`generate_case` never draws the last two fields, nor kernels
    outside :data:`KERNELS`; the tick oracle's fixed extra cases set them to
    reach machines the random batch cannot (a VSAQ deeper than the VADQ,
    scalar stores that write through).
    """

    seed: int
    family: str
    kernel: str
    elements: int
    max_vector_length: int
    invocations: int
    latency: int
    lanes: int
    ports: int
    chaining: bool = False
    bypass: bool = False
    instruction_queue: int = 16
    vector_load_data: int = 256
    vector_store_data: int = 16
    scalar_store_address: int = 16
    scalar_data: int = 256
    vector_store_address: Optional[int] = None
    scalar_store_writes_through: bool = False

    def describe(self) -> str:
        common = (
            f"seed={self.seed} family={self.family} kernel={self.kernel} "
            f"elements={self.elements} mvl={self.max_vector_length} "
            f"invocations={self.invocations} latency={self.latency} "
            f"lanes={self.lanes} ports={self.ports}"
        )
        if self.family == "ref":
            return f"{common} chaining={'on' if self.chaining else 'off'}"
        text = (
            f"{common} bypass={'on' if self.bypass else 'off'} "
            f"iq={self.instruction_queue} avdq={self.vector_load_data} "
            f"vadq={self.vector_store_data} ssaq={self.scalar_store_address} "
            f"sdq={self.scalar_data}"
        )
        if self.vector_store_address is not None:
            text += f" vsaq={self.vector_store_address}"
        if self.scalar_store_writes_through:
            text += " writes-through"
        return text

    def build_trace(self):
        """The dynamic instruction trace this case simulates."""
        factory = getattr(synthetic, self.kernel)
        kernel = factory(
            self.elements,
            max_vector_length=self.max_vector_length,
            invocations=self.invocations,
        )
        model = ProgramModel(
            name=f"fuzz-{self.seed}",
            description="oracle case",
            schedules=(KernelSchedule(kernel, 1),),
            targets=ProgramTargets(),
            prologue_scalar_instructions=8,
        )
        return model.build_trace(scale=1.0)

    def build_config(self):
        """The family configuration block this case pins."""
        if self.family == "ref":
            from repro.refarch.config import ReferenceConfig

            return ReferenceConfig(
                allow_load_chaining=self.chaining,
                lanes=self.lanes,
                memory_ports=self.ports,
            )
        from repro.dva.config import DecoupledConfig, QueueSizes

        return DecoupledConfig(
            queues=QueueSizes(
                instruction_queue=self.instruction_queue,
                vector_load_data=self.vector_load_data,
                vector_store_data=self.vector_store_data,
                scalar_store_address=self.scalar_store_address,
                scalar_data=self.scalar_data,
                vector_store_address=self.vector_store_address,
            ),
            enable_bypass=self.bypass,
            scalar_store_writes_through=self.scalar_store_writes_through,
            lanes=self.lanes,
            memory_ports=self.ports,
        )

    def simulate(self):
        """Run this case.

        Returns ``(result_json, scoreboard_snapshot, error_message)``; on a
        :class:`SimulationError` the first two are ``None`` and the message
        carries the exact error text.
        """
        trace = self.build_trace()
        if self.family == "ref":
            from repro.refarch.simulator import _SimulationState as state_class
        else:
            from repro.dva.simulator import _DecoupledState as state_class
        state = state_class(MemoryModel(latency=self.latency), self.build_config())
        try:
            state.consume(trace)
            result = state.finish(trace)
        except SimulationError as exc:
            return None, None, str(exc)
        return result.to_json(), _scoreboard_snapshot(state), None


def _scoreboard_snapshot(state) -> List[Tuple[str, int, Optional[int], str]]:
    """The final scoreboard as a sorted, comparable list of tuples."""
    entries = state.core.scoreboard._entries
    return sorted(
        (repr(register), entry.ready, entry.chain_start, repr(entry.owner))
        for register, entry in entries.items()
    )


def tick_digests(case: FuzzCase) -> Tuple[Optional[str], Optional[str], Optional[str]]:
    """SHA-256 digests of one case's outcome, for pinning against a fixture.

    Returns ``(result_digest, scoreboard_digest, error_message)``.  The result
    digest covers ``to_json()`` serialized in its own key order, so a
    reordered or reformatted payload changes it just as a changed number
    would; on a :class:`SimulationError` both digests are ``None`` and the
    exact error text is returned instead.
    """
    result, board, error = case.simulate()
    if error is not None:
        return None, None, error
    return _sha256(result), _sha256(board), None


def _sha256(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generate_case(seed: int) -> FuzzCase:
    """Expand one case seed into a fully-described :class:`FuzzCase`."""
    rng = random.Random(seed)
    family = rng.choice(("ref", "dva"))
    kernel = rng.choice(KERNELS)
    elements = rng.choice((8, 17, 64, 200))
    max_vector_length = rng.choice((16, 64))
    invocations = rng.choice((1, 2, 3))
    latency = rng.choice(LATENCIES)
    lanes = rng.choice((1, 2, 3, 4))
    ports = rng.choice((1, 2, 3))
    if family == "ref":
        return FuzzCase(
            seed=seed,
            family=family,
            kernel=kernel,
            elements=elements,
            max_vector_length=max_vector_length,
            invocations=invocations,
            latency=latency,
            lanes=lanes,
            ports=ports,
            chaining=rng.choice((False, True)),
        )
    return FuzzCase(
        seed=seed,
        family=family,
        kernel=kernel,
        elements=elements,
        max_vector_length=max_vector_length,
        invocations=invocations,
        latency=latency,
        lanes=lanes,
        ports=ports,
        bypass=rng.choice((False, True)),
        instruction_queue=rng.choice((1, 2, 4, 16)),
        vector_load_data=rng.choice((1, 2, 4, 256)),
        vector_store_data=rng.choice((1, 2, 4, 16)),
        scalar_store_address=rng.choice((1, 2, 16)),
        scalar_data=rng.choice((2, 4, 256)),
    )


__all__ = [
    "DEFAULT_SEED",
    "FuzzCase",
    "KERNELS",
    "LATENCIES",
    "case_seed",
    "generate_case",
    "tick_digests",
]
