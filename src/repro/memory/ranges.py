"""Memory ranges and the disambiguation rule of the address processor.

The paper (§4.2) defines the memory range accessed by a vector reference with
base address ``BA``, vector length ``VL``, stride ``VS`` (in bytes) and access
granularity ``S`` as all locations between ``BA`` and ``BA + (VL-1)*VS + S``
(with the two terms inverted for negative strides).  Two references conflict
when their ranges overlap in at least one byte.  Gathers and scatters cannot
be characterised by a range, so they are treated as covering all of memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import SimulationError
from repro.isa.registers import ELEMENT_SIZE_BYTES
from repro.trace.record import DynamicInstruction


@dataclass(frozen=True)
class MemoryRange:
    """A half-open byte range ``[start, end)``; ``full`` covers all memory."""

    start: int = 0
    end: int = 0
    full: bool = False

    def __post_init__(self) -> None:
        if not self.full and self.end < self.start:
            raise SimulationError(
                f"memory range end ({self.end}) precedes start ({self.start})"
            )

    @property
    def size(self) -> int:
        """Number of bytes covered (meaningless for the full range)."""
        if self.full:
            raise SimulationError("the full-memory range has no finite size")
        return self.end - self.start

    def overlaps(self, other: "MemoryRange") -> bool:
        """True when the two ranges share at least one byte."""
        if self.full or other.full:
            # A range that covers all of memory conflicts with everything,
            # including an empty range: the conservative assumption the paper
            # makes for scatters and gathers.
            return True
        return self.start < other.end and other.start < self.end

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside the range."""
        if self.full:
            return True
        return self.start <= address < self.end

    def __str__(self) -> str:
        if self.full:
            return "[all memory]"
        return f"[0x{self.start:x}, 0x{self.end:x})"


#: Sentinel range used for gathers and scatters.
FULL_RANGE = MemoryRange(full=True)


#: Byte bounds of an access that covers all of memory (gathers and scatters):
#: they overlap every other pair of bounds, the empty ones included.
ALL_MEMORY_BOUNDS: Tuple[float, float] = (-math.inf, math.inf)


def access_bounds(
    base: int,
    vector_length: int,
    stride_elements: int,
    *,
    is_scalar: bool = False,
    indexed: bool = False,
) -> Tuple[float, float]:
    """The half-open byte bounds ``(start, end)`` of one access.

    This is the hot-loop form of :func:`access_range`: plain numbers, so the
    address processor can disambiguate every reference without building a
    :class:`MemoryRange`.  Two accesses conflict exactly when
    ``a_start < b_end and b_start < a_end``; indexed references return
    :data:`ALL_MEMORY_BOUNDS`, which satisfies that test against anything.
    """
    if indexed:
        return ALL_MEMORY_BOUNDS
    if is_scalar:
        return base, base + ELEMENT_SIZE_BYTES
    if vector_length == 0:
        # A zero-length vector reference touches no memory at all.
        return base, base
    span = (vector_length - 1) * stride_elements * ELEMENT_SIZE_BYTES
    if span >= 0:
        return base, base + span + ELEMENT_SIZE_BYTES
    return base + span, base + ELEMENT_SIZE_BYTES


def access_range(
    base: int,
    vector_length: int,
    stride_elements: int,
    *,
    is_scalar: bool = False,
    indexed: bool = False,
) -> MemoryRange:
    """The memory range of one access, from its scalar description.

    Scalar references cover one element; strided vector references follow
    the paper's formula; indexed references (gathers/scatters) return
    :data:`FULL_RANGE`.
    """
    if indexed:
        return FULL_RANGE
    start, end = access_bounds(base, vector_length, stride_elements, is_scalar=is_scalar)
    return MemoryRange(start, end)


def range_of_access(record: DynamicInstruction) -> MemoryRange:
    """The memory range accessed by one traced memory instruction."""
    if not record.is_memory:
        raise SimulationError(f"{record} is not a memory access")
    if record.is_indexed_memory:
        return FULL_RANGE
    base = record.base_address
    if base is None:
        raise SimulationError(f"{record} carries no base address")
    return access_range(
        base,
        record.vector_length,
        record.stride_elements,
        is_scalar=record.is_scalar_memory,
        indexed=False,
    )


def ranges_conflict(first: MemoryRange, second: MemoryRange) -> bool:
    """True when two ranges overlap in at least one byte (paper's hazard rule)."""
    return first.overlaps(second)


def accesses_identical(load: DynamicInstruction, store: DynamicInstruction) -> bool:
    """True when a load would read exactly what a queued store will write.

    This is the condition under which the bypass of Section 7 may forward the
    store data straight into the load queue: same base address, same stride,
    same vector length, and neither access is indexed.
    """
    if not (load.is_load and store.is_store):
        return False
    if load.is_indexed_memory or store.is_indexed_memory:
        return False
    if load.is_scalar_memory != store.is_scalar_memory:
        return False
    return (
        load.base_address == store.base_address
        and load.stride_elements == store.stride_elements
        and load.effective_length == store.effective_length
    )
