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
