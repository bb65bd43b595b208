"""The :class:`Trace` container: one program's dynamic stream plus its metadata.

The stream itself lives in a :class:`~repro.trace.columns.ColumnarTrace`;
simulators and statistics read those columns directly.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.trace.columns import ColumnarTrace


class Trace:
    """A full dynamic execution trace of one program, held in :attr:`columns`."""

    __slots__ = ("name", "blocks_executed", "metadata", "columns")

    def __init__(
        self,
        name: str,
        blocks_executed: int = 0,
        metadata: Optional[Dict[str, object]] = None,
        columns: Optional[ColumnarTrace] = None,
    ) -> None:
        self.name = name
        self.blocks_executed = blocks_executed
        self.metadata: Dict[str, object] = metadata if metadata is not None else {}
        self.columns = columns if columns is not None else ColumnarTrace()

    def __len__(self) -> int:
        return len(self.columns)

    def validate(self) -> None:
        """Check internal consistency of the trace.

        Raises :class:`~repro.common.errors.TraceError` when sequence numbers
        are not strictly increasing from zero.
        """
        self.columns.validate(self.name)
