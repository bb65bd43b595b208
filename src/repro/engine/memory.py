"""The engine-level memory interface.

What a simulated machine's issue rules need from the memory system is wired
once in :class:`MemoryFabric`: the (possibly multi-unit) memory-port pool,
the scalar cache that filters scalar references away from the port, the
write-through policy for scalar stores and traffic accounting.  Both tick
loops read the port pool's ``free`` list and the cache's ``access`` into
locals and write the issue arithmetic themselves.
"""

from __future__ import annotations

from typing import Optional

from repro.common.intervals import IntervalRecorder
from repro.engine.resources import ResourcePool
from repro.memory.scalar_cache import ScalarCache, ScalarCacheConfig


class MemoryFabric:
    """Port pool, scalar cache and traffic accounting for one machine.

    ``ports`` widens the memory port: every bus occupation picks the
    least-loaded port unit (the first unit wins ties), so a dual-port
    machine is a constructor argument rather than a simulator fork.  With
    one port the timing degenerates to the seed's single ``port_free``
    integer exactly.  Loads use the port only on a cache miss; stores also
    on a hit when ``scalar_store_writes_through`` is set.
    """

    def __init__(
        self,
        cache_config: Optional[ScalarCacheConfig] = None,
        ports: int = 1,
        scalar_store_writes_through: bool = False,
    ) -> None:
        self.cache = ScalarCache(cache_config)
        self.ports = ResourcePool("LD", ports)
        self.scalar_store_writes_through = scalar_store_writes_through
        self.traffic_bytes = 0

    def port_quiet(self) -> int:
        """Cycle at which every port unit has finished (wind-down accounting)."""
        return self.ports.latest_free()

    def port_recorder(self) -> IntervalRecorder:
        """Busy intervals of the port ("any unit busy" when multi-port)."""
        return self.ports.combined_recorder()
