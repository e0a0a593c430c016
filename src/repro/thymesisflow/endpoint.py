"""One node's attachment to the ThymesisFlow fabric.

An endpoint owns the node's physical memory and cache, carves out the
*exposed* (disaggregated) window that remote nodes may map (paper §III: "a
portion of local system memory is marked as disaggregated and made
available to remote compute nodes"), and provides *timed* local access for
the node's own CPU.

Timing model for local access: a streaming read of ``n`` bytes costs
``access_latency + n / read_bandwidth``, sped up by the fraction of the
range that is cache-resident, with multiplicative jitter. Writes are
analogous (write-through, no cache speedup).
"""

from __future__ import annotations

from repro.common.clock import NS_PER_S, SimClock
from repro.common.config import LocalMemoryConfig
from repro.common.errors import FabricError
from repro.common.rng import DeterministicRng
from repro.obs.metrics import CounterGroup
from repro.memory.cache import CacheModel
from repro.memory.host import HostMemory, MemoryRegion


class ThymesisEndpoint:
    """A node (name + memory + cache) attached to the fabric."""

    class Counters(CounterGroup):
        local_reads = local_read_bytes = local_writes = local_write_bytes = 0
        served_remote_read_bytes = served_remote_write_bytes = 0
        stale_bytes_observed = stale_bytes_created = 0

    def __init__(
        self,
        name: str,
        memory: HostMemory,
        clock: SimClock,
        config: LocalMemoryConfig,
        rng: DeterministicRng,
    ):
        self._name = name
        self._memory = memory
        self._cache = CacheModel(memory, config)
        self._clock = clock
        self._config = config
        self._rng = rng.spawn("endpoint", name)
        self._exposed: MemoryRegion | None = None
        self._read_ns_per_byte = NS_PER_S / config.read_bandwidth_bps
        self._write_ns_per_byte = NS_PER_S / config.write_bandwidth_bps
        self.counters = self.Counters()

    # -- identity / structure ---------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def memory(self) -> HostMemory:
        return self._memory

    @property
    def cache(self) -> CacheModel:
        return self._cache

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def config(self) -> LocalMemoryConfig:
        return self._config

    def expose(self, base: int, size: int) -> MemoryRegion:
        """Mark ``[base, base+size)`` of local memory as disaggregated.

        Only one exposed window per endpoint (matches the prototype's single
        ThymesisFlow region per node).
        """
        if self._exposed is not None:
            raise FabricError(f"endpoint {self._name} already exposes a region")
        self._exposed = self._memory.region(base, size)
        return self._exposed

    @property
    def exposed(self) -> MemoryRegion:
        if self._exposed is None:
            raise FabricError(f"endpoint {self._name} exposes no region")
        return self._exposed

    @property
    def has_exposed(self) -> bool:
        return self._exposed is not None

    # -- timed local access -------------------------------------------------------

    def _local_read_cost(self, size: int, hit_fraction: float) -> float:
        speedup = 1.0 + (self._config.cached_read_speedup - 1.0) * hit_fraction
        base = self._config.access_latency_ns + size * self._read_ns_per_byte / speedup
        return base * self._rng.lognormal_jitter(self._config.jitter_sigma)

    def local_read(self, offset: int, size: int) -> float:
        """The node's CPU reads ``[offset, offset+size)``; returns charged ns.

        Updates timing, counters and cache state only; :meth:`local_read_view`
        is the same read with the observed bytes attached.
        """
        access = self._cache.local_read(offset, size)
        cost = self._local_read_cost(size, access.hit_fraction)
        self._clock.advance(cost)
        self.counters.local_read_bytes += size
        self.counters.local_reads += 1
        if access.stale_bytes:
            self.counters.stale_bytes_observed += access.stale_bytes
        return cost

    def local_read_view(self, offset: int, size: int) -> memoryview:
        """A timed :meth:`local_read` returning the bytes it observes as a
        read-only view (stale-aware, Fig 3b; zero-copy unless a stale
        snapshot overlaps the range)."""
        view = self._cache.observed_view(offset, size)
        self.local_read(offset, size)
        return view

    def local_write(self, offset: int, data) -> float:
        """The node's CPU writes *data* at *offset*; returns charged ns."""
        mv = memoryview(data)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        self._cache.local_write(offset, mv)
        base = self._config.access_latency_ns + len(mv) * self._write_ns_per_byte
        cost = base * self._rng.lognormal_jitter(self._config.jitter_sigma)
        self._clock.advance(cost)
        self.counters.local_write_bytes += len(mv)
        self.counters.local_writes += 1
        return cost

    def charge_local_write(self, offset: int, size: int) -> float:
        """Account a write's time and cache effects without copying bytes
        (benchmark charge-only mode; content-carrying paths use
        :meth:`local_write`)."""
        self._cache.touch_write(offset, size)
        base = self._config.access_latency_ns + size * self._write_ns_per_byte
        cost = base * self._rng.lognormal_jitter(self._config.jitter_sigma)
        self._clock.advance(cost)
        self.counters.local_write_bytes += size
        self.counters.local_writes += 1
        return cost

    def local_view(self, offset: int, size: int) -> memoryview:
        """Untimed zero-copy window (for wiring, not for measured paths)."""
        return self._memory.view(offset, size)

    # -- fabric-side service (called by remote apertures) ---------------------------

    def serve_remote_read(self, offset: int, size: int) -> memoryview:
        """A remote node reads our exposed region: coherent (Fig 3a)."""
        region = self.exposed
        abs_off = region.absolute(offset)
        self.counters.served_remote_read_bytes += size
        return self._cache.remote_coherent_read(abs_off, size)

    def serve_remote_write(self, offset: int, size: int) -> tuple[memoryview, int]:
        """A remote node writes ``size`` bytes of our exposed region at
        ``offset``: returns the writable DRAM window the writer fills, and
        the stale byte count — the bytes land in DRAM but our cache is NOT
        invalidated (Fig 3b), so what it held is snapshotted first."""
        region = self.exposed
        abs_off = region.absolute(offset)
        # Bounds: the write must stay inside the exposed window.
        region._translate(offset, size)  # noqa: SLF001 — shared bounds check
        stale = self._cache.remote_write_received(abs_off, size)
        self.counters.served_remote_write_bytes += size
        if stale:
            self.counters.stale_bytes_created += stale
        return self._memory.view(abs_off, size), stale

    def invalidate_exposed(self, offset: int, size: int) -> None:
        """What the paper's hypothetical kernel module would do: drop cached
        lines over part of the exposed region so remote writes become
        visible locally."""
        region = self.exposed
        abs_off = region.absolute(offset)
        region._translate(offset, size)  # noqa: SLF001 — bounds check
        self._cache.invalidate(abs_off, size)

    def __repr__(self) -> str:
        return f"ThymesisEndpoint({self._name}, {self._memory.capacity} B)"
