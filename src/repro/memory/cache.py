"""Per-node CPU cache model with the paper's Figure 3 coherency semantics.

The paper's key hardware caveat (§III): through OpenCAPI, *reading* remote
disaggregated memory is cache-coherent, but a *write* to remote
disaggregated memory only flushes to the home node's DRAM — the home node's
CPU cache may keep serving a previous value until it is invalidated. This
asymmetry is why the framework's design (like the paper's) exchanges
metadata via RPC instead of writing into remote memory.

This model reproduces exactly that observable behaviour:

* The home node's cache is write-through with respect to its own stores, so
  remote coherent reads can simply read home DRAM (Fig 3a).
* A remote write lands in home DRAM but does **not** invalidate the home
  cache; if the overwritten range was cached, the model snapshots the old
  bytes, and subsequent *local* reads on the home node return the stale
  snapshot until ``invalidate()``/``flush()`` (Fig 3b).

For efficiency, residency is tracked as coarse byte ranges (an
:class:`IntervalSet`) aligned to cache lines, not per-line objects — bulk
benchmark traffic would otherwise drown Python in per-line bookkeeping.
Stale data is only materialised for ranges where staleness can actually be
observed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.config import LocalMemoryConfig
from repro.memory.host import HostMemory
from repro.memory.intervals import IntervalSet


@dataclass(frozen=True)
class CacheAccess:
    """Outcome of a cache-mediated access, consumed by timing models."""

    hit_bytes: int
    miss_bytes: int
    stale_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.hit_bytes + self.miss_bytes

    @property
    def hit_fraction(self) -> float:
        total = self.total_bytes
        return self.hit_bytes / total if total else 0.0


class CacheModel:
    """Cache of one node over its own :class:`HostMemory`.

    The model intentionally tracks *residency* (for timing: cached ranges
    read faster) and *staleness* (for correctness: Fig 3b) and nothing else.
    Replacement is LRU over accessed ranges, bounded by
    ``cache_capacity_bytes``: every read or write touch refreshes its
    range's recency, and capacity pressure evicts the least recently
    touched range first — matching how a real set-associative cache ages
    out streaming traffic while pinning the working set.
    """

    def __init__(self, mem: HostMemory, config: LocalMemoryConfig | None = None):
        self._mem = mem
        self._config = config or LocalMemoryConfig()
        self._line = self._config.cache_line_bytes
        self._capacity = self._config.cache_capacity_bytes
        self._resident = IntervalSet()
        self._resident_bytes = 0
        # Recency-ordered ranges for LRU eviction: (start, stop), least
        # recently accessed first.
        self._lru: OrderedDict[tuple[int, int], None] = OrderedDict()
        # Stale snapshots: absolute start offset -> old bytes.
        self._stale: dict[int, bytes] = {}

    # -- helpers ---------------------------------------------------------------

    def _align(self, offset: int, size: int) -> tuple[int, int]:
        """Round ``[offset, offset+size)`` out to cache-line boundaries,
        clipped to memory bounds."""
        start = (offset // self._line) * self._line
        stop = -(-(offset + size) // self._line) * self._line
        return start, min(stop, self._mem.capacity)

    def _insert(self, start: int, stop: int) -> None:
        added = (stop - start) - self._resident.overlap(start, stop)
        self._resident.add(start, stop)
        self._resident_bytes += added
        key = (start, stop)
        if key in self._lru:
            self._lru.move_to_end(key)
        else:
            self._lru[key] = None
        self._evict_to_capacity()

    def _evict_to_capacity(self) -> None:
        while self._resident_bytes > self._capacity and self._lru:
            (start, stop), _ = self._lru.popitem(last=False)
            removed = self._resident.overlap(start, stop)
            if removed:
                self._resident.remove(start, stop)
                self._resident_bytes -= removed
                self._drop_stale(start, stop)

    def _drop_stale(self, start: int, stop: int) -> None:
        doomed = [
            s for s, data in self._stale.items() if s < stop and s + len(data) > start
        ]
        for s in doomed:
            del self._stale[s]

    # -- node-local operations ---------------------------------------------------

    def local_read(self, offset: int, size: int) -> CacheAccess:
        """A read issued by this node's own CPU: hit/miss/stale accounting
        and the residency update. The bytes that read observes come from
        :meth:`observed_view`, taken *before* this call — the insert below
        can evict, and eviction drops stale snapshots."""
        if size <= 0:
            raise ValueError("read size must be positive")
        start, stop = self._align(offset, size)
        hit = self._resident.overlap(start, stop)
        miss = (stop - start) - hit
        stale = self._count_stale(offset, size)
        self._insert(start, stop)
        return CacheAccess(hit_bytes=hit, miss_bytes=miss, stale_bytes=stale)

    def observed_view(self, offset: int, size: int) -> memoryview:
        """The bytes this node's CPU observes at ``[offset, offset+size)``,
        read-only and without touching cache state: a zero-copy window of
        DRAM, materialised only when a stale cached snapshot (Fig 3b)
        overlaps the range and has to be overlaid."""
        dram = self._mem.readonly_view(offset, size)
        if not self._count_stale(offset, size):
            return dram
        buf = bytearray(dram)
        for s, data in self._stale.items():
            lo = max(s, offset)
            hi = min(s + len(data), offset + size)
            if lo < hi:
                buf[lo - offset : hi - offset] = data[lo - s : hi - s]
        return memoryview(buf).toreadonly()

    def local_write(self, offset: int, data) -> CacheAccess:
        """A store by this node's own CPU: write-through to DRAM, cache
        updated, any stale snapshot for the range superseded."""
        mv = memoryview(data)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        size = len(mv)
        if size == 0:
            raise ValueError("write size must be positive")
        self._mem.write(offset, mv)
        return self.note_local_write(offset, size)

    def note_local_write(self, offset: int, size: int) -> CacheAccess:
        """Account a local write without moving bytes: cache state is
        updated exactly as :meth:`local_write` would, DRAM contents are left
        untouched, and the hit/miss split is returned."""
        start, stop = self._align(offset, size)
        hit = self._resident.overlap(start, stop)
        self.touch_write(offset, size)
        return CacheAccess(hit_bytes=hit, miss_bytes=(stop - start) - hit)

    def touch_write(self, offset: int, size: int) -> None:
        """:meth:`note_local_write` without the record: the charge-only
        write path, whose timing reads no hit counts."""
        if size <= 0:
            raise ValueError("write size must be positive")
        start, stop = self._align(offset, size)
        self._drop_stale(start, stop)
        self._insert(start, stop)

    # -- fabric-side operations ----------------------------------------------------

    def remote_coherent_read(self, offset: int, size: int) -> memoryview:
        """A read arriving over the fabric (Fig 3a): OpenCAPI snoops, so the
        remote reader always observes current DRAM contents."""
        return self._mem.readonly_view(offset, size)

    def remote_write_received(self, offset: int, size: int) -> int:
        """A write of ``size`` bytes at ``offset`` is arriving over the
        fabric (Fig 3b): it lands in DRAM, but the home cache is *not*
        invalidated. If the range is resident, the old bytes are
        snapshotted here — before the writer fills DRAM — so the home CPU
        keeps observing them.

        Returns the number of bytes that became stale in the home cache.
        """
        if size <= 0:
            raise ValueError("write size must be positive")
        stale = 0
        for iv in self._resident.intersecting(*self._align(offset, size)):
            lo = max(iv.start, offset)
            hi = min(iv.stop, offset + size)
            if lo < hi:
                self._stale[lo] = self._mem.read(lo, hi - lo)
                stale += hi - lo
        return stale

    # -- maintenance -----------------------------------------------------------------

    def invalidate(self, offset: int, size: int) -> None:
        """Drop cached (and stale) state for a range — what a custom kernel
        module would do to make remote writes visible (paper §III)."""
        start, stop = self._align(offset, size)
        removed = self._resident.overlap(start, stop)
        if removed:
            self._resident.remove(start, stop)
            self._resident_bytes -= removed
        self._drop_stale(start, stop)

    def flush(self) -> None:
        """Drop the whole cache."""
        self._resident.clear()
        self._resident_bytes = 0
        self._lru.clear()
        self._stale.clear()

    # -- introspection -----------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def stale_ranges(self) -> int:
        return len(self._stale)

    def is_resident(self, offset: int, size: int) -> bool:
        start, stop = self._align(offset, size)
        return self._resident.covers(start, stop)

    # -- internals ---------------------------------------------------------------------

    def _count_stale(self, offset: int, size: int) -> int:
        stale = 0
        for s, data in self._stale.items():
            lo = max(s, offset)
            hi = min(s + len(data), offset + size)
            if lo < hi:
                stale += hi - lo
        return stale
