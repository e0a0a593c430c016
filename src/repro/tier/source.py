"""The cache-aware remote buffer source.

Wraps a :class:`~repro.plasma.buffer.RemoteBufferSource`: a read first
probes the node's :class:`~repro.tier.cache.HotObjectCache` by
``(object id, generation)``. A hit serves the cached bytes in place from
local DRAM — charged through the agent's local-copy cost model, attributed
to the ``cache`` span component, and counted on the fabric link as avoided
read bytes. A miss delegates to the wrapped source's *validated* fabric read
and, when that read covered the whole payload, offers the view it returned
to the cache keyed by the generation the validation just proved; the cache
copies it only if it admits it.

Filling only after a validated read is the coherence linchpin: the header
check before the stream and the generation re-check after it guarantee the
cached bytes are exactly the payload of that (id, generation) incarnation,
and generations never repeat — so a cache entry can only ever be *stale*,
never *wrong*, and staleness is handled by the invalidation channels plus
generation keying at lookup time.
"""

from __future__ import annotations

from repro.common.errors import ObjectStoreError
from repro.plasma.buffer import RemoteBufferSource, RemoteReadIntegrity


def _charge_hit(store, agent, link, size: int, header_size: int) -> None:
    """Charge one cache-served read of *size* bytes: the agent's local-copy
    cost under the ``cache`` span component, and the fabric stream it
    replaced (payload plus validation header) credited to *link*."""
    cost_ns = agent.hit_cost.cost_ns(size)
    spans = store.spans
    if spans is not None:
        with spans.span("cache", "hit", store.node, {"nbytes": size}):
            store.clock.advance(cost_ns)
    else:
        store.clock.advance(cost_ns)
    if link is not None:
        link.note_read_avoided(size + header_size)


class CachedBufferSource:
    """A buffer source over a cache-resident payload copy.

    Backs the *pre-resolution* fast path: the store answered a get straight
    from the hot-object cache, so there is no remote record, no home-side
    pin, and no fabric mapping behind this source — just the bytes. Reads
    are charged through the agent's local-copy cost model under the
    ``cache`` span component and credited to the home link as avoided
    fabric traffic; the payload is immutable (sealed), so writes are a
    programming error.
    """

    def __init__(self, payload: bytes, home: str, agent, store, link):
        self._payload = payload
        self._home = home
        self._agent = agent
        self._store = store
        self._link = link  # None when the home peer is no longer mapped

    @property
    def location(self) -> str:
        return f"{self._home} (cached at {self._agent.node})"

    @property
    def is_remote(self) -> bool:
        # The object lives remotely; only this copy of its bytes is local.
        # True keeps client-side correlation stamping identical to the
        # resolving path, so deferred reads attribute to their Get.
        return True

    @property
    def integrity(self) -> RemoteReadIntegrity | None:
        return None  # the payload was validated when it was cached

    def view(self, offset: int, size: int):
        return memoryview(self._payload)[offset : offset + size]

    def charge_read(self, offset: int, size: int) -> float:
        _charge_hit(
            self._store, self._agent, self._link, size, self._store.header_size
        )
        return 0.0

    def timed_view(self, offset: int, size: int) -> memoryview:
        self.charge_read(offset, size)
        return self.view(offset, size)

    def timed_write(self, offset: int, data) -> float:
        raise ObjectStoreError("cache-served buffers are read-only")

    def charge_write(self, offset: int, size: int) -> float:
        raise ObjectStoreError("cache-served buffers are read-only")


class TierBufferSource:
    """A RemoteBufferSource with a hot-object byte cache in front."""

    def __init__(self, inner: RemoteBufferSource, record, remote_region, agent, store):
        self._inner = inner
        self._record = record
        self._region = remote_region
        self._agent = agent
        self._store = store

    # -- delegation ---------------------------------------------------------------

    @property
    def location(self) -> str:
        return self._inner.location

    @property
    def is_remote(self) -> bool:
        return True

    @property
    def integrity(self) -> RemoteReadIntegrity | None:
        return self._inner.integrity

    def view(self, offset: int, size: int):
        return self._inner.view(offset, size)

    def timed_write(self, offset: int, data) -> float:
        return self._inner.timed_write(offset, data)

    def charge_write(self, offset: int, size: int) -> float:
        return self._inner.charge_write(offset, size)

    # -- the cached read path -----------------------------------------------------

    def _generation(self) -> int:
        # The integrity context is live — a stale-descriptor refresh swaps
        # it for the fresh incarnation's — so it, not the captured record,
        # is the authority on which generation the bytes belong to.
        ig = self._inner.integrity
        return ig.generation if ig is not None else self._record.generation

    def _header_size(self) -> int:
        ig = self._inner.integrity
        return ig.header_size if ig is not None else 0

    def _read_cache(self):
        """The hot cache, or None when this read is uncacheable: generation
        0 means "unknown incarnation" (hashmap directory descriptors), and
        a hit on it could never be proven coherent. Straight to the fabric."""
        cache = self._agent.cache
        return cache if cache is not None and self._generation() else None

    def _hit(self, cache, size: int) -> bytes | None:
        """The cached payload of the live incarnation with the serve
        charged, or None on a miss."""
        payload = cache.lookup(self._record.object_id, self._generation())
        if payload is not None:
            _charge_hit(
                self._store,
                self._agent,
                self._region.aperture.link,
                size,
                self._header_size(),
            )
        return payload

    def charge_read(self, offset: int, size: int) -> float:
        cache = self._read_cache()
        if cache is not None and self._hit(cache, size) is not None:
            return 0.0
        return self._inner.charge_read(offset, size)

    def timed_view(self, offset: int, size: int) -> memoryview:
        cache = self._read_cache()
        if cache is None:
            return self._inner.timed_view(offset, size)
        payload = self._hit(cache, size)
        if payload is not None:
            return memoryview(payload)[offset : offset + size]
        view = self._inner.timed_view(offset, size)
        if offset == 0 and size == self._record.data_size:
            generation = self._generation()  # may have refreshed mid-read
            if generation:
                cache.offer(
                    self._record.object_id,
                    generation,
                    view,
                    home=self._record.home,
                )
        return view
