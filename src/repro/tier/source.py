"""The cache-aware remote buffer source.

Wraps a :class:`~repro.plasma.buffer.RemoteBufferSource`: a read first
probes the node's :class:`~repro.tier.cache.HotObjectCache` by
``(object id, generation)``. A hit serves the cached payload in place —
charged through the agent's local-copy cost model, attributed to the
``cache`` span component, and counted on the fabric link as avoided read
bytes. A miss delegates to the wrapped source's *validated* fabric read
and, when that read covered the whole payload, offers the view it returned
to the cache keyed by the generation the validation just proved, together
with the home extent the view aliases. Admission copies nothing: cached
entries are views copied out before the home changes them (see
:mod:`repro.tier.cache`). Home, generation and link are all read off the
wrapped source, so after a stale-descriptor refresh that followed a
migration they name the new home, never the captured record's.

Filling only after a validated read is the coherence linchpin: the header
check before the stream and the generation re-check after it guarantee the
cached bytes are exactly the payload of that (id, generation) incarnation,
and generations never repeat — so a cache entry can only ever be *stale*,
never *wrong*, and staleness is handled by the invalidation channels plus
generation keying at lookup time.

It is the one read path for cached remote bytes: a handle probes the cache
on every read, so a held handle either hits its own incarnation's entry
(which copy-out keeps equal to the sealed payload) or does the validated
fabric read, which fails typed once the home has retired the extent.
"""

from __future__ import annotations

from repro.plasma.buffer import RemoteBufferSource, RemoteReadIntegrity


class TierBufferSource:
    """A RemoteBufferSource with a hot-object byte cache in front."""

    def __init__(self, inner: RemoteBufferSource, record, agent, store):
        self._inner = inner
        self._record = record
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
        0 means "unknown incarnation" (a home that writes no headers), and
        a hit on it could never be proven coherent. Straight to the fabric."""
        cache = self._agent.cache
        return cache if cache is not None and self._generation() else None

    def _hit(self, cache, size: int):
        """The cached payload of the live incarnation, or None on a miss.
        A hit is charged the agent's local-copy cost under the ``cache``
        span component and credits the fabric stream it replaced (payload
        plus validation header) to the home link."""
        payload = cache.lookup(self._record.object_id, self._generation())
        if payload is None:
            return None
        store = self._store
        cost_ns = self._agent.hit_cost.cost_ns(size)
        if store.spans is not None:
            with store.spans.span("cache", "hit", store.node, {"nbytes": size}):
                store.clock.advance(cost_ns)
        else:
            store.clock.advance(cost_ns)
        self._inner.remote.aperture.link.note_read_avoided(
            size + self._header_size()
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
                    home=self._inner.remote.home_name,
                    extent=self._inner.home_extent(offset, size),
                )
        return view
