"""The cache-aware remote buffer source.

Wraps a :class:`~repro.plasma.buffer.RemoteBufferSource`: a read first
probes the node's :class:`~repro.tier.cache.HotObjectCache` by
``(object id, generation)``. A cached entry is served only after the home
header has vouched for that incarnation — one header-sized fabric read
(:meth:`~repro.plasma.buffer.RemoteBufferSource.check_header`) and, if
the read verifies checksums, the payload CRC; the hit is then charged
through the agent's local-copy cost model under the ``cache`` span
component and counted on the fabric link as avoided payload bytes. An
entry either check no longer backs is dropped and the read misses; a
fabric failure raises exactly as the uncached read would. A miss
delegates to the wrapped source's *validated* fabric read and, when that
read covered the whole payload, offers the view it returned to the cache
keyed by the generation the validation just proved. Admission copies
nothing. Home, generation and link are all read off the wrapped source, so
after a stale-descriptor refresh that followed a migration they name the
new home, never the captured record's.

Entries are live views of the home extent; the checks make serving them
sound. Every event that retires an incarnation rewrites the header before
the bytes change, and generations never repeat — so a held or fresh handle
reads the same bytes hit or miss, and a missed invalidation push costs a
miss, never a stale hit.
"""

from __future__ import annotations

from repro.common.errors import IntegrityError
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

    def check_header(self) -> None:
        self._inner.check_header()

    # -- the cached read path -----------------------------------------------------

    def _generation(self) -> int:
        # The live integrity context (a refresh swaps it) names the bytes.
        return self._inner.integrity.generation

    def _read_cache(self):
        """The hot cache, or None: without an integrity context no header
        can vouch for a hit."""
        return None if self._inner.integrity is None else self._agent.cache

    def _hit(self, cache, size: int, from_start: bool):
        """The cached payload of the live incarnation, or None on a miss.
        The home header vouches first, and a whole-payload read
        *from_start* re-runs the checksum the validated read would; an
        entry failing either is dropped, so the read it falls to fails as
        an untiered one. A hit is charged the local-copy cost under the
        ``cache`` span component and credits the stream it replaced."""
        object_id = self._record.object_id
        generation = self._generation()
        payload = cache.peek(object_id, generation)
        if payload is not None:
            try:
                self._inner.check_header()
                ig = self._inner.integrity
                if from_start and ig.verify_checksum and size == len(payload):
                    self._inner.check_payload(payload, ig.payload_crc)
            except IntegrityError:
                cache.invalidate(object_id)
        payload = cache.lookup(object_id, generation)
        if payload is None:
            return None
        store = self._store
        cost_ns = self._agent.hit_cost.cost_ns(size)
        if store.spans is not None:
            with store.spans.span("cache", "hit", store.node, {"nbytes": size}):
                store.clock.advance(cost_ns)
        else:
            store.clock.advance(cost_ns)
        self._inner.remote.aperture.link.note_read_avoided(size)
        return payload

    def charge_read(self, offset: int, size: int) -> float:
        cache = self._read_cache()
        if cache is not None and self._hit(cache, size, False) is not None:
            return 0.0
        return self._inner.charge_read(offset, size)

    def timed_view(self, offset: int, size: int) -> memoryview:
        cache = self._read_cache()
        if cache is None:
            return self._inner.timed_view(offset, size)
        payload = self._hit(cache, size, offset == 0)
        if payload is not None:
            return memoryview(payload)[offset : offset + size]
        view = self._inner.timed_view(offset, size)
        if offset == 0 and size == self._record.data_size:
            cache.offer(
                self._record.object_id,
                self._generation(),  # may have refreshed mid-read
                view,
                home=self._inner.remote.home_name,
            )
        return view
