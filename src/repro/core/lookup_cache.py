"""Remote-lookup cache (paper future work, implemented).

§V-B: "a caching mechanism for previously requested remote objects could be
implemented. This would increase the performance of repeated requests for
identifiers ... This caching would require caution with tracking object
usage by remote clients for the eviction policy and could result in
corrupted object buffers if not handled carefully."

The cache maps object id -> (home store, descriptor) so a repeated request
skips the gRPC round trip entirely. The "careful handling": home stores
push ``NotifyDeleted`` RPCs on delete/evict, which
:meth:`LookupCache.invalidate` consumes. A hit revalidates nothing: when
that push is lost, the reader's in-region header check catches the stale
descriptor instead (the benchmark ``test_lookup_cache`` shows both the win
and the hazard).

With elastic placement (repro.placement) two more invalidation channels
exist. Every entry is stamped with the topology *epoch* it was learned
under; :meth:`set_epoch` (called when a new TopologyView installs) makes
older entries lazy misses — a descriptor learned before a join/drain/crash
may point at a migrated-away copy, so it is re-looked-up rather than
trusted. And :meth:`invalidate_node` purges every entry homed on a
departed peer in one O(entries) pass.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.ids import ObjectID
from repro.core.remote import RemoteObjectRecord


class LookupCache:
    """Bounded LRU of remote-object descriptors, epoch-stamped."""

    def __init__(self, max_entries: int = 100_000):
        if max_entries <= 0:
            raise ValueError("cache must hold at least one entry")
        self._max = max_entries
        self._entries: OrderedDict[ObjectID, tuple[RemoteObjectRecord, int]] = (
            OrderedDict()
        )
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def epoch(self) -> int:
        return self._epoch

    def set_epoch(self, epoch: int) -> None:
        """A new topology view installed: entries stamped with an older
        epoch become (lazy) misses. O(1) — stale entries are discarded as
        they are touched, not eagerly scanned."""
        if epoch > self._epoch:
            self._epoch = epoch

    def get(self, object_id: ObjectID) -> RemoteObjectRecord | None:
        item = self._entries.get(object_id)
        if item is None:
            self.misses += 1
            return None
        record, stamped = item
        if stamped < self._epoch:
            # Learned under an older topology; the object may have migrated.
            del self._entries[object_id]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(object_id)
        self.hits += 1
        return record

    def put(self, record: RemoteObjectRecord) -> None:
        self._entries[record.object_id] = (record, self._epoch)
        self._entries.move_to_end(record.object_id)
        while len(self._entries) > self._max:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, object_id: ObjectID) -> bool:
        if object_id in self._entries:
            del self._entries[object_id]
            self.invalidations += 1
            return True
        return False

    def invalidate_node(self, name: str) -> int:
        """Purge every cached descriptor homed on *name* (the peer left the
        cluster or crashed); returns how many entries went."""
        victims = [
            oid
            for oid, (record, _) in self._entries.items()
            if record.home == name
        ]
        for oid in victims:
            del self._entries[oid]
        self.invalidations += len(victims)
        return len(victims)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, object_id: ObjectID) -> bool:
        return object_id in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
