"""Peer handles and remote-object book-keeping."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.ids import ObjectID
from repro.rpc.channel import ServiceStub
from repro.thymesisflow.aperture import RemoteRegion


@dataclass
class PeerHandle:
    """Everything a store needs to use one peer: the RPC stub for metadata
    and the mapped ThymesisFlow window for payload bytes."""

    name: str
    stub: ServiceStub
    remote_region: RemoteRegion


@dataclass
class RemoteObjectRecord:
    """A remote object this store knows the descriptor of.

    ``local_refs`` counts handles held by *this node's* clients
    (:class:`DescriptorTable` decides what happens when it drops to zero).
    The home never sees it: a held handle fails typed once the home retires
    the extent (header generation).
    """

    object_id: ObjectID
    home: str
    offset: int  # exposed-region offset of the *payload* bytes
    data_size: int
    metadata: bytes = b""
    local_refs: int = 0
    # Integrity fields carried by the descriptor: the home store's
    # generation for this incarnation of the object (0 = unknown: the home
    # runs without headers), the in-region header size (0 = home runs
    # without headers) and the seal-time payload checksum.
    generation: int = 0
    header_size: int = 0
    payload_crc: int = 0

    @classmethod
    def from_descriptor(cls, home: str, descriptor: dict) -> "RemoteObjectRecord":
        return cls(
            object_id=ObjectID(descriptor["object_id"]),
            home=home,
            offset=int(descriptor["offset"]),
            data_size=int(descriptor["data_size"]),
            metadata=bytes(descriptor.get("metadata", b"")),
            generation=int(descriptor.get("generation", 0)),
            header_size=int(descriptor.get("header_size", 0)),
            payload_crc=int(descriptor.get("payload_crc", 0)),
        )


class DescriptorTable:
    """One record per remote object id a node has resolved (paper §V-B).

    A held record (``local_refs > 0``) is used as is. With *retain* (the
    store's ``lookup_cache`` switch) a record outlives its last release,
    LRU-bounded at *max_entries*: the unheld records are the lookup cache,
    and the home header vouches for each one a Get reuses. A record
    invalidated or evicted while held leaves the cache view (``in``,
    ``len``) and goes at its last release.
    """

    def __init__(self, max_entries: int = 100_000, *, retain: bool = True):
        self.retain = retain
        self._max = max_entries
        self._records: OrderedDict[ObjectID, RemoteObjectRecord] = OrderedDict()
        self._doomed: set[ObjectID] = set()  # held, out of the cache view
        self.hits = self.misses = self.invalidations = self.evictions = 0

    def held(self, object_id: ObjectID) -> RemoteObjectRecord | None:
        record = self._records.get(object_id)
        return record if record is not None and record.local_refs else None

    def get(self, object_id: ObjectID) -> RemoteObjectRecord | None:
        """A held record as is, an unheld one as a (most recent) hit."""
        record = self._records.get(object_id)
        if record is None:
            self.misses += 1
        elif not record.local_refs:
            self._records.move_to_end(object_id)
            self.hits += 1
        return record

    def put(self, record: RemoteObjectRecord) -> None:
        """Register a Lookup's descriptor. It replaces any record of its
        id, taking over that record's local references."""
        old = self._records.get(record.object_id)
        if old is not None:
            record.local_refs = old.local_refs
        self._records[record.object_id] = record
        self._records.move_to_end(record.object_id)
        self._doomed.discard(record.object_id)
        while len(self) > self._max:
            self._forget(next(o for o in self._records if o not in self._doomed))
            self.evictions += 1

    def invalidate(self, object_id: ObjectID) -> bool:
        if object_id not in self:
            return False
        self._forget(object_id)
        self.invalidations += 1
        return True

    def settle(self, object_id: ObjectID) -> None:
        """Drop an unheld record unless the cache keeps it."""
        record = self._records.get(object_id)
        if record is not None and not record.local_refs and (
            not self.retain or object_id in self._doomed
        ):
            del self._records[object_id]
            self._doomed.discard(object_id)

    def _forget(self, object_id: ObjectID) -> None:
        if self._records[object_id].local_refs:
            self._doomed.add(object_id)
        else:
            del self._records[object_id]

    def __len__(self) -> int:
        return len(self._records) - len(self._doomed)

    def __contains__(self, object_id: ObjectID) -> bool:
        return object_id in self._records and object_id not in self._doomed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
