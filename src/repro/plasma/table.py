"""The mutex-guarded object identifier map.

Paper §IV-A2: "This multithreaded look-up introduces the need for
thread-safety mechanisms as both the Plasma store main thread and gRPC
server thread may attempt to access the local object identifier map
concurrently. Mutex functionality was built in to ensure thread-safety."

:class:`ObjectTable` is exactly that map: every mutation and lookup happens
under a real :class:`threading.RLock`, which both the store's client-facing
methods and its RPC service handlers acquire. Threaded integration tests
hammer the same lock from concurrent callers.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.common.errors import (
    ObjectExistsError,
    ObjectInUseError,
    ObjectNotFoundError,
)
from repro.common.ids import ObjectID
from repro.plasma.entry import ObjectEntry, ObjectState


class ObjectTable:
    """id -> :class:`ObjectEntry`, with LRU access sequencing."""

    def __init__(self) -> None:
        self._entries: dict[ObjectID, ObjectEntry] = {}
        self._lock = threading.RLock()
        self._access_seq = 0

    @property
    def lock(self) -> threading.RLock:
        """The table mutex — shared with the store's RPC service."""
        return self._lock

    # -- mutation ------------------------------------------------------------

    def insert(self, entry: ObjectEntry) -> None:
        with self._lock:
            if entry.object_id in self._entries:
                raise ObjectExistsError(f"{entry.object_id!r} already in table")
            self._access_seq += 1
            entry.last_access_seq = self._access_seq
            self._entries[entry.object_id] = entry

    def remove(self, object_id: ObjectID) -> ObjectEntry:
        with self._lock:
            entry = self._entries.get(object_id)
            if entry is None:
                raise ObjectNotFoundError(f"{object_id!r} not in table")
            if entry.total_refs > 0:
                raise ObjectInUseError(
                    f"{object_id!r} has {entry.total_refs} live references"
                )
            del self._entries[object_id]
            return entry

    def seal(self, object_id: ObjectID, sealed_at_ns: int) -> ObjectEntry:
        with self._lock:
            entry = self.get(object_id)
            if entry.is_sealed:
                from repro.common.errors import ObjectSealedError

                raise ObjectSealedError(f"{object_id!r} is already sealed")
            entry.state = ObjectState.SEALED
            entry.sealed_at_ns = sealed_at_ns
            return entry

    def add_ref(self, object_id: ObjectID, remote: bool = False) -> ObjectEntry:
        with self._lock:
            entry = self.get(object_id)
            if remote:
                entry.remote_ref_count += 1
            else:
                entry.ref_count += 1
            self._touch(entry)
            return entry

    def release_ref(self, object_id: ObjectID, remote: bool = False) -> ObjectEntry:
        with self._lock:
            entry = self.get(object_id)
            count = entry.remote_ref_count if remote else entry.ref_count
            if count <= 0:
                raise ObjectInUseError(
                    f"release of {object_id!r} without a matching reference"
                )
            if remote:
                entry.remote_ref_count -= 1
            else:
                entry.ref_count -= 1
            return entry

    def _touch(self, entry: ObjectEntry) -> None:
        self._access_seq += 1
        entry.last_access_seq = self._access_seq

    # -- queries ------------------------------------------------------------------

    def get(self, object_id: ObjectID) -> ObjectEntry:
        with self._lock:
            entry = self._entries.get(object_id)
            if entry is None:
                raise ObjectNotFoundError(f"{object_id!r} not in table")
            return entry

    def lookup(self, object_id: ObjectID) -> ObjectEntry | None:
        with self._lock:
            return self._entries.get(object_id)

    def contains(self, object_id: ObjectID) -> bool:
        with self._lock:
            return object_id in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[ObjectEntry]:
        with self._lock:
            return iter(list(self._entries.values()))

    def ids(self) -> list[ObjectID]:
        with self._lock:
            return list(self._entries)

    def sealed_bytes(self) -> int:
        with self._lock:
            return sum(e.data_size for e in self._entries.values() if e.is_sealed)

    def eviction_candidates(self) -> list[ObjectEntry]:
        """Evictable entries, least recently accessed first."""
        with self._lock:
            cands = [e for e in self._entries.values() if e.evictable]
            cands.sort(key=lambda e: e.last_access_seq)
            return cands
