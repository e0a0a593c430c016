"""The Plasma client API.

Clients talk to their node-local store over the modelled Unix-domain-socket
IPC; every public method charges that channel, so client-observed latencies
include the IPC costs Figure 6 measures. The API mirrors Arrow Plasma's
(`create`/`seal`/`get`/`release`/`delete`/`contains` plus byte-level
conveniences). A put is create → fill the returned window → seal:
:meth:`PlasmaClient.put_into` hands the producer the extent itself, and
``put_bytes`` is that with a writer that copies a ready buffer in.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import ObjectStoreError
from repro.common.ids import ObjectID
from repro.obs.metrics import CounterGroup
from repro.network.ipc import IpcChannel
from repro.plasma.buffer import PlasmaBuffer
from repro.plasma.store import PlasmaStore


def copy_writer(data) -> tuple[int, Callable[[memoryview], None]]:
    """``(size, write)`` for a put whose payload already exists as a
    buffer: the writer is one slice assignment into the extent."""
    mv = memoryview(data)
    if mv.ndim != 1 or mv.itemsize != 1:
        mv = mv.cast("B")

    def write(view: memoryview) -> None:
        view[:] = mv

    return len(mv), write


class PlasmaClient:
    """A client connected to one (node-local) store."""

    class Counters(CounterGroup):
        creates = seals = gets = releases = deletes = 0

    def __init__(self, name: str, store: PlasmaStore, ipc: IpcChannel):
        self._name = name
        self._store = store
        self._ipc = ipc
        # Buffers this client holds references for, by id; get() may hold
        # several handles to the same object.
        self._held: dict[ObjectID, list[PlasmaBuffer]] = {}
        self.counters = self.Counters()

    @property
    def name(self) -> str:
        return self._name

    @property
    def store(self) -> PlasmaStore:
        return self._store

    # -- producer path ------------------------------------------------------------

    def create(
        self, object_id: ObjectID, data_size: int, metadata: bytes = b""
    ) -> PlasmaBuffer:
        """Allocate an object and return its writable buffer. The client
        holds a reference until :meth:`release` (or :meth:`seal` +
        :meth:`release`)."""
        self._ipc.charge_request(nobjects=1, nbytes=len(metadata))
        entry = self._store.create_object(object_id, data_size, metadata)
        self._store.add_ref(object_id)
        buffer = self._store.local_buffer(entry)
        self._held.setdefault(object_id, []).append(buffer)
        self.counters.creates += 1
        return buffer

    def seal(self, object_id: ObjectID) -> None:
        """Seal the object: immutable from here on, visible to everyone."""
        self._ipc.charge_request(nobjects=1)
        self._store.seal_object(object_id)
        for buffer in self._held.get(object_id, ()):
            buffer._mark_sealed()  # noqa: SLF001 — client owns its handles
        self.counters.seals += 1

    def put_into(
        self, object_id: ObjectID, size: int, write, *, metadata: bytes = b""
    ) -> ObjectID:
        """create + fill in place + seal + release in one call; returns the
        id. ``write(view)`` fills the writable ``size``-byte window of the
        new extent — no source buffer is built or copied."""
        self._fill_and_seal(self.create(object_id, size, metadata), write)
        return object_id

    def _fill_and_seal(self, buffer: PlasmaBuffer, write) -> None:
        """The one local put body: charge the sequential write, let the
        producer fill the extent in place, seal, drop the reference."""
        buffer.charge_sequential_write()
        write(buffer.view())
        self.seal(buffer.object_id)
        self.release(buffer.object_id)

    def put_bytes(self, object_id: ObjectID, data, metadata: bytes = b"") -> ObjectID:
        """:meth:`put_into` whose writer copies *data* in."""
        return self.put_into(object_id, *copy_writer(data), metadata=metadata)

    # -- consumer path ---------------------------------------------------------------

    def get(
        self, object_ids: list[ObjectID], allow_missing: bool = False
    ) -> list[PlasmaBuffer]:
        """Retrieve sealed objects' buffers — the operation Figure 6 times
        "from the time of the request to the reception of the last buffer".

        One batched IPC request covers all ids (handles travel together).
        With ``allow_missing=True`` the call mirrors Plasma's expired-timeout
        behaviour: unknown or unsealed ids yield ``None`` at their position
        instead of raising, and no reference is taken for them.
        """
        if not object_ids:
            return []
        self._ipc.charge_request(nobjects=len(object_ids))
        buffers: list[PlasmaBuffer] = []
        from repro.common.errors import ObjectNotFoundError, ObjectNotSealedError

        for oid in object_ids:
            try:
                entry = self._store.get_sealed_entry(oid)
            except (ObjectNotFoundError, ObjectNotSealedError):
                if allow_missing:
                    buffers.append(None)
                    continue
                raise
            self._store.add_ref(oid)
            buffer = self._store.local_buffer(entry)
            self._held.setdefault(oid, []).append(buffer)
            buffers.append(buffer)
        self.counters.gets += len(object_ids)
        return buffers

    def get_one(self, object_id: ObjectID) -> PlasmaBuffer:
        return self.get([object_id])[0]

    def get_bytes(self, object_id: ObjectID) -> bytes:
        """get + sequential read + release; returns the payload."""
        buffer = self.get_one(object_id)
        try:
            return buffer.read_all()
        finally:
            self.release(object_id)

    def contains(self, object_id: ObjectID) -> bool:
        self._ipc.charge_request(nobjects=1)
        return self._store.contains(object_id)

    # -- reference management -----------------------------------------------------------

    def release(self, object_id: ObjectID) -> None:
        """Drop one of this client's references to *object_id*."""
        held = self._held.get(object_id)
        if not held:
            raise ObjectStoreError(
                f"client {self._name} holds no buffer for {object_id!r}"
            )
        self._ipc.charge_request(nobjects=1)
        buffer = held.pop()
        buffer._mark_released()  # noqa: SLF001
        if not held:
            del self._held[object_id]
        self._release_store_ref(object_id)
        self.counters.releases += 1

    def _release_store_ref(self, object_id: ObjectID) -> None:
        self._store.release_ref(object_id)

    def release_all(self) -> None:
        for oid in list(self._held):
            while oid in self._held:
                self.release(oid)

    def held_ids(self) -> list[ObjectID]:
        return list(self._held)

    # -- deletion --------------------------------------------------------------------------

    def delete(self, object_id: ObjectID) -> None:
        self._ipc.charge_request(nobjects=1)
        self._store.delete_object(object_id)
        self.counters.deletes += 1

    def __repr__(self) -> str:
        return f"PlasmaClient({self._name} -> {self._store.name})"
