"""Object buffers: the handles clients read and write.

A buffer wraps a *source* — either the node's own memory (timed through the
endpoint's cache-aware cost model) or a remote disaggregated window (timed
through the ThymesisFlow link). The distinction is invisible to
applications, which is the framework's point: "the distributed nature can
largely remain hidden to Plasma clients" (paper §IV-A2).

Reading a sealed buffer end-to-end (:meth:`PlasmaBuffer.read_view`, and
:meth:`read_all`/:meth:`read_into` on top of it) is exactly the operation
Figure 7 measures.

Every source answers the same three read calls: ``view`` (untimed window),
``timed_view`` (the timed, validated read — returns a read-only window over
the bytes the reader observes, copying nothing) and ``charge_read`` (timing
only: no bytes materialise, so there is nothing to validate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.checksum import crc32c
from repro.common.errors import (
    ObjectCorruptedError,
    ObjectSealedError,
    ObjectStoreError,
    StaleDescriptorError,
)
from repro.common.ids import ObjectID
from repro.memory.layout import FLAG_QUARANTINED, FLAG_SEALED, unpack_header
from repro.thymesisflow.aperture import RemoteRegion
from repro.thymesisflow.endpoint import ThymesisEndpoint


class LocalBufferSource:
    """Buffer bytes living in this node's own memory."""

    def __init__(self, endpoint: ThymesisEndpoint, abs_offset: int):
        self._ep = endpoint
        self._abs = abs_offset

    @property
    def location(self) -> str:
        return f"local:{self._ep.name}"

    @property
    def is_remote(self) -> bool:
        return False

    def view(self, offset: int, size: int) -> memoryview:
        return self._ep.local_view(self._abs + offset, size)

    def timed_view(self, offset: int, size: int) -> memoryview:
        return self._ep.local_read_view(self._abs + offset, size)

    def charge_read(self, offset: int, size: int) -> float:
        return self._ep.local_read(self._abs + offset, size)

    def timed_write(self, offset: int, data) -> float:
        return self._ep.local_write(self._abs + offset, data)

    def charge_write(self, offset: int, size: int) -> float:
        return self._ep.charge_local_write(self._abs + offset, size)


@dataclass
class RemoteReadIntegrity:
    """What a validated fabric read checks against — the descriptor's view
    of the object, plus the hooks to recover from a stale descriptor.

    ``refresh`` is the one-shot re-lookup callback the owning store
    installs: it invalidates the stale cached descriptor, re-Lookups the
    id, and returns a fresh ``(remote_region, payload_offset, integrity)``
    triple (or None if the object is gone for real).
    """

    object_id: bytes  # expected raw 20-byte id
    generation: int  # expected header generation; 0 = unknown, skip check
    header_size: int
    payload_crc: int = 0
    verify_checksum: bool = False
    checksum_ns_per_byte: float = 0.0
    clock: object = None
    refresh: Callable[[], tuple | None] | None = None


class RemoteBufferSource:
    """Buffer bytes living in a remote node's disaggregated region,
    accessed through a mapped aperture.

    With an integrity context attached, every materialising read validates
    the object's in-region header (magic, id, generation, seal flag)
    *before* streaming the payload and re-checks the generation *after* —
    so delete/evict/realloc races at the home store surface as typed
    :class:`StaleDescriptorError` instead of silently reused bytes, with
    one transparent re-lookup-and-retry before the error escapes.
    """

    def __init__(
        self,
        remote: RemoteRegion,
        region_offset: int,
        integrity: RemoteReadIntegrity | None = None,
    ):
        self._remote = remote
        self._off = region_offset
        self._integrity = integrity

    @property
    def location(self) -> str:
        return f"remote:{self._remote.home_name}"

    @property
    def is_remote(self) -> bool:
        return True

    @property
    def integrity(self) -> RemoteReadIntegrity | None:
        return self._integrity

    def view(self, offset: int, size: int) -> memoryview:
        return self._remote.view(self._off + offset, size)

    def home_extent(self, offset: int, size: int):
        """``(memory, start, end)`` that :meth:`view` of this range aliases
        in the home's DRAM — after any stale-descriptor refresh, the
        incarnation the last read actually streamed."""
        return self._remote.home_extent(self._off + offset, size)

    def charge_read(self, offset: int, size: int) -> float:
        # A validating reader still fetches the header with the stream.
        ig = self._integrity
        extra = ig.header_size if ig is not None else 0
        return self._remote.charge_read(size + extra)

    def timed_view(self, offset: int, size: int) -> memoryview:
        ig = self._integrity
        if ig is None:
            return self._remote.read_view(self._off + offset, size)
        try:
            return self._validated_view(offset, size)
        except StaleDescriptorError:
            if ig.refresh is None:
                raise
            refreshed = ig.refresh()
            if refreshed is None:
                raise
            self._remote, self._off, self._integrity = refreshed
            # Second failure surfaces to the caller.
            return self._validated_view(offset, size)

    def _validated_view(self, offset: int, size: int) -> memoryview:
        ig = self._integrity
        header_at = self._off - ig.header_size
        pre = bytes(self._remote.view(header_at, ig.header_size))
        fields = unpack_header(pre)
        if fields is not None:
            object_id, generation, data_size, _, flags, payload_crc, _, _ = fields
        if (
            fields is None
            or object_id != ig.object_id
            or (ig.generation and generation != ig.generation)
            or not flags & FLAG_SEALED
        ):
            raise StaleDescriptorError(
                f"in-region header for {ObjectID(ig.object_id)!r} at "
                f"{self.location} no longer matches the descriptor (retired, "
                f"reallocated, or unsealed)"
            )
        if flags & FLAG_QUARANTINED:
            raise ObjectCorruptedError(
                f"{ObjectID(ig.object_id)!r} is quarantined at its home store "
                f"{self.location}"
            )
        view = self._remote.view(self._off + offset, size)
        # One charged stream covers header + payload: the header rides the
        # same DMA burst, so validation costs bytes, not an extra round trip.
        self._remote.charge_read(size + ig.header_size)
        # Post-stream re-check: a retire that raced the stream bumped the
        # generation, which means the bytes just streamed may be torn.
        # Unchanged header bytes already passed every test above.
        post = bytes(self._remote.view(header_at, ig.header_size))
        if post != pre:
            fields = unpack_header(post)
            if fields is None or fields[1] != generation or not fields[4] & FLAG_SEALED:
                raise StaleDescriptorError(
                    f"{ObjectID(ig.object_id)!r} was retired at {self.location} "
                    f"mid-stream; the streamed bytes cannot be trusted"
                )
        if ig.verify_checksum and offset == 0 and size == data_size:
            if ig.checksum_ns_per_byte and ig.clock is not None:
                ig.clock.advance(ig.checksum_ns_per_byte * size)
            if crc32c(view) != payload_crc:
                raise ObjectCorruptedError(
                    f"{ObjectID(ig.object_id)!r} failed its payload checksum "
                    f"after a fabric read from {self.location}"
                )
        return view

class PlasmaBuffer:
    """A client's handle to one object's payload.

    Writable until the object is sealed (and only by its creator); read-only
    afterwards. Dropping the handle requires an explicit
    :meth:`~repro.plasma.client.PlasmaClient.release` — exactly Plasma's
    contract, and what the eviction policy's in-use pinning relies on.
    """

    def __init__(
        self,
        object_id: ObjectID,
        source: LocalBufferSource | RemoteBufferSource,
        size: int,
        sealed: bool,
        metadata: bytes = b"",
    ):
        self._object_id = object_id
        self._source = source
        self._size = size
        self._sealed = sealed
        self._metadata = bytes(metadata)
        self._released = False
        # (context, rid) stamped by the issuing client so deferred reads
        # attribute to the Get that produced this handle; None when the
        # cluster runs without correlation.
        self._correlation = None

    def _set_correlation(self, context, rid: str) -> None:
        self._correlation = (context, rid)

    # -- metadata ----------------------------------------------------------------

    @property
    def object_id(self) -> ObjectID:
        return self._object_id

    @property
    def nbytes(self) -> int:
        return self._size

    @property
    def metadata(self) -> bytes:
        """The application metadata attached at create time (Plasma lets a
        producer store a small schema/annotation blob beside the payload)."""
        return self._metadata

    @property
    def is_sealed(self) -> bool:
        return self._sealed

    @property
    def is_remote(self) -> bool:
        return self._source.is_remote

    @property
    def location(self) -> str:
        return self._source.location

    @property
    def is_released(self) -> bool:
        return self._released

    def _check_live(self) -> None:
        if self._released:
            raise ObjectStoreError(f"buffer for {self._object_id!r} was released")

    def _mark_sealed(self) -> None:
        self._sealed = True

    def _mark_released(self) -> None:
        self._released = True

    # -- reads (the Figure 7 path) --------------------------------------------------

    def _timed(self, read):
        """Run a source read over the whole payload, re-entering the
        originating request scope so the fabric spans it triggers carry the
        Get's correlation id."""
        if self._correlation is None:
            return read(0, self._size)
        context, rid = self._correlation
        context.begin(rid)
        try:
            return read(0, self._size)
        finally:
            context.end()

    def read_view(self) -> memoryview:
        """Sequentially read the whole payload (timed) in place: a read-only
        window over the bytes this reader observes, valid until the handle
        is released. Nothing is copied unless a Fig 3b stale snapshot has
        to be overlaid on the home node."""
        self._check_live()
        return self._timed(self._source.timed_view)

    def read_all(self) -> bytes:
        """:meth:`read_view`, copied out into owned bytes."""
        return bytes(self.read_view())

    def read_into(self, out) -> None:
        """:meth:`read_view`, copied into a caller buffer (no allocation)."""
        self._check_live()
        mv = memoryview(out)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        if len(mv) < self._size:
            raise ObjectStoreError(
                f"output buffer ({len(mv)} B) smaller than object ({self._size} B)"
            )
        mv[: self._size] = self._timed(self._source.timed_view)

    def charge_sequential_read(self) -> None:
        """Account the cost of reading the payload without materialising it
        (used by benchmarks that only need timing)."""
        self._check_live()
        self._timed(self._source.charge_read)

    def view(self) -> memoryview:
        """Untimed zero-copy window (read-only once sealed)."""
        self._check_live()
        mv = self._source.view(0, self._size)
        return mv.toreadonly() if self._sealed else mv

    # -- writes (producer side, pre-seal) ----------------------------------------------

    def write(self, data, offset: int = 0) -> None:
        """Timed write of *data* at *offset*; only before sealing."""
        self._check_live()
        if self._sealed:
            raise ObjectSealedError(
                f"{self._object_id!r} is sealed and therefore immutable"
            )
        mv = memoryview(data)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        if offset < 0 or offset + len(mv) > self._size:
            raise ObjectStoreError(
                f"write [{offset}, {offset + len(mv)}) exceeds the "
                f"{self._size}-byte object"
            )
        self._source.timed_write(offset, mv)

    def charge_sequential_write(self) -> None:
        """Account the cost of writing the whole payload without moving
        bytes (benchmark charge-only mode)."""
        self._check_live()
        if self._sealed:
            raise ObjectSealedError(
                f"{self._object_id!r} is sealed and therefore immutable"
            )
        self._source.charge_write(0, self._size)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        state = "sealed" if self._sealed else "unsealed"
        return (
            f"PlasmaBuffer({self._object_id!r}, {self._size} B, {state}, "
            f"{self._source.location})"
        )
