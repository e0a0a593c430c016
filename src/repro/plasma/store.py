"""The Plasma store process.

"The Plasma object store lives as a separate process to which clients of
the store may commit and 'seal' data objects with an object identifier. The
store manages the objects' locations in shared memory and makes them
available to other clients upon sealing." (paper §II-B)

The store composes:

* an allocator (the paper's first-fit replacement by default) over the
  memory region it manages — for the disaggregated variant that region *is*
  the node's exposed ThymesisFlow window;
* the mutex-guarded :class:`~repro.plasma.table.ObjectTable`;
* LRU eviction that refuses to touch in-use objects;
* seal/delete notification fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocator import FirstFitAllocator
from repro.allocator.base import align_up
from repro.common.checksum import crc32c
from repro.common.clock import SimClock
from repro.common.config import StoreConfig
from repro.common.errors import (
    AllocationError,
    ObjectCorruptedError,
    ObjectExistsError,
    ObjectNotFoundError,
    ObjectNotSealedError,
    ObjectStoreError,
    OutOfMemoryError,
)
from repro.common.ids import ObjectID
from repro.obs.metrics import CounterGroup
from repro.memory.host import MemoryRegion
from repro.memory.layout import (
    FLAG_QUARANTINED,
    FLAG_SEALED,
    HEADER_MAGIC,
    HEADER_SIZE,
    MAX_METADATA_BYTES,
    ObjectHeader,
    pack_header,
)
from repro.plasma.buffer import LocalBufferSource, PlasmaBuffer
from repro.plasma.entry import ObjectEntry, ObjectState
from repro.plasma.eviction import create_eviction_policy
from repro.plasma.notifications import NotificationQueue, SealNotification
from repro.plasma.table import ObjectTable
from repro.thymesisflow.endpoint import ThymesisEndpoint


@dataclass(frozen=True)
class RecoveryReport:
    """What a region-scan restart recovery found."""

    candidates: int  # aligned offsets whose first bytes matched the magic
    recovered: int  # sealed objects re-registered in the table
    quarantined: int  # recovered, but payload/metadata failed its checksum
    skipped: int  # candidates rejected (bad CRC, unsealed/retired, dup, ...)
    bytes_recovered: int  # payload bytes of recovered objects
    max_generation: int  # highest generation observed anywhere in the scan

    def describe(self) -> str:
        return (
            f"{self.recovered} objects recovered "
            f"({self.bytes_recovered} payload bytes, "
            f"{self.quarantined} quarantined) from {self.candidates} header "
            f"candidates; {self.skipped} rejected; generation resumes past "
            f"{self.max_generation}"
        )


class PlasmaStore:
    """One store instance managing one memory region on one node."""

    class Counters(CounterGroup):
        objects_created = bytes_created = objects_sealed = objects_deleted = 0
        objects_evicted = bytes_evicted = objects_quarantined = 0
        objects_repaired = objects_recovered = objects_recovered_quarantined = 0
        scrub_passes = scrub_scanned = scrub_corrupted = scrub_repaired = 0
        scrub_quarantined = scrub_re_replicated = 0
        scrub_replicas_rediscovered = scrub_replica_mismatches = 0

    def __init__(
        self,
        name: str,
        endpoint: ThymesisEndpoint,
        region: MemoryRegion,
        config: StoreConfig,
        clock: SimClock,
    ):
        if region.memory is not endpoint.memory:
            raise ValueError("store region must live in its endpoint's memory")
        self._name = name
        self._endpoint = endpoint
        self._region = region
        self._config = config
        self._clock = clock
        # The paper's replacement allocator; the E5 ablation builds the
        # others itself (repro.allocator.create_allocator).
        self._allocator = FirstFitAllocator(region.size)
        self._table = ObjectTable()
        self._eviction = create_eviction_policy(config.eviction_policy, region.size)
        self._subscribers: list[NotificationQueue] = []
        # Integrity: every extent is prefixed by a fixed in-region header
        # (one alignment quantum) and stamped with a store-monotonic
        # generation; see repro.memory.layout.
        self._header_size = HEADER_SIZE if config.integrity_headers else 0
        self._next_generation = 1
        self.counters = self.Counters()
        # Optional span sink (repro.obs.spans), set by the cluster builder
        # when distributed tracing is requested; hot paths guard on None.
        self.spans = None
        # Optional per-operation correlation context (see repro.obs); set
        # by the cluster builder alongside the sink or the metrics plane.
        self.correlation = None
        # Pre-resolved latency-histogram children; None until
        # attach_metrics, so the disabled hot path is one `is None` check.
        self._m_create = None
        self._m_seal = None

    # -- observability -----------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Bind this store's counters/latency/allocator gauges to *registry*.

        Safe to call again after a restart-recovery rebuilt the store: the
        group binding and gauge callbacks are replaced in place.
        """
        registry.register_group(
            self.counters,
            "plasma",
            route={"scrub_": "scrub_", "lookup_cache_": "cache_"},
            store=self._name,
        )
        self._m_create = registry.histogram(
            "plasma_create_latency_ns",
            "Simulated time to allocate an object (incl. any eviction).",
            labels=("store",),
        ).labels(store=self._name)
        self._m_seal = registry.histogram(
            "plasma_seal_latency_ns",
            "Simulated time to seal an object (checksum + header write).",
            labels=("store",),
        ).labels(store=self._name)
        utilization = registry.gauge(
            "allocator_utilization",
            "Fraction of region capacity currently allocated.",
            labels=("store", "allocator"),
        )
        ext_frag = registry.gauge(
            "allocator_external_fragmentation",
            "1 - largest_free/free_bytes, sampled at collect time.",
            labels=("store", "allocator"),
        )
        int_frag = registry.gauge(
            "allocator_internal_fragmentation",
            "Padding overhead within allocated blocks.",
            labels=("store", "allocator"),
        )
        labels = {"store": self._name, "allocator": "first_fit"}
        utilization.labels(**labels).set_function(
            lambda: self.used_bytes / max(1, self.capacity_bytes)
        )
        ext_frag.labels(**labels).set_function(
            lambda: self._fragmentation().external_fragmentation
        )
        int_frag.labels(**labels).set_function(
            lambda: self._fragmentation().internal_fragmentation
        )

    def _fragmentation(self):
        from repro.allocator.metrics import fragmentation_report

        return fragmentation_report("first_fit", self._allocator)

    # -- identity -----------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def endpoint(self) -> ThymesisEndpoint:
        return self._endpoint

    @property
    def node(self) -> str:
        return self._endpoint.name

    @property
    def region(self) -> MemoryRegion:
        return self._region

    @property
    def table(self) -> ObjectTable:
        return self._table

    @property
    def allocator(self):
        return self._allocator

    @property
    def config(self) -> StoreConfig:
        return self._config

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def capacity_bytes(self) -> int:
        return self._region.size

    @property
    def used_bytes(self) -> int:
        return self._allocator.used_bytes

    @property
    def header_size(self) -> int:
        """Per-object in-region header bytes (0 when integrity is off)."""
        return self._header_size

    # -- object lifecycle ------------------------------------------------------------

    def check_id_available(self, object_id: ObjectID) -> None:
        """Raise :class:`ObjectExistsError` if the id is taken. The
        distributed store widens this check across peers (paper: "on object
        creation, RPC calls are used to ensure the uniqueness of object
        identifiers")."""
        if self._table.contains(object_id):
            raise ObjectExistsError(f"{object_id!r} already exists in {self._name}")

    def create_object(
        self, object_id: ObjectID, data_size: int, metadata: bytes = b""
    ) -> ObjectEntry:
        """Allocate an object; evicts LRU sealed unused objects on pressure."""
        # The uniqueness check runs OUTSIDE the table mutex: for the
        # distributed store it performs blocking Contains RPCs, and holding
        # the local mutex across a call into a peer (whose handler takes its
        # own mutex) would deadlock two concurrently-creating stores. The
        # small check-then-insert window is safe — insertion still fails on
        # a local duplicate.
        self.check_id_available(object_id)
        return self.create_object_unchecked(object_id, data_size, metadata)

    def create_object_unchecked(
        self, object_id: ObjectID, data_size: int, metadata: bytes = b""
    ) -> ObjectEntry:
        """Allocate without the (possibly distributed) uniqueness check —
        for callers that already reserved the id in a batch. Local
        duplicates still fail at table insertion."""
        if self._m_create is None:
            return self._create_unchecked_inner(object_id, data_size, metadata)
        start_ns = self._clock.now_ns
        entry = self._create_unchecked_inner(object_id, data_size, metadata)
        self._m_create.observe(self._clock.now_ns - start_ns)
        return entry

    def _create_unchecked_inner(
        self, object_id: ObjectID, data_size: int, metadata: bytes = b""
    ) -> ObjectEntry:
        if data_size <= 0:
            raise ValueError("object size must be positive")
        metadata = bytes(metadata)
        if self._header_size and len(metadata) > MAX_METADATA_BYTES:
            raise ValueError(
                f"metadata of {len(metadata)} bytes exceeds the "
                f"{MAX_METADATA_BYTES}-byte header field"
            )
        # Extent layout: [header][payload][metadata]; metadata is persisted
        # into the region at seal time so a restart can recover it.
        total_size = self._header_size + data_size + len(metadata)
        with self._table.lock:
            allocation = self._allocate_with_eviction(total_size)
            generation = 0
            if self._header_size:
                generation = self._next_generation
                self._next_generation += 1
            entry = ObjectEntry(
                object_id=object_id,
                allocation=allocation,
                data_size=data_size,
                metadata=metadata,
                created_at_ns=self._clock.now_ns,
                generation=generation,
                header_size=self._header_size,
                meta_crc=crc32c(metadata) if metadata else 0,
            )
            self._table.insert(entry)
            if self._header_size:
                # Unsealed header: fabric readers that race the producer
                # see "not sealed" and fail typed rather than reading a
                # torn payload. Header writes are untimed bookkeeping (the
                # store process touches its own region).
                self._write_header(entry, flags=0)
        self.counters.objects_created += 1
        self.counters.bytes_created += data_size
        return entry

    def _write_header(
        self, entry: ObjectEntry, flags: int, generation: int | None = None
    ) -> None:
        self._region.write(
            entry.allocation.offset,
            pack_header(
                entry.object_id.binary(),
                entry.generation if generation is None else generation,
                entry.data_size,
                len(entry.metadata),
                flags,
                entry.payload_crc,
                entry.meta_crc,
                int(entry.sealed_at_ns // 1_000_000_000),
            ),
        )

    def _retire_header(self, entry: ObjectEntry) -> None:
        """Bump the in-region generation and clear the seal flag *before*
        the extent returns to the allocator: a concurrent fabric reader
        holding a descriptor then deterministically observes a stale header
        (typed StaleDescriptorError) instead of silently reading bytes the
        allocator has reused."""
        if not entry.header_size:
            return
        retired_generation = self._next_generation
        self._next_generation += 1
        self._write_header(entry, flags=0, generation=retired_generation)

    def _retire_and_free(self, entry: ObjectEntry) -> None:
        """Unlink *entry* from the table, retire its header, and only then
        return its extent to the allocator — the one place every removal
        (delete, eviction, migration, replica drop, aborted adoption) keeps
        retire-before-free. The caller holds the table lock."""
        self._table.remove(entry.object_id)
        self._retire_header(entry)
        self._allocator.free(entry.allocation.offset)

    def _allocate_with_eviction(self, data_size: int):
        """Allocate an extent, evicting on pressure."""
        try:
            allocation = self._allocator.allocate(data_size)
        except OutOfMemoryError:
            allocation = None
        if allocation is None:
            # Memory pressure: evict a batch of LRU sealed unused objects.
            # If the request still does not fit (all remaining objects in
            # use, or fragmentation) the retry's OutOfMemoryError goes to
            # the caller.
            decision = self._eviction.plan(self._table, required_bytes=data_size)
            self._evict_round(decision.victims)
            allocation = self._allocator.allocate(data_size)
        return allocation

    def _evict_round(self, victims: list[ObjectEntry]) -> None:
        """Evict one planned round, then announce it once — after the last
        victim is retired and freed, before anything is allocated into the
        space."""
        for victim in victims:
            self._retire_and_free(victim)
            self.counters.objects_evicted += 1
            self.counters.bytes_evicted += victim.allocation.padded_size
            self._notify(victim.object_id, victim.data_size, deleted=True)
        if victims:
            self._announce_evicted(victims)

    def _announce_evicted(self, victims: list[ObjectEntry]) -> None:
        """Hook: a whole eviction round has left this store. Local
        subscribers heard per victim already; the distributed store tells
        its peers here, once per round."""

    def seal_object(self, object_id: ObjectID) -> ObjectEntry:
        """Make the object immutable and announce it."""
        if self._m_seal is None:
            return self._seal_inner(object_id)
        start_ns = self._clock.now_ns
        entry = self._seal_inner(object_id)
        self._m_seal.observe(self._clock.now_ns - start_ns)
        return entry

    def _seal_inner(self, object_id: ObjectID) -> ObjectEntry:
        with self._table.lock:
            entry = self._table.seal(object_id, sealed_at_ns=self._clock.now_ns)
            if entry.header_size:
                # Persist metadata behind the payload, checksum the payload,
                # and only then flip the seal flag in the region — the
                # header stays "unsealed" until the extent is fully
                # consistent, so a racing fabric reader fails typed.
                if entry.metadata:
                    self._region.write(
                        entry.payload_offset + entry.data_size, entry.metadata
                    )
                entry.payload_crc = crc32c(
                    self._region.view(entry.payload_offset, entry.data_size)
                )
                self._write_header(entry, flags=FLAG_SEALED)
        self.counters.objects_sealed += 1
        self._notify(entry.object_id, entry.data_size)
        return entry

    def delete_object(self, object_id: ObjectID) -> None:
        """Explicitly remove a sealed, unreferenced object."""
        with self._table.lock:
            entry = self._table.get(object_id)
            if not entry.is_sealed:
                raise ObjectNotSealedError(
                    f"{object_id!r} cannot be deleted before sealing"
                )
            self._retire_and_free(entry)
        self.counters.objects_deleted += 1
        self._notify(entry.object_id, entry.data_size, deleted=True)

    def evict(self, nbytes: int) -> int:
        """Force-evict at least *nbytes* if possible; returns freed bytes."""
        with self._table.lock:
            decision = self._eviction.plan(self._table, required_bytes=nbytes)
            self._evict_round(decision.victims)
            return decision.freed_bytes

    # -- lookups ---------------------------------------------------------------------

    def contains(self, object_id: ObjectID) -> bool:
        return self._table.contains(object_id)

    def get_sealed_entry(self, object_id: ObjectID) -> ObjectEntry:
        """The entry, which must exist and be sealed (reads of unsealed
        objects are races Plasma prevents by construction)."""
        entry = self._table.lookup(object_id)
        if entry is None:
            raise ObjectNotFoundError(f"{object_id!r} not found in {self._name}")
        if not entry.is_sealed:
            raise ObjectNotSealedError(f"{object_id!r} exists but is not sealed")
        if entry.quarantined:
            raise ObjectCorruptedError(
                f"{object_id!r} is quarantined in {self._name}: its payload "
                f"failed checksum verification"
            )
        return entry

    def lookup_descriptor(self, object_id: ObjectID) -> dict | None:
        """Wire-friendly descriptor of a *sealed* object, or None.

        This is the payload a peer store's RPC Lookup returns: enough for
        the peer to address the bytes through its aperture (offset within
        the exposed region + size).
        """
        with self._table.lock:
            entry = self._table.lookup(object_id)
            if entry is None or not entry.is_sealed or entry.quarantined:
                return None
            return entry.describe()

    # -- references ---------------------------------------------------------------------

    def add_ref(self, object_id: ObjectID) -> None:
        self._table.add_ref(object_id)

    def release_ref(self, object_id: ObjectID) -> None:
        self._table.release_ref(object_id)

    # -- buffers ----------------------------------------------------------------------

    def local_buffer(self, entry: ObjectEntry) -> PlasmaBuffer:
        """A buffer handle for a locally stored object (payload bytes only;
        the in-region header sits just before the buffer)."""
        abs_offset = self._region.absolute(entry.payload_offset)
        source = LocalBufferSource(self._endpoint, abs_offset)
        return PlasmaBuffer(
            entry.object_id,
            source,
            entry.data_size,
            sealed=entry.is_sealed,
            metadata=entry.metadata,
        )

    # -- integrity: scrub / quarantine / repair ------------------------------------------

    def verify_object(self, entry: ObjectEntry) -> str | None:
        """Check one sealed object's in-region bytes against its seal-time
        integrity metadata. Returns None when intact, else a short reason
        (the scrubber's detection primitive; untimed local work)."""
        if not entry.header_size or not entry.is_sealed:
            return None
        raw = self._region.read(entry.allocation.offset, HEADER_SIZE)
        header = ObjectHeader.unpack(raw)
        if header is None:
            return "header unreadable (bad magic or header CRC)"
        if header.object_id != entry.object_id.binary():
            return "header object id mismatch"
        if header.generation != entry.generation:
            return "header generation mismatch"
        if not header.sealed:
            return "seal flag lost"
        payload = self._region.view(entry.payload_offset, entry.data_size)
        if crc32c(payload) != entry.payload_crc:
            return "payload checksum mismatch"
        if entry.metadata:
            meta = self._region.read(
                entry.payload_offset + entry.data_size, len(entry.metadata)
            )
            if crc32c(meta) != entry.meta_crc:
                return "metadata checksum mismatch"
        return None

    def quarantine_object(self, object_id: ObjectID) -> ObjectEntry:
        """Mark a corrupt object: reads answer ObjectCorruptedError and
        lookups stop advertising it, but the extent stays registered so a
        repair can write good bytes back in place."""
        with self._table.lock:
            entry = self._table.get(object_id)
            entry.quarantined = True
            if entry.header_size:
                self._write_header(entry, flags=FLAG_SEALED | FLAG_QUARANTINED)
        self.counters.objects_quarantined += 1
        return entry

    def repair_object(self, object_id: ObjectID, data) -> ObjectEntry:
        """Overwrite a (typically quarantined) object's payload with known
        good bytes, re-seal its header, and lift the quarantine."""
        mv = memoryview(data)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        with self._table.lock:
            entry = self._table.get(object_id)
            if len(mv) != entry.data_size:
                raise ObjectStoreError(
                    f"repair payload is {len(mv)} bytes; "
                    f"{object_id!r} holds {entry.data_size}"
                )
            self._region.write(entry.payload_offset, mv)
            if entry.metadata:
                self._region.write(
                    entry.payload_offset + entry.data_size, entry.metadata
                )
            entry.payload_crc = crc32c(
                self._region.view(entry.payload_offset, entry.data_size)
            )
            entry.quarantined = False
            if entry.header_size:
                self._write_header(entry, flags=FLAG_SEALED)
        self.counters.objects_repaired += 1
        return entry

    # -- restart recovery ----------------------------------------------------------------

    def recover_from_region(self) -> RecoveryReport:
        """Rebuild the object table and the allocator free list by scanning
        the region for sealed-object headers.

        This is the restart path: the exposed (disaggregated) region
        outlives the store process, so a fresh store constructed over the
        same region can re-register every sealed extent. Unsealed and
        retired headers are treated as free space — exactly the semantics
        the retire-before-free protocol guarantees. Objects whose payload or
        metadata fails its checksum are recovered *quarantined* so the
        scrubber can repair them from replicas instead of losing them.
        """
        if not self._header_size:
            raise ObjectStoreError(
                "recovery requires integrity_headers: without in-region "
                "headers there is nothing to scan"
            )
        if len(self._table):
            raise ObjectStoreError(
                f"recover_from_region needs an empty store; {self._name} "
                f"already holds {len(self._table)} objects"
            )
        align = self._allocator.alignment
        # Headers only ever start at allocation offsets, which are aligned —
        # so the scan inspects one 4-byte magic probe per alignment quantum,
        # vectorised over the whole region in one numpy pass.
        data = np.frombuffer(self._region.readonly_view(), dtype=np.uint8)
        nrows = self._region.size // align
        rows = data[: nrows * align].reshape(nrows, align)
        magic = np.frombuffer(HEADER_MAGIC, dtype=np.uint8)
        hits = np.nonzero((rows[:, : len(magic)] == magic).all(axis=1))[0]

        candidates = [int(row) * align for row in hits]
        recovered = quarantined = skipped = 0
        bytes_recovered = 0
        max_generation = 0
        cursor = 0  # end of the last accepted extent
        with self._table.lock:
            for offset in candidates:
                if offset < cursor:
                    # Inside an accepted extent: payload bytes that happen
                    # to contain the magic, not a real header.
                    continue
                if offset + HEADER_SIZE > self._region.size:
                    skipped += 1
                    continue
                header = ObjectHeader.unpack(
                    self._region.read(offset, HEADER_SIZE)
                )
                if header is None:
                    skipped += 1
                    continue
                max_generation = max(max_generation, header.generation)
                if not header.sealed:
                    skipped += 1  # retired or mid-write extent = free space
                    continue
                extent = align_up(header.extent_bytes, align)
                if offset + extent > self._region.size:
                    skipped += 1
                    continue
                try:
                    allocation = self._allocator.reserve(
                        offset, header.extent_bytes
                    )
                except AllocationError:
                    skipped += 1
                    continue
                metadata = self._region.read(
                    offset + HEADER_SIZE + header.data_size, header.meta_size
                )
                meta_crc = crc32c(metadata) if header.meta_size else 0
                meta_ok = not header.meta_size or meta_crc == header.meta_crc
                payload_ok = (
                    crc32c(self._region.view(offset + HEADER_SIZE, header.data_size))
                    == header.payload_crc
                )
                corrupt = header.quarantined or not (meta_ok and payload_ok)
                entry = ObjectEntry(
                    object_id=ObjectID(header.object_id),
                    allocation=allocation,
                    data_size=header.data_size,
                    metadata=metadata,
                    state=ObjectState.SEALED,
                    created_at_ns=header.sealed_at_s * 1_000_000_000,
                    sealed_at_ns=header.sealed_at_s * 1_000_000_000,
                    generation=header.generation,
                    header_size=HEADER_SIZE,
                    payload_crc=header.payload_crc,
                    meta_crc=meta_crc,
                    quarantined=corrupt,
                )
                try:
                    self._table.insert(entry)
                except ObjectExistsError:
                    self._allocator.free(allocation.offset)
                    skipped += 1
                    continue
                cursor = offset + extent
                recovered += 1
                bytes_recovered += header.data_size
                if corrupt:
                    quarantined += 1
            self._next_generation = max_generation + 1
        self.counters.objects_recovered += recovered
        self.counters.objects_recovered_quarantined += quarantined
        return RecoveryReport(
            candidates=len(candidates),
            recovered=recovered,
            quarantined=quarantined,
            skipped=skipped,
            bytes_recovered=bytes_recovered,
            max_generation=max_generation,
        )

    # -- notifications ------------------------------------------------------------------

    def subscribe(self) -> NotificationQueue:
        queue = NotificationQueue()
        self._subscribers.append(queue)
        return queue

    def _notify(
        self, object_id: ObjectID, data_size: int, deleted: bool = False
    ) -> None:
        """Announce to every subscriber; with none, nothing is built."""
        if not self._subscribers:
            return
        note = SealNotification(object_id, data_size, deleted)
        for queue in self._subscribers:
            queue._push(note)  # noqa: SLF001 — store is the queue's producer

    # -- introspection ---------------------------------------------------------------------

    def object_count(self) -> int:
        return len(self._table)

    def describe_all(self) -> list[dict]:
        return [entry.describe() for entry in self._table]

    def __repr__(self) -> str:
        return (
            f"PlasmaStore({self._name}, node={self.node}, "
            f"{self.used_bytes}/{self.capacity_bytes} B, "
            f"{self.object_count()} objects)"
        )
