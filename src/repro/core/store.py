"""The memory-disaggregated Plasma store (paper §IV).

Extends :class:`~repro.plasma.store.PlasmaStore` in exactly the two steps
the paper describes:

1. **Disaggregated memory allocation** — the store's allocation region *is*
   the node's exposed ThymesisFlow window, so every sealed object is
   directly readable by remote nodes through their apertures (the base
   class already allocates in whatever region it is given; the cluster
   builder passes the exposed region).
2. **Remote object sharing** — stores are interconnected with RPC. On a
   client request for unknown ids the store batch-Lookups its peers and
   wires the returned descriptors to ThymesisFlow reads; on creation it
   enforces system-wide id uniqueness with Contains RPCs. RPC is the only
   metadata path: because a home answers every Lookup itself, it knows
   which peers hold each descriptor and tells only them when it dies.

Future-work extensions (each a :class:`~repro.common.config.StoreConfig`
switch, all benchmarked):

* ``share_usage`` — distributed object-usage sharing: AddRef/ReleaseRef
  RPCs pin remotely-used objects at their home store so eviction cannot
  corrupt a remote reader (closes the gap paper §IV-A2 leaves open).
* ``lookup_cache`` — descriptor caching for repeated requests
  (paper §V-B), invalidated by NotifyDeleted pushes.
* multi-node — peers are a list, not a single partner; nothing in the
  data path is 2-node specific.
"""

from __future__ import annotations

from contextlib import nullcontext, suppress

from repro.common.clock import SimClock
from repro.common.config import StoreConfig
from repro.common.errors import (
    ObjectExistsError,
    ObjectNotFoundError,
    ObjectStoreError,
    ObjectUnavailableError,
    ServerOverloadedError,
)
from repro.common.ids import ObjectID
from repro.core.lookup_cache import LookupCache
from repro.core.remote import PeerHandle, RemoteObjectRecord
from repro.rpc.overload import DeadlineBudget
from repro.placement.membership import TopologyView
from repro.placement.ring import HashRing
from repro.memory.host import MemoryRegion
from repro.plasma.buffer import (
    PlasmaBuffer,
    RemoteBufferSource,
    RemoteReadIntegrity,
)
from repro.plasma.entry import ObjectEntry
from repro.plasma.store import PlasmaStore
from repro.rpc.aio.loop import Sleep
from repro.rpc.drive import drive, fan_out
from repro.rpc.status import StatusCode
from repro.common.errors import RpcStatusError
from repro.thymesisflow.endpoint import ThymesisEndpoint
from repro.tier.source import CachedBufferSource, TierBufferSource

#: What an unobserved call opens in place of a span.
_UNOBSERVED = nullcontext()
#: The status codes that mean a peer's metadata plane cannot answer.
_UNREACHABLE = (StatusCode.UNAVAILABLE, StatusCode.DEADLINE_EXCEEDED)


class DisaggregatedStore(PlasmaStore):
    """A Plasma store whose objects live in disaggregated memory and whose
    metadata plane spans every connected peer."""

    class Counters(PlasmaStore.Counters):
        gets_local = gets_remote = gets_cache_served = 0
        lookup_rpcs = lookup_cache_hits = lookups_shed = 0
        lookup_hedges_fired = lookup_hedge_wins = lookup_hedge_losses = 0
        addref_rpcs = releaseref_rpcs = stale_descriptor_refreshes = 0
        peers_unavailable = peers_disconnected = 0
        topology_installs = topology_stale_updates = 0
        placed_creates_forwarded = placed_creates_fallback = 0
        placed_creates_received = placed_bytes_forwarded = 0
        adoptions_prepared = adoptions_committed = adoptions_aborted = 0
        adoptions_already_sealed = migration_retires_deferred = 0
        objects_migrated_out = bytes_migrated_out = 0
        replicas_created = replicas_skipped = replicas_held = 0
        replicas_dropped = replica_revocations = delete_notifications = 0

    def __init__(
        self,
        name: str,
        endpoint: ThymesisEndpoint,
        region: MemoryRegion,
        config: StoreConfig,
        clock: SimClock,
    ):
        super().__init__(name, endpoint, region, config, clock)
        self._peers: dict[str, PeerHandle] = {}
        self._remote_records: dict[ObjectID, RemoteObjectRecord] = {}
        self._check_remote_uniqueness = config.check_remote_uniqueness
        self._share_usage = config.share_usage
        # A cached descriptor is only safe while its home says when it dies:
        # the lookup cache and the NotifyDeleted pushes are one switch.
        self._notify_deletions = config.lookup_cache
        self._lookup_cache: LookupCache | None = (
            LookupCache() if config.lookup_cache else None
        )
        # Replication book-keeping: which peers hold copies of our objects
        # (home side) and which of our objects are copies of a peer's
        # (replica side).
        self._replicated_to: dict[ObjectID, tuple[str, ...]] = {}
        self._replicas_of: dict[ObjectID, str] = {}
        # Directed invalidation: object id -> the peers this process answered
        # a Lookup for it with a descriptor. A set is born when this process
        # seals the object and dies when the object is announced gone. No
        # set means unknown — recovered after a restart or asked by an
        # unnamed caller — and unknown means every peer is told.
        self._sharers: dict[ObjectID, set[str]] = {}
        # Elastic placement (repro.placement): the installed topology view,
        # the ring derived from it, and migration book-keeping. Off, None
        # or empty until the cluster enables placement.
        self._placement = False
        self._topology: TopologyView | None = None
        self._ring: HashRing | None = None
        self._pending_adoptions: set[ObjectID] = set()
        self._deferred_retires: set[ObjectID] = set()
        self._m_get = None
        # Tiering (repro.tier): the node's TierAgent — hot-object byte
        # cache plus heat trackers. None until the cluster enables tiering;
        # every tier branch below is branch-on-None so the disabled path is
        # byte-identical to a build without the subsystem.
        self._tier = None
        # Async RPC plane (repro.rpc.aio): the cluster-wide event loop and
        # the mode flag. In sync mode nothing ever schedules on the loop and
        # the flag check is the only new cost on the baseline path.
        self._aio_loop = None
        self._rpc_async = False

    # -- observability -----------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Local-store metrics plus Get latency and lookup-cache gauges."""
        super().attach_metrics(registry)
        self._m_get = registry.histogram(
            "plasma_get_latency_ns",
            "Simulated end-to-end Get latency at the store "
            "(lookup + pin + buffer construction).",
            labels=("store",),
        ).labels(store=self._name)
        if self._lookup_cache is not None:
            entries = registry.gauge(
                "cache_entries",
                "Live lookup-cache descriptors.",
                labels=("store",),
            )
            hit_rate = registry.gauge(
                "cache_hit_rate",
                "Lookup-cache hit rate since start.",
                labels=("store",),
            )
            cache = self._lookup_cache
            entries.labels(store=self._name).set_function(lambda: len(cache))
            hit_rate.labels(store=self._name).set_function(lambda: cache.hit_rate)
            events = registry.gauge(
                "cache_events",
                "Lookup-cache event counts since start "
                "(hits/misses/evictions/invalidations).",
                labels=("store", "event"),
            )
            for event in ("hits", "misses", "evictions", "invalidations"):
                events.labels(store=self._name, event=event).set_function(
                    lambda e=event: getattr(cache, e)
                )
        if self._tier is not None and self._tier.cache is not None:
            tier_cache = self._tier.cache
            specs = (
                ("tier_cache_entries", "Live hot-object cache entries.",
                 lambda: len(tier_cache)),
                ("tier_cache_bytes", "Bytes held by the hot-object cache.",
                 lambda: tier_cache.used_bytes),
                ("tier_cache_hit_rate",
                 "Hot-object cache hit rate since start.",
                 lambda: tier_cache.hit_rate),
                ("tier_cache_bytes_avoided",
                 "Fabric read bytes served from the hot-object cache.",
                 lambda: tier_cache.bytes_avoided),
            )
            for gauge_name, help_text, fn in specs:
                registry.gauge(
                    gauge_name, help_text, labels=("store",)
                ).labels(store=self._name).set_function(fn)

    # -- topology ---------------------------------------------------------------

    def connect_peer(self, handle: PeerHandle) -> None:
        if handle.name == self._name:
            raise ObjectStoreError("a store does not peer with itself")
        if handle.name in self._peers:
            raise ObjectStoreError(f"{self._name} already peers with {handle.name}")
        self._peers[handle.name] = handle

    def disconnect_peer(self, name: str) -> None:
        """Remove *name* from the metadata plane (it left the cluster).

        Cached descriptors homed there are purged in one pass; remote
        records without live references are dropped. Records still held by
        readers release locally — there is no peer left to un-pin at."""
        self._peers.pop(name, None)
        if self._lookup_cache is not None:
            self._lookup_cache.invalidate_node(name)
        if self._tier is not None and self._tier.cache is not None:
            # Payload bytes cached from the departed home may outlive any
            # NotifyDeleted it could no longer send — drop them wholesale.
            self._tier.cache.invalidate_home(name)
        stale = [
            oid
            for oid, record in self._remote_records.items()
            if record.home == name and record.local_refs == 0
        ]
        for oid in stale:
            del self._remote_records[oid]
        self.counters.peers_disconnected += 1

    def peers(self) -> list[str]:
        return sorted(self._peers)

    def peer(self, name: str) -> PeerHandle:
        try:
            return self._peers[name]
        except KeyError:
            raise ObjectStoreError(f"{self._name} has no peer {name!r}") from None

    @property
    def share_usage(self) -> bool:
        return self._share_usage

    @property
    def lookup_cache(self) -> LookupCache | None:
        return self._lookup_cache

    # -- tiering (repro.tier) -----------------------------------------------------

    def attach_tier(self, agent) -> None:
        """Arm the tiering plane: *agent* fronts every materialising fabric
        read with its hot-object cache and feeds the heat trackers the
        promotion/demotion engine plans from."""
        self._tier = agent

    @property
    def tier_agent(self):
        return self._tier

    # -- elastic placement (repro.placement) ------------------------------------

    def enable_placement(self) -> None:
        """Arm the placement plane; the cluster installs topology views
        (locally for the coordinator, via UpdateTopology RPCs for peers)."""
        self._placement = True

    @property
    def placement_enabled(self) -> bool:
        return self._placement

    def topology(self) -> TopologyView | None:
        return self._topology

    @property
    def topology_epoch(self) -> int:
        return self._topology.epoch if self._topology is not None else 0

    def placement_ring(self) -> HashRing | None:
        return self._ring

    def install_topology(self, view: TopologyView) -> bool:
        """Adopt *view* iff its epoch is newer than what we hold (replayed
        or re-ordered pushes are no-ops), rebuild the placement ring, and
        epoch-stamp the lookup cache so descriptors learned under the old
        topology are re-looked-up instead of trusted."""
        if not self._placement:
            raise ObjectStoreError(
                f"{self._name} was not built with placement enabled"
            )
        if self._topology is not None and view.epoch <= self._topology.epoch:
            self.counters.topology_stale_updates += 1
            return False
        self._topology = view
        self._ring = HashRing.from_view(view)
        if self._lookup_cache is not None:
            self._lookup_cache.set_epoch(view.epoch)
        if self._tier is not None and self._tier.cache is not None:
            # A topology change moves objects (drain migrations, crash
            # failovers) faster than per-object notifications can keep up;
            # the epoch bump is the wholesale invalidation channel.
            self._tier.cache.clear()
        self.counters.topology_installs += 1
        return True

    def placement_home(self, object_id: ObjectID) -> str | None:
        """Where a *new* object with this id belongs, or None for "create
        locally" (placement off, we are the home, or the home is not a
        connected peer)."""
        if self._ring is None:
            return None
        home = self._ring.home(object_id)
        if home == self._name or home not in self._peers:
            return None
        return home

    def forward_put(
        self,
        object_id: ObjectID,
        size: int,
        write,
        metadata: bytes,
        home: str,
        *,
        replicas: int = 1,
    ) -> bool:
        """Create a new object at its ring *home* instead of locally.

        Below the channel's cost crossover (``size * per_byte_ns <
        round_trip_ns``) ``write(view)`` fills a buffer on this node and
        one PlacedPut carries it: the home creates, writes, seals and
        replicates in that one call. At and above it, PlacedCreate
        allocates the extent at the home (header unsealed); ``write(window)``
        fills the extent in place through a fabric write window onto the
        home's exposed region (Fig 3b — bulk bytes never touch the LAN);
        PlacedSeal makes the home flush its stale cached lines and seal.
        Returns False when the home's metadata plane is unreachable — the
        caller degrades to a local create and the rebalancer re-homes the
        object later."""
        return drive(
            self.forward_put_task, object_id, size, write, metadata, home,
            replicas=replicas, loop=self._facade_loop(),
        )

    def forward_put_task(
        self,
        object_id: ObjectID,
        size: int,
        write,
        metadata: bytes,
        home: str,
        *,
        replicas: int = 1,
        attr=None,
        blocking: bool = False,
    ):
        """The one body of :meth:`forward_put`; its hops run the channel's
        unary body in this body's mode (blocking, or pipelined tasks). A
        small payload rides the create; a large one is written by the
        writer over the fabric between PlacedCreate and PlacedSeal."""
        handle = self.peer(home)
        channel = handle.stub.channel
        # One budget for the whole forwarded create: PlacedSeal is issued
        # with whatever the PlacedCreate hop and fabric write left of the
        # channel's default deadline, so a slow first hop shrinks the
        # second instead of resetting it.
        budget = DeadlineBudget.for_stub(handle.stub, self.clock)
        request = {
            "object_id": object_id.binary(),
            "data_size": size,
            "metadata": bytes(metadata),
        }
        inline = channel.inline_is_cheaper(size)
        if inline:
            payload = bytearray(size)
            write(memoryview(payload))
            request["payload"] = bytes(payload)
            request["replicas"] = int(replicas)
        try:
            response = yield from channel.unary_task(
                handle.stub.service,
                "PlacedPut" if inline else "PlacedCreate",
                request,
                attr=attr,
                blocking=blocking,
                **budget.kwargs(),
            )
        except RpcStatusError as exc:
            if exc.code is StatusCode.ALREADY_EXISTS:
                raise ObjectExistsError(
                    f"{object_id!r} already exists in home store {home}"
                ) from exc
            if not self._peer_unavailable(home, exc):
                raise
            if inline and exc.code is StatusCode.DEADLINE_EXCEEDED:
                # The put may have been sealed at the home before the
                # deadline ran out: a local create could leave a second
                # copy, so surface the outage instead.
                raise ObjectUnavailableError(
                    f"home store {home} did not confirm {object_id!r} "
                    "within the deadline",
                    unreachable_peers=(home,),
                ) from exc
            self.counters.placed_creates_fallback += 1
            return False
        if not inline:
            window, _ = handle.remote_region.write_window(int(response["offset"]), size)
            write(window)
            try:
                yield from channel.unary_task(
                    handle.stub.service,
                    "PlacedSeal",
                    {"object_id": object_id.binary(), "replicas": int(replicas)},
                    attr=attr,
                    blocking=blocking,
                    **budget.kwargs(),
                )
            except RpcStatusError as exc:
                if self._peer_unavailable(home, exc):
                    # The home died holding the unsealed extent (its restart
                    # recovery reclaims it), but the id is burned there — do
                    # NOT create locally; surface the outage instead.
                    raise ObjectUnavailableError(
                        f"home store {home} became unreachable while sealing "
                        f"{object_id!r}",
                        unreachable_peers=(home,),
                    ) from exc
                raise
        self.counters.placed_creates_forwarded += 1
        self.counters.placed_bytes_forwarded += size
        return True

    def placed_put(
        self,
        object_id: ObjectID,
        metadata: bytes,
        payload,
        replicas: int = 1,
    ) -> None:
        """Home side of a small forwarded put, in one call: create, write
        the carried payload as this CPU's own local write (charged as a
        local put's fill is), seal and replicate."""
        entry = self.create_object_unchecked(object_id, len(payload), metadata)
        self.counters.placed_creates_received += 1
        buffer = self.local_buffer(entry)
        buffer.charge_sequential_write()
        buffer.view()[:] = payload
        self._seal_and_replicate(object_id, replicas)

    def placed_create(
        self, object_id: ObjectID, data_size: int, metadata: bytes = b""
    ) -> int:
        """Home side of a placement-routed create: allocate (unsealed) and
        return the exposed-region offset the creator streams payload to.

        Whatever this CPU still caches over the payload range belongs to a
        previous tenant of the extent and is about to be overwritten from
        the fabric: it is dropped here (the same ``invalidate_exposed``
        :meth:`placed_seal` ends with), so the incoming write finds nothing
        resident and snapshots no old bytes (Fig 3b) that the seal would
        throw away one RPC later without anybody having observed them."""
        entry = self.create_object_unchecked(object_id, data_size, metadata)
        if data_size:
            self.endpoint.invalidate_exposed(entry.payload_offset, data_size)
        self.counters.placed_creates_received += 1
        return entry.payload_offset

    def placed_seal(self, object_id: ObjectID, replicas: int = 1) -> None:
        """Seal a placement-routed object after the creator's fabric write.

        The remote write left this CPU's cached lines over the extent stale
        (the Fig 3b staleness trap); ``invalidate_exposed`` models the
        paper's hypothetical kernel-module fix, so the seal-time CRC reads
        the bytes the creator actually wrote."""
        with self.table.lock:
            entry = self.table.lookup(object_id)
            if entry is None:
                raise ObjectNotFoundError(
                    f"{object_id!r} not found in {self._name}"
                )
            self.endpoint.invalidate_exposed(
                entry.allocation.offset,
                entry.allocation.padded_size,
            )
        self._seal_and_replicate(object_id, replicas)

    def _seal_and_replicate(self, object_id: ObjectID, replicas: int) -> None:
        """Seal a forwarded object and push its ``replicas - 1`` copies."""
        self.seal_object(object_id)
        for _ in range(max(0, int(replicas) - 1)):
            self.replicate_object(object_id)

    # -- live migration (repro.placement.migrate) -------------------------------

    def migration_descriptor(self, object_id: ObjectID) -> dict | None:
        """Source side: the wire descriptor MigratePrepare carries, or None
        if the object is no longer a migratable sealed primary."""
        with self.table.lock:
            entry = self.table.lookup(object_id)
            if entry is None or not entry.is_sealed or entry.quarantined:
                return None
            return {
                "object_id": object_id.binary(),
                "offset": entry.payload_offset,
                "data_size": entry.data_size,
                "metadata": entry.metadata,
            }

    def begin_adopt(
        self,
        source: str,
        object_id: ObjectID,
        offset: int,
        data_size: int,
        metadata: bytes = b"",
        holders=(),
    ) -> str:
        """Destination side of MigratePrepare: allocate a fresh extent (new
        integrity-header generation, header written *unsealed*) and pull
        the payload zero-copy from the source's exposed region. Returns
        ``'sealed'`` when a sealed copy already lives here (idempotent
        re-drive after a source crash, or a promoted replica), else
        ``'prepared'``."""
        with self.table.lock:
            existing = self.table.lookup(object_id)
            sealed_already = existing is not None and existing.is_sealed
        if sealed_already:
            self._replicas_of.pop(object_id, None)
            others = [h for h in holders if h != self._name]
            if others:
                self.record_replicas(object_id, others)
            self.counters.adoptions_already_sealed += 1
            return "sealed"
        if existing is not None:
            # Unsealed leftover of an earlier aborted migration: discard
            # the half-copy and pull afresh.
            self.abort_adopt(object_id)
        handle = self.peer(source)
        entry = self.create_object_unchecked(object_id, data_size, metadata)
        self._pull_payload(handle, entry, offset, data_size)
        self._pending_adoptions.add(object_id)
        others = [h for h in holders if h != self._name]
        if others:
            self.record_replicas(object_id, others)
        self.counters.adoptions_prepared += 1
        return "prepared"

    def commit_adopt(self, object_id: ObjectID) -> int:
        """Destination side of MigrateCommit: seal — payload CRC and in-region
        seal flag both happen under the table mutex, so the new descriptor
        becomes visible atomically. Idempotent for a re-sent commit;
        returns the new generation."""
        if object_id not in self._pending_adoptions:
            with self.table.lock:
                entry = self.table.lookup(object_id)
                if entry is not None and entry.is_sealed:
                    return entry.generation
            raise ObjectNotFoundError(
                f"{self._name} has no pending migration for {object_id!r}"
            )
        entry = self.seal_object(object_id)
        self._pending_adoptions.discard(object_id)
        self.counters.adoptions_committed += 1
        return entry.generation

    def abort_adopt(self, object_id: ObjectID) -> None:
        """Drop an unsealed adoption (never published, so never referenced);
        retire-before-free keeps any racing fabric reader typed-failing."""
        with self.table.lock:
            entry = self.table.lookup(object_id)
            if entry is None or entry.is_sealed:
                self._pending_adoptions.discard(object_id)
                return
            self._retire_and_free(entry)
        self._pending_adoptions.discard(object_id)
        self.counters.adoptions_aborted += 1

    def retire_migrated(self, object_id: ObjectID) -> bool:
        """Source side, after a committed migration: retire the local copy
        via the retire-before-free path (generation bump + seal-flag clear
        *before* the extent returns to the allocator), so an in-flight
        remote reader fails typed and re-looks-up at the new home. A copy
        pinned by readers is deferred instead of yanked; returns True when
        the copy is gone, False when deferred."""
        with self.table.lock:
            entry = self.table.lookup(object_id)
            if entry is None:
                self._deferred_retires.discard(object_id)
                return True
            if entry.total_refs > 0:
                if object_id not in self._deferred_retires:
                    self._deferred_retires.add(object_id)
                    self.counters.migration_retires_deferred += 1
                return False
            self._retire_and_free(entry)
        self._deferred_retires.discard(object_id)
        self._replicated_to.pop(object_id, None)
        drive(
            self._announce_deleted_task,
            [object_id],
            *self._deletion_plan([object_id], broadcast=True),
        )
        self._notify(object_id, entry.data_size, deleted=True)
        self.counters.objects_migrated_out += 1
        self.counters.bytes_migrated_out += entry.data_size
        return True

    def flush_deferred_retires(self) -> int:
        """Retry deferred source retirements (rebalancer tick); returns how
        many copies were actually freed."""
        done = 0
        for oid in sorted(self._deferred_retires):
            if self.retire_migrated(oid):
                done += 1
        return done

    def deferred_retires(self) -> frozenset:
        return frozenset(self._deferred_retires)

    # -- sharer sets ------------------------------------------------------------------

    def seal_object(self, object_id: ObjectID) -> ObjectEntry:
        entry = super().seal_object(object_id)
        if self._notify_deletions:
            self._sharers[object_id] = set()
        return entry

    # -- id uniqueness across the system (paper §IV-A2) ---------------------------------

    def _peer_unavailable(self, name: str, exc: RpcStatusError) -> bool:
        """True (and counted) iff *exc* means the peer's metadata plane is
        unreachable — its process is down (UNAVAILABLE, possibly fast-failed
        by an open circuit breaker) or it cannot answer within the deadline.
        Data in its exposed memory stays reachable over the fabric; only the
        metadata plane is skipped."""
        if exc.code in _UNREACHABLE:
            self.counters.peers_unavailable += 1
            return True
        return False

    def check_id_available(self, object_id: ObjectID) -> None:
        super().check_id_available(object_id)
        if not self._check_remote_uniqueness:
            return
        payload = {"object_ids": [object_id.binary()]}
        for name in self.peers():
            try:
                response = self._peers[name].stub.Contains(payload)
            except RpcStatusError as exc:
                # A down peer cannot answer; creation proceeds on the
                # surviving quorum (documented weakening, like any
                # availability/consistency trade).
                if self._peer_unavailable(name, exc):
                    continue
                raise
            if any(response.get("present", [])):
                raise ObjectExistsError(
                    f"{object_id!r} already exists in peer store {name}"
                )

    def reserve_ids(self, object_ids: list[ObjectID]) -> None:
        """Batched uniqueness check: one Contains RPC per peer for the whole
        batch — the amortised variant producers use for bulk commits."""
        with self.table.lock:
            for oid in object_ids:
                if self.table.contains(oid):
                    raise ObjectExistsError(f"{oid!r} already exists in {self._name}")
        if not self._check_remote_uniqueness or not object_ids:
            return
        payload = {"object_ids": [oid.binary() for oid in object_ids]}
        for name in self.peers():
            try:
                response = self._peers[name].stub.Contains(payload)
            except RpcStatusError as exc:
                if self._peer_unavailable(name, exc):
                    continue
                raise
            present = response.get("present", [])
            for oid, hit in zip(object_ids, present):
                if hit:
                    raise ObjectExistsError(
                        f"{oid!r} already exists in peer store {name}"
                    )

    # -- the remote retrieval path (paper Fig 5) --------------------------------------------

    def get_buffers(
        self, object_ids: list[ObjectID], allow_missing: bool = False
    ) -> list[PlasmaBuffer]:
        """Resolve ids to buffers, local or remote, adding references.

        Local ids resolve against the table; unknown ids go through the
        lookup cache (if enabled), then batched per-peer Lookup RPCs, then
        ThymesisFlow-backed buffers. Raises
        :class:`~repro.common.errors.ObjectNotFoundError` if any id resolves
        nowhere — unless ``allow_missing`` is set, in which case unresolved
        positions come back as ``None``. Observed as a Get: a
        ``plasma_get_latency_ns`` sample and, unless the event loop drives
        the body, a ``store/get_buffers`` span (the sink's single open-root
        stack cannot follow a task across suspensions).
        """
        if not object_ids:
            return []
        loop = self._facade_loop()
        m_get = self._m_get
        start_ns = self.clock.now_ns if m_get is not None else 0
        scope = _UNOBSERVED
        spans = self.spans
        if spans is not None and loop is None:
            args = {"n": len(object_ids)}
            rid = self.correlation.current if self.correlation else None
            if rid is not None:
                args["rid"] = rid
            scope = spans.span("store", "get_buffers", self.node, args)
        try:
            with scope:
                return drive(
                    self.get_buffers_task, object_ids, allow_missing, loop=loop
                )
        finally:
            if m_get is not None:
                m_get.observe(self.clock.now_ns - start_ns)

    def get_buffers_task(
        self,
        object_ids: list[ObjectID],
        allow_missing: bool = False,
        attr=None,
        blocking: bool = False,
    ):
        """The one body of :meth:`get_buffers`. The local table and
        tier-cache scans are instant; unresolved ids are looked up and
        pinned by the fan-outs *blocking* selects for this invocation: peer
        by peer, or concurrent (scatter-gather, optionally hedged) batched
        Lookups and a gathered AddRef pin. A Get that raises first gives
        back every reference it took."""
        buffers: dict[ObjectID, PlasmaBuffer | None] = {}
        taken: list = []  # (release, id) per reference held so far
        missing: list[ObjectID] = []
        found_local = found_remote = served_cached = 0
        try:
            with self.table.lock:
                for oid in object_ids:
                    entry = self.table.lookup(oid)
                    if entry is not None:
                        found_local += 1
                        if not entry.is_sealed:
                            if allow_missing:
                                buffers[oid] = None
                                continue
                            raise ObjectNotFoundError(
                                f"{oid!r} exists locally but is not sealed"
                            )
                        self.table.add_ref(oid)
                        taken.append((self.release_ref, oid))
                        buffers[oid] = self.local_buffer(entry)
                        if self._tier is not None:
                            self._tier.note_local_get(oid)
                    else:
                        missing.append(oid)
            if missing and self._tier is not None and self._notify_deletions:
                # Pre-resolution fast path: a cached incarnation can be
                # served without touching the home at all — no Lookup, no
                # AddRef/ReleaseRef round trips, no fabric stream. Sound only
                # because deletes and evictions *push* NotifyDeleted to every
                # peer that resolved the descriptor from the store that will
                # push it (hence the gate), so anything still cached is live.
                unresolved: list[ObjectID] = []
                for oid in missing:
                    if oid in self._remote_records:
                        # A held handle pinned this incarnation at its home;
                        # keep the resolving path's refcounts authoritative.
                        unresolved.append(oid)
                        continue
                    hit = self._tier.serve_cached(oid)
                    if hit is None:
                        unresolved.append(oid)
                        continue
                    _, payload, home = hit
                    buffers[oid] = self._cache_served_buffer(oid, payload, home)
                    self._tier.note_served(oid)
                    taken.append((self._tier.release_served, oid))
                    self._tier.note_remote_get(oid)
                    served_cached += 1
                missing = unresolved
            if missing:
                records = yield from self._resolve_remote_task(
                    missing, allow_missing, attr, blocking
                )
                newly_pinned: dict[str, list[ObjectID]] = {}
                for oid in missing:
                    record = records.get(oid)
                    if record is None:
                        buffers[oid] = None  # allow_missing guaranteed by resolve
                        continue
                    if record.local_refs == 0 and self._share_usage:
                        newly_pinned.setdefault(record.home, []).append(oid)
                    record.local_refs += 1
                    taken.append((self.release_object, oid))
                    buffers[oid] = self._remote_buffer(record)
                    found_remote += 1
                    if self._tier is not None:
                        self._tier.note_remote_get(oid)
                yield from self._pin_at_home_task(newly_pinned, attr, blocking)
        except Exception:
            for release, oid in reversed(taken):
                with suppress(RpcStatusError):  # an unreachable home keeps its pin
                    release(oid)
            for oid in missing:
                record = self._remote_records.get(oid)
                if record is not None and record.local_refs == 0:
                    del self._remote_records[oid]  # claimed, never referenced
            raise
        self.counters.gets_local += found_local
        self.counters.gets_remote += found_remote
        if served_cached:
            self.counters.gets_cache_served += served_cached
        return [buffers[oid] for oid in object_ids]

    def _resolve_remote_task(
        self,
        object_ids: list[ObjectID],
        allow_missing: bool = False,
        attr=None,
        blocking: bool = False,
    ):
        """Ids to remote records: held records, then the lookup cache, then
        the peers (:meth:`_rpc_lookup_task`)."""
        resolved: dict[ObjectID, RemoteObjectRecord] = {}
        unresolved: list[ObjectID] = []
        for oid in object_ids:
            record = self._remote_records.get(oid)
            if record is None and self._lookup_cache is not None:
                record = self._lookup_cache.get(oid)
                if record is not None:
                    self._remote_records[oid] = record
                    self.counters.lookup_cache_hits += 1
            if record is not None:
                resolved[oid] = record
            else:
                unresolved.append(oid)
        if unresolved:
            unreachable: list[str] = []
            still = yield from self._rpc_lookup_task(
                unresolved, resolved, unreachable, attr, blocking
            )
            if still and not allow_missing:
                detail = ", ".join(repr(oid) for oid in still[:5])
                if unreachable:
                    # The ids may well exist — on the peers we could not
                    # reach. Typed so callers can tell an outage from a
                    # genuinely absent object (and retry after recovery).
                    raise ObjectUnavailableError(
                        f"{len(still)} object(s) unresolved while peer(s) "
                        f"{', '.join(unreachable)} are unreachable: {detail}",
                        unreachable_peers=tuple(unreachable),
                    )
                raise ObjectNotFoundError(
                    f"{len(still)} object(s) not found anywhere: " + detail
                )
        return resolved

    def _rpc_lookup_task(
        self,
        object_ids: list[ObjectID],
        resolved: dict[ObjectID, RemoteObjectRecord],
        unreachable: list[str],
        attr=None,
        blocking: bool = False,
    ):
        """Ask the peers for *object_ids*, one sweep over the order
        :meth:`_probe_order` gives; returns the ids nobody claimed. Peers
        whose metadata plane cannot answer (down, breaker-open, past
        deadline) are skipped and collected into *unreachable*; so is a peer
        shedding under overload — its objects may well exist, so unresolved
        ids surface as the typed outage rather than not-found.

        A task first asks the ring homes concurrently, each hedged to the
        next peer after the channel's ``hedge_stagger_ns`` (losers run out
        harmlessly — Lookup is idempotent); the sweep then never goes back
        to a home that answered no (one that failed, or lost its hedge
        race, is asked again like any other peer) — any peer might hold a
        replica, and the ring view might be stale.

        A blocking sweep waits on a non-final peer only for the channel's
        hedge delay (a configured quantile of its observed latency), if
        hedging is configured: on expiry it moves straight to the next
        holder, and ids still unresolved at the end are retried once at the
        hedged (slow, not dead) peers with the full deadline — hedging
        trades tail latency for duplicate work, never availability."""
        remaining = list(object_ids)
        by_home, peers = self._probe_order(remaining)
        said_no: dict[str, list[ObjectID]] = {}
        if by_home and not blocking:
            loop = self._aio_loop
            homes = sorted(by_home)
            probes = [
                loop.spawn(
                    self._probe_peer_task(
                        home, by_home[home], resolved, unreachable, attr
                    ),
                    name=("lookup", home),
                )
                for home in homes
            ]
            results = yield loop.gather(probes)
            for home, result in zip(homes, results):
                if isinstance(result, BaseException):
                    raise result
                if result:
                    said_no[home] = by_home[home]
            remaining = [oid for oid in object_ids if oid not in resolved]
        hedged: list[str] = []
        last = len(peers) - 1
        for index, name in enumerate(peers):
            if not remaining:
                break
            asked = said_no.get(name)
            ids = (
                remaining
                if asked is None
                else [oid for oid in remaining if oid not in asked]
            )
            if not ids:
                continue
            hedge_ns = None
            if blocking and index < last:
                hedge_ns = self._peer_channel(name).hedge_delay_ns()
            unclaimed = yield from self._lookup_peer_task(
                name, ids, resolved, unreachable, attr,
                blocking=blocking, hedged=hedged, hedge_ns=hedge_ns,
            )
            if len(unclaimed) != len(ids):
                remaining = [oid for oid in remaining if oid not in resolved]
        if remaining and hedged:
            self.counters.lookup_hedge_losses += 1
            for name in hedged:
                if not remaining:
                    break
                remaining = yield from self._lookup_peer_task(
                    name, remaining, resolved, unreachable, attr, blocking=blocking
                )
        return remaining

    def _probe_order(
        self, object_ids: list[ObjectID]
    ) -> tuple[dict[str, list[ObjectID]], list[str]]:
        """Who a Lookup of *object_ids* asks, in which order, in either
        mode. Returns the ids grouped under their ring home (placement on,
        home a connected peer other than us) and every peer: those homes
        first, then the rest, each part in ``peers()`` order. Without a
        ring, that is just ``peers()``."""
        peers = self.peers()
        ring = self._ring
        if ring is None:
            return {}, peers
        by_home: dict[str, list[ObjectID]] = {}
        for oid in object_ids:
            home = ring.home(oid)
            if home != self._name and home in self._peers:
                by_home.setdefault(home, []).append(oid)
        if not by_home:
            return by_home, peers
        return by_home, [name for name in peers if name in by_home] + [
            name for name in peers if name not in by_home
        ]

    def _probe_peer_task(
        self,
        name: str,
        ids: list[ObjectID],
        resolved: dict,
        unreachable: list[str],
        attr=None,
    ):
        """One targeted probe, hedged: race the home's Lookup against a
        staggered backup probe at the next peer. Returns whether the home
        itself answered."""
        loop = self._aio_loop
        stagger = self._peer_channel(name).hedge_stagger_ns
        backup = None
        if stagger > 0:
            peers = self.peers()
            candidate = peers[(peers.index(name) + 1) % len(peers)]
            if candidate != name:
                backup = candidate
        primary = loop.spawn(
            self._lookup_peer_task(name, ids, resolved, unreachable, attr),
            name=("probe", name),
        )
        if backup is None:
            yield primary
            return name not in unreachable
        hedge = loop.spawn(
            self._hedge_probe_task(stagger, backup, ids, resolved, primary),
            name=("hedge", backup),
        )
        race_start_ns = self.clock.now_ns
        index, outcome = yield loop.race([primary, hedge])
        if attr is not None:
            # Only the wait *past* the stagger ran in hedged territory; a
            # primary that answers inside the stagger is ordinary lookup
            # time and charges nothing to the hedge bucket.
            attr.hint(
                "hedge",
                max(0.0, self.clock.now_ns - race_start_ns - stagger),
            )
        if isinstance(outcome, BaseException):
            raise outcome
        if index == 1:
            self.counters.lookup_hedge_wins += 1
            return False
        return name not in unreachable

    def _hedge_probe_task(self, stagger_ns, name, ids, resolved, primary):
        """The backup half of a hedged probe: wait out the stagger; if the
        primary has not answered, fire the same Lookup at the next peer.
        Never marks anyone unreachable — it is a latency hedge, not a
        failure detector."""
        yield Sleep(stagger_ns)
        if primary.future.done():
            return list(ids)
        self._peer_channel(name).task_counters.hedges_fired += 1
        self.counters.lookup_hedges_fired += 1
        result = yield from self._lookup_peer_task(
            name, ids, resolved, None, None
        )
        return result

    def _lookup_peer_task(
        self,
        name: str,
        remaining: list[ObjectID],
        resolved: dict[ObjectID, RemoteObjectRecord],
        unreachable: list[str] | None,
        attr=None,
        *,
        blocking: bool = False,
        hedged: list[str] | None = None,
        hedge_ns: float | None = None,
    ):
        """Probe one peer with a batched Lookup; returns the ids it did not
        claim. A task's Lookup goes through the peer channel's coalescing
        buffer (sharing a wire message with any other lookup landing within
        the batch window); a blocking one is a unary call, clamped to
        *hedge_ns* when given — a clamped probe that runs out is the hedge
        firing, and the peer goes on *hedged*, not on *unreachable*."""
        wire_ids = [oid.binary() for oid in remaining]
        stub = self._peers[name].stub
        try:
            if not blocking:
                response = yield stub.channel.batched_call(
                    stub.service, "Lookup", wire_ids, attr=attr
                )
            else:
                # Time burned waiting on a hedge-clamped probe is the cost
                # of the hedging policy, not ordinary service — attribute
                # every ns of this attempt to "hedge".
                scope = (
                    self.spans.component("hedge")
                    if hedge_ns is not None and self.spans is not None
                    else _UNOBSERVED
                )
                with scope:
                    response = yield from stub.channel.unary_task(
                        stub.service,
                        "Lookup",
                        {"object_ids": wire_ids},
                        deadline_ns=hedge_ns,
                        blocking=True,
                    )
        except ServerOverloadedError:
            if hedge_ns is not None:
                # Shed *under the hedge clamp*: the server refused work it
                # could not finish inside the hedge window. That is the
                # hedge firing, not an outage — the peer stays eligible
                # for the full-deadline retry after the sweep.
                self.counters.lookup_hedges_fired += 1
                hedged.append(name)
                return remaining
            # The peer is alive but shedding load; back off rather than
            # fail over (the channel's breaker/retry budget already did
            # their part).
            self.counters.lookups_shed += 1
            if unreachable is not None and name not in unreachable:
                unreachable.append(name)
            return remaining
        except RpcStatusError as exc:
            if hedge_ns is not None and exc.code is StatusCode.DEADLINE_EXCEEDED:
                # The hedge fired: this peer is slow, not dead — it is NOT
                # marked unreachable. The sweep hedges to the next holder;
                # this abandoned attempt is the cancelled one.
                self.counters.lookup_hedges_fired += 1
                hedged.append(name)
                return remaining
            # A down peer's objects are unreachable by lookup (their bytes
            # survive in exposed memory, but nobody can resolve ids to
            # offsets) — skip it and keep serving. An open circuit breaker
            # takes this same path, at ~1 us instead of a full timed-out
            # round trip.
            if self._peer_unavailable(name, exc):
                if unreachable is not None and name not in unreachable:
                    unreachable.append(name)
                return remaining
            raise
        claimed = self._claim_found(name, response, resolved)
        if hedged and claimed:
            # An answer arrived from a holder reached only because an
            # earlier hedge fired — the hedge won the race.
            self.counters.lookup_hedge_wins += 1
        return [oid for oid in remaining if oid not in claimed]

    def _claim_found(
        self,
        name: str,
        response: dict,
        resolved: dict[ObjectID, RemoteObjectRecord],
    ) -> set[ObjectID]:
        """Register every descriptor *name* answered a Lookup with (live
        record, lookup cache, *resolved*); returns the ids it claimed."""
        self.counters.lookup_rpcs += 1
        claimed: set[ObjectID] = set()
        for descriptor in response.get("found", []):
            record = RemoteObjectRecord.from_descriptor(name, descriptor)
            self._remote_records[record.object_id] = record
            if self._lookup_cache is not None:
                self._lookup_cache.put(record)
            resolved[record.object_id] = record
            claimed.add(record.object_id)
        return claimed

    def _pull_payload(self, handle, entry, offset: int, data_size: int) -> None:
        """Bulk-pull a peer object's payload into a fresh local extent
        (migration adoption, replica materialisation, tier promotion all
        come through here), straight into the extent's window: one copy.
        The pull runs inline inside an RPC dispatch in either mode, so it is
        one ``view + charge_read`` lump, then one local-write charge."""
        buffer = self.local_buffer(entry)
        payload = handle.remote_region.view(offset, data_size)
        handle.remote_region.charge_read(data_size)
        buffer.view()[:] = payload
        buffer.charge_sequential_write()

    def _remote_buffer(self, record: RemoteObjectRecord) -> PlasmaBuffer:
        handle = self.peer(record.home)
        source = RemoteBufferSource(
            handle.remote_region, record.offset, self._integrity_for(record)
        )
        if self._tier is not None and self._tier.cache is not None:
            source = TierBufferSource(
                source, record, handle.remote_region, self._tier, self
            )
        return PlasmaBuffer(
            record.object_id,
            source,
            record.data_size,
            sealed=True,
            metadata=record.metadata,
        )

    def _cache_served_buffer(
        self, object_id: ObjectID, payload, home: str
    ) -> PlasmaBuffer:
        """A handle over a cache-resident payload (the pre-resolution fast
        path); reads charge the local-copy model and credit the home
        link with the fabric stream they replaced."""
        handle = self._peers.get(home)
        link = handle.remote_region.aperture.link if handle is not None else None
        source = CachedBufferSource(payload, home, self._tier, self, link)
        return PlasmaBuffer(
            object_id, source, len(payload), sealed=True
        )

    def _integrity_for(
        self, record: RemoteObjectRecord
    ) -> RemoteReadIntegrity | None:
        """The validation context a fabric read of *record* runs under, or
        None when the home store writes no headers / validation is off."""
        if not self.config.verify_remote_reads or not record.header_size:
            return None
        return RemoteReadIntegrity(
            object_id=record.object_id.binary(),
            generation=record.generation,
            header_size=record.header_size,
            payload_crc=record.payload_crc,
            verify_checksum=self.config.verify_checksum_on_read,
            checksum_ns_per_byte=self.config.checksum_ns_per_byte,
            clock=self.clock,
            refresh=lambda oid=record.object_id: self._refresh_stale(oid),
        )

    def _refresh_stale(self, object_id: ObjectID) -> tuple | None:
        """A validated fabric read hit a stale header: drop every cached
        descriptor for *object_id* (satisfying the lost-NotifyDeleted case —
        generation mismatch is the backstop invalidation signal), re-Lookup
        once, and hand the reader a fresh read target. Returns
        ``(remote_region, payload_offset, integrity)`` or None if nobody
        claims the id anymore."""
        self.counters.stale_descriptor_refreshes += 1
        # The stale record stays registered until the re-lookup succeeds, so
        # held buffers release cleanly even when the object is gone for
        # good; the *cache* entry goes immediately — it is proven wrong.
        old = self._remote_records.get(object_id)
        if self._lookup_cache is not None:
            self._lookup_cache.invalidate(object_id)
        if self._tier is not None and self._tier.cache is not None:
            # The generation moved on; entries keyed by the old one can
            # never hit again — reclaim their bytes now.
            self._tier.cache.invalidate(object_id)
        resolved: dict[ObjectID, RemoteObjectRecord] = {}
        try:
            drive(self._rpc_lookup_task, [object_id], resolved, [])
        except RpcStatusError:
            return None
        record = resolved.get(object_id)
        if record is None:
            return None
        if old is not None:
            # The stale record's handles keep working against the fresh
            # incarnation; re-pin at the (possibly different) home.
            record.local_refs = old.local_refs
            if old.local_refs and self._share_usage:
                try:
                    self._peers[record.home].stub.AddRef(
                        {"object_ids": [object_id.binary()]}
                    )
                    record.pinned_at_home = True
                except RpcStatusError:
                    pass
        self._remote_records[object_id] = record
        handle = self.peer(record.home)
        return handle.remote_region, record.offset, self._integrity_for(record)

    def _pin_at_home_task(
        self, by_home: dict[str, list[ObjectID]], attr=None, blocking: bool = False
    ):
        """Pin newly referenced records at their homes: one AddRef per home
        listing its ids, home by home (*blocking*, stopping at the first
        error) or gathered. Every home that granted its pin is recorded
        before the first failure is raised, so the caller's release gives
        each one back; an id that vanished since its lookup surfaces as
        not-found so the client can retry cleanly."""
        if not by_home:
            return
        homes = sorted(by_home)
        calls = [
            (self._peers[home].stub, "AddRef", [oid.binary() for oid in by_home[home]])
            for home in homes
        ]
        outcomes = yield from fan_out(
            calls, blocking=blocking, loop=self._aio_loop, attr=attr
        )
        failure = None
        for home, outcome in zip(homes, outcomes):
            if isinstance(outcome, BaseException):
                failure = failure or outcome
                continue
            for oid in by_home[home]:
                self._remote_records[oid].pinned_at_home = True
            self.counters.addref_rpcs += 1
        if isinstance(failure, RpcStatusError) and failure.code is StatusCode.NOT_FOUND:
            raise ObjectNotFoundError(str(failure)) from failure
        if failure is not None:
            raise failure

    # -- one body, two drivers (repro.rpc.aio) ----------------------------------------
    #
    # get_buffers, forward_put and delete_object each have ONE body, a
    # generator taking ``blocking`` (their ``*_task`` form), and so do the
    # fan-outs beneath them: the lookup, the AddRef pin and the deletion
    # push. Tasks ``yield from`` a body; a synchronous caller hands it to
    # repro.rpc.drive.drive(), which spawns it on the loop _facade_loop()
    # names (async-mode facades) and otherwise runs it inline, where every
    # per-peer call blocks in turn (repro.rpc.drive.fan_out). The blocking
    # form serves both modes: the eviction round (_announce_evicted, inside
    # an allocation), retire_migrated, quarantine_object, revoke_replicas
    # (inside a handler) and _refresh_stale (inside a buffer read) cannot
    # suspend, so they drive the deletion push or the lookup inline whatever
    # the mode (docs/architecture.md, "Async RPC core").

    def attach_aio(self, loop, *, async_mode: bool = False) -> None:
        """Wire the cluster-wide event loop; *async_mode* makes the sync
        facades drive their bodies on it (``rpc_mode="async"``). Attaching
        draws nothing and changes nothing observable in sync mode."""
        self._aio_loop = loop
        self._rpc_async = bool(async_mode)

    def set_rpc_async(self, enabled: bool) -> None:
        """Flip this store between sync facades and event-loop task forms."""
        if enabled and self._aio_loop is None:
            raise ObjectStoreError(
                f"{self._name} has no event loop attached (attach_aio first)"
            )
        self._rpc_async = bool(enabled)

    @property
    def rpc_async(self) -> bool:
        return self._rpc_async

    def _facade_loop(self):
        """The one loop-vs-inline decision, made per invocation: the event
        loop a synchronous facade should run its body on, or None to run
        it inline. A loop only in async mode, and only while we are *not*
        already inside a task (a facade called from task code blocks inline
        instead; re-entering the loop driver from one of its own handlers
        is not safe)."""
        loop = self._aio_loop
        if self._rpc_async and loop is not None and not loop.driving:
            return loop
        return None

    def _peer_channel(self, name: str):
        """The :class:`~repro.rpc.channel.Channel` under the peer's stub."""
        return self._peers[name].stub.channel

    def delete_object_task(
        self, object_id: ObjectID, attr=None, blocking: bool = False
    ):
        """The one body of :meth:`delete_object`: the local unlink is
        instant; then every replica holder hears ``DropReplica`` and every
        other peer that resolved the object here ``NotifyDeleted`` (see
        :meth:`_deletion_plan`), peer by peer (*blocking*) or as one
        gather."""
        PlasmaStore.delete_object(self, object_id)
        notify, drop = self._deletion_plan(
            [object_id], self._pop_replica_holders(object_id)
        )
        yield from self._announce_deleted_task(
            [object_id], notify, drop, attr, blocking
        )
        self._replicas_of.pop(object_id, None)

    # -- replication for failover reads (degraded-mode extension) ------------------------------

    def replicate_object(self, object_id: ObjectID, peer_name: str | None = None) -> str | None:
        """Push a copy of a local sealed object to one peer (home side).

        Sends only the *descriptor* over RPC; the peer pulls the payload
        through the ThymesisFlow fabric (see ``StoreService.Replicate``).
        The peer is chosen deterministically from the object id unless
        given, skipping peers that already hold a copy. Returns the replica
        holder's name, or None if the chosen peer was unavailable —
        replication degrades rather than failing the write (documented
        weakening: the object simply has one copy fewer until re-put).
        """
        with self.table.lock:
            entry = self.get_sealed_entry(object_id)
            offset = entry.payload_offset
            data_size = entry.data_size
            metadata = entry.metadata
        existing = self._replicated_to.get(object_id, ())
        candidates = [name for name in self.peers() if name not in existing]
        if not candidates:
            raise ObjectStoreError(
                f"{self._name} has no peer left to replicate {object_id!r} to"
            )
        if peer_name is None:
            stable = int.from_bytes(object_id.binary()[:4], "big")
            peer_name = candidates[stable % len(candidates)]
        elif peer_name not in candidates:
            raise ObjectStoreError(
                f"cannot replicate {object_id!r} to {peer_name!r} "
                "(unknown peer or already a replica holder)"
            )
        try:
            self._peers[peer_name].stub.Replicate(
                {
                    "source": self._name,
                    "object_id": object_id.binary(),
                    "offset": offset,
                    "data_size": data_size,
                    "metadata": metadata,
                }
            )
        except RpcStatusError as exc:
            if self._peer_unavailable(peer_name, exc):
                self.counters.replicas_skipped += 1
                return None
            raise
        self._replicated_to[object_id] = existing + (peer_name,)
        self.counters.replicas_created += 1
        return peer_name

    def create_replica(
        self,
        source: str,
        object_id: ObjectID,
        offset: int,
        data_size: int,
        metadata: bytes = b"",
    ) -> None:
        """Materialise a replica of *source*'s object locally (replica side).

        Allocates like any local object, pulls the payload over the fabric
        from the source's exposed region (charged as a streaming remote
        read + a local write), seals it, and records its provenance. The
        replica then answers Lookup RPCs like any sealed object, which is
        exactly what makes failover reads work when the home store dies.
        """
        handle = self.peer(source)
        entry = self.create_object_unchecked(object_id, data_size, metadata)
        self._pull_payload(handle, entry, offset, data_size)
        self.seal_object(object_id)
        self._replicas_of[object_id] = source
        self.counters.replicas_held += 1

    def revoke_replicas(self, object_ids: list[ObjectID], caller: str | None) -> None:
        """Whoever hands out a descriptor revokes it: the home deleted
        objects we hold replicas of (``DropReplica``), so every peer that
        resolved one of those replicas *here* hears ``NotifyDeleted`` now —
        the deleting home (*caller*) excepted, and whether or not the copy
        can be dropped (a pinned replica keeps its bytes, not its
        sharers). A blocking call from inside the handler, under either
        driver; an unreachable sharer is tolerated like any deletion push."""
        if not self._notify_deletions:
            return  # the home broadcasts: no sharer sets exist anywhere
        with self.table.lock:
            held = [
                oid
                for oid in object_ids
                if oid in self._replicas_of and self.table.contains(oid)
            ]
        if not held:
            return
        notify, _ = self._deletion_plan(held)
        for oid in held:
            self._sharers[oid] = set()  # everyone who knew has been told
        notify = [(name, ids) for name, ids in notify if name != caller]
        if notify:
            # No ids of its own: the home counts the announcement, and
            # there is nothing to drop.
            drive(self._announce_deleted_task, (), notify, [])
            self.counters.replica_revocations += len(notify)

    def drop_replicas(self, object_ids: list[ObjectID]) -> int:
        """Best-effort removal of local replicas (the home store deleted the
        originals). In-use replicas survive until their readers release
        them; returns how many were dropped."""
        dropped = 0
        for oid in object_ids:
            if oid not in self._replicas_of:
                continue
            with self.table.lock:
                entry = self.table.lookup(oid)
                if entry is None:
                    del self._replicas_of[oid]
                    continue
                if entry.total_refs > 0:
                    continue
                self._retire_and_free(entry)
            del self._replicas_of[oid]
            self._sharers.pop(oid, None)
            self._notify(oid, entry.data_size, deleted=True)
            self.counters.replicas_dropped += 1
            dropped += 1
        return dropped

    def replica_locations(self, object_id: ObjectID) -> tuple[str, ...]:
        """Peers holding copies of our *object_id* (home side)."""
        return self._replicated_to.get(object_id, ())

    def record_replicas(self, object_id: ObjectID, holders) -> None:
        """Reconcile home-side replica book-keeping with observed reality.

        The replica map is process state, so a crash wipes it even though
        the replicas themselves survive on their holders. The scrubber's
        cross-check rediscovers them with Lookup probes and writes the
        truth back here, so ``replicate_object`` never double-places."""
        self._replicated_to[object_id] = tuple(dict.fromkeys(holders))

    def is_replica(self, object_id: ObjectID) -> bool:
        """Is our local *object_id* a copy of some peer's object?"""
        return object_id in self._replicas_of

    def _pop_replica_holders(self, object_id: ObjectID) -> list[str]:
        """Forget and return the peers recorded as holding copies of our
        *object_id*. A holder that left the cluster (remove_node disconnects
        the peer) took its copy with it — nothing to drop there."""
        return [
            name
            for name in self._replicated_to.pop(object_id, ())
            if name in self._peers
        ]

    # -- integrity: quarantine ------------------------------------------------------------------

    def quarantine_object(self, object_id: ObjectID) -> ObjectEntry:
        """Quarantine locally and stop advertising the corrupt object to
        peers (Lookup no longer answers it; cache invalidation push)."""
        entry = super().quarantine_object(object_id)
        drive(
            self._announce_deleted_task,
            [object_id],
            *self._deletion_plan([object_id], broadcast=True),
        )
        return entry

    # -- reference management spanning nodes ---------------------------------------------------

    def release_object(self, object_id: ObjectID) -> None:
        """Release one reference, local or remote."""
        record = self._remote_records.get(object_id)
        if record is None:
            if self._tier is not None and self._tier.release_served(object_id):
                return  # a cache-served buffer: no table entry, no record
            self.release_ref(object_id)
            return
        if record.local_refs <= 0:
            raise ObjectStoreError(
                f"release of remote {object_id!r} without a matching reference"
            )
        record.local_refs -= 1
        if record.local_refs == 0:
            if record.pinned_at_home:
                # The home may have been removed from the cluster while the
                # reader held the buffer; the local release still completes.
                if record.home in self._peers:
                    self._peers[record.home].stub.ReleaseRef(
                        {"object_ids": [object_id.binary()]}
                    )
                    self.counters.releaseref_rpcs += 1
                record.pinned_at_home = False
            # Drop the live record; the descriptor may survive in the
            # lookup cache for future requests.
            del self._remote_records[object_id]

    def remote_record(self, object_id: ObjectID) -> RemoteObjectRecord | None:
        return self._remote_records.get(object_id)

    # -- deletion/eviction notifications (cache invalidation) ------------------------------------

    def add_sharer(self, object_id: ObjectID, caller: str | None) -> None:
        """A Lookup handed *caller* our descriptor of *object_id*: it must
        hear when the object goes. An unnamed caller makes the set unknown
        (everyone is told); an object without a set stays unknown."""
        sharers = self._sharers.get(object_id)
        if sharers is None:
            return
        if caller is None:
            del self._sharers[object_id]
        else:
            sharers.add(caller)

    def _deletion_plan(
        self, object_ids: list[ObjectID], holders=(), *, broadcast: bool = False
    ) -> tuple[list[tuple[str, list[ObjectID]]], list[str]]:
        """Who is told that *object_ids* left this store, about which of
        them, and with which message — the plan
        :meth:`_announce_deleted_task` sends; it consumes the ids' sharer
        sets. Recorded replica *holders* get
        ``DropReplica`` (its handler invalidates before it drops, so a
        holder never hears twice); every other peer that resolved one of
        the ids here gets one ``NotifyDeleted`` listing those it resolved.
        An id without a sharer set, or *broadcast*, is told to every peer;
        an empty plan sends nothing, and nobody hears ``NotifyDeleted``
        with deletion pushes off."""
        drop = list(holders)
        sharers = self._sharers
        known = [sharers.pop(oid, None) for oid in object_ids]
        if not self._notify_deletions:
            return [], drop
        notify = []
        for name in self.peers():
            if name in drop:
                continue
            if broadcast:
                ids = list(object_ids)
            else:
                ids = [
                    oid
                    for oid, told in zip(object_ids, known)
                    if told is None or name in told
                ]
            if ids:
                notify.append((name, ids))
        return notify, drop

    def _announce_deleted_task(
        self,
        object_ids,
        notify: list[tuple[str, list[ObjectID]]],
        drop: list[str],
        attr=None,
        blocking: bool = False,
    ):
        """Send a :meth:`_deletion_plan` for *object_ids* and count the
        objects announced: ``NotifyDeleted`` with its ids to each *notify*
        peer, then ``DropReplica`` for *object_ids* to each *drop* peer —
        peer by peer (*blocking*) or as one gather. An unreachable peer is
        tolerated (and counted): its stale descriptors fail the generation
        check on their next fabric read. Any other failure is raised."""
        names = [name for name, _ in notify] + list(drop)
        calls = [
            (self._peers[name].stub, "NotifyDeleted", [oid.binary() for oid in ids])
            for name, ids in notify
        ]
        if drop:
            wire_ids = [oid.binary() for oid in object_ids]
            calls += [
                (self._peers[name].stub, "DropReplica", wire_ids) for name in drop
            ]
        outcomes = yield from fan_out(
            calls,
            blocking=blocking,
            loop=self._aio_loop,
            attr=attr,
            tolerated=_UNREACHABLE,
        )
        for name, outcome in zip(names, outcomes):
            if isinstance(outcome, RpcStatusError) and self._peer_unavailable(
                name, outcome
            ):
                continue
            if isinstance(outcome, BaseException):
                raise outcome
        if self._notify_deletions:
            self.counters.delete_notifications += len(object_ids)

    def delete_object(self, object_id: ObjectID) -> None:
        drive(self.delete_object_task, object_id, loop=self._facade_loop())

    def _announce_evicted(self, victims: list[ObjectEntry]) -> None:
        """One NotifyDeleted per peer that resolved a victim here, listing
        the victims it resolved: every reachable one has dropped its cached
        descriptors and tier-cache payloads before any victim's extent can
        be re-sealed."""
        object_ids = [victim.object_id for victim in victims]
        drive(
            self._announce_deleted_task, object_ids, *self._deletion_plan(object_ids)
        )

    # -- restart recovery ------------------------------------------------------------

    def recover(self):
        """Restart recovery: rebuild the object table and free list from the
        region's sealed-object headers (see PlasmaStore.recover_from_region);
        corrupt objects come back quarantined, so Lookup never advertises
        them to peers."""
        report = self.recover_from_region()
        # Nobody knows who resolved what before the crash: every recovered
        # object starts without a sharer set, i.e. told to every peer.
        self._sharers.clear()
        if self._tier is not None:
            # Cache and heat are process state; a crash may also have eaten
            # invalidation pushes addressed to us, so nothing cached before
            # the restart can be trusted.
            self._tier.reset()
        return report

    def invalidate_cached_lookups(self, object_ids: list[ObjectID]) -> None:
        """Handle a peer's NotifyDeleted: drop cached descriptors and any
        unreferenced remote records."""
        for oid in object_ids:
            if self._lookup_cache is not None:
                self._lookup_cache.invalidate(oid)
            if self._tier is not None and self._tier.cache is not None:
                self._tier.cache.invalidate(oid)
            record = self._remote_records.get(oid)
            if record is not None and record.local_refs == 0:
                del self._remote_records[oid]
