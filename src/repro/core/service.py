"""The RPC service every disaggregated store exposes to its peers.

Paper §IV-A2: "upon a client request for a remote object, the local Plasma
store makes an RPC call to look up the object identifier(s) in the remote
store ... Similarly, on object creation, RPC calls are used to ensure the
uniqueness of object identifiers."

Methods:

* ``Lookup``   — batched id -> sealed-object descriptors (offset within the
  exposed region, size, metadata), the heart of remote retrieval.
* ``Contains`` — batched existence check for id-uniqueness at creation.
* ``AddRef`` / ``ReleaseRef`` — the distributed object-usage-sharing
  extension (paper future work): a peer declares that its clients are using
  one of our objects, pinning it against eviction.
* ``NotifyDeleted`` — home-store push used to invalidate peers' lookup
  caches (paper future work: caching "could result in corrupted object
  buffers if not handled carefully" — this is the careful handling). It
  goes only to peers that can hold something to invalidate: a store keeps,
  per object it sealed, the set of callers its ``Lookup`` handed the
  descriptor to (the caller's name arrives as call metadata, gRPC's
  ``context.peer()``), and a delete or eviction round tells exactly those,
  one message per peer listing the ids it resolved. No set — an object
  recovered after a restart, directory-based sharing, an unnamed caller —
  means unknown, and unknown means every peer is told. A replica holder
  hears ``DropReplica`` instead, which implies the same invalidation, and
  revokes in turn: the peers that resolved *its* copy hear
  ``NotifyDeleted`` from it.

Every handler runs under the store's object-table mutex, modelling the
paper's gRPC-server-thread / main-thread contention point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.ids import ObjectID
from repro.rpc.service import Service, rpc_method

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.store import DisaggregatedStore


class StoreService(Service):
    SERVICE_NAME = "plasma.StoreService"

    def __init__(self, store: "DisaggregatedStore"):
        self._store = store

    def _ids_from(self, request: dict, key: str = "object_ids") -> list[ObjectID]:
        raw = request.get(key)
        if not isinstance(raw, list) or not raw:
            raise ValueError(f"request field {key!r} must be a non-empty list")
        return [ObjectID(item) for item in raw]

    @rpc_method
    def Lookup(self, request: dict) -> dict:
        """Return descriptors for every requested id sealed in this store;
        the caller joins each returned object's sharer set."""
        object_ids = self._ids_from(request)
        found: list[dict] = []
        caller = self.caller()
        store = self._store
        with store.table.lock:
            for oid in object_ids:
                descriptor = store.lookup_descriptor(oid)
                if descriptor is not None:
                    found.append(descriptor)
                    store.add_sharer(oid, caller)
        return {"found": found, "store": self._store.name}

    @rpc_method
    def Contains(self, request: dict) -> dict:
        """Batched existence check (unsealed objects count: their ids are
        reserved the moment they are created)."""
        object_ids = self._ids_from(request)
        with self._store.table.lock:
            present = [self._store.contains(oid) for oid in object_ids]
        return {"present": present}

    @rpc_method
    def AddRef(self, request: dict) -> dict:
        """A peer's client started using one of our objects: pin it."""
        object_ids = self._ids_from(request)
        with self._store.table.lock:
            for oid in object_ids:
                self._store.add_ref(oid, remote=True)
        return {}

    @rpc_method
    def ReleaseRef(self, request: dict) -> dict:
        """A peer's client stopped using one of our objects."""
        object_ids = self._ids_from(request)
        with self._store.table.lock:
            for oid in object_ids:
                self._store.release_ref(oid, remote=True)
        return {}

    @rpc_method
    def NotifyDeleted(self, request: dict) -> dict:
        """The calling peer deleted/evicted objects we may have cached."""
        object_ids = self._ids_from(request)
        self._store.invalidate_cached_lookups(object_ids)
        return {}

    @rpc_method
    def Subscribe(self, request: dict) -> dict:
        """Register a cross-node notification subscription; the caller
        polls it with PollNotifications (the RPC realisation of the
        "additional RPC functionality" §V-B suggests for store feedback)."""
        return {"subscription": self._store.create_subscription()}

    @rpc_method
    def PollNotifications(self, request: dict) -> dict:
        sub_id = request.get("subscription")
        if not isinstance(sub_id, int):
            raise ValueError("subscription id required")
        notes = self._store.poll_subscription(sub_id)
        return {
            "notifications": [
                {
                    "object_id": n.object_id.binary(),
                    "data_size": n.data_size,
                    "deleted": n.deleted,
                }
                for n in notes
            ]
        }

    @rpc_method
    def Heartbeat(self, request: dict) -> dict:
        """Liveness probe for the failure detector (repro.core.health).

        Deliberately trivial: a crashed store never reaches the handler
        (the server answers UNAVAILABLE first), so any response at all
        means the metadata plane is up.
        """
        return {"node": self._store.node, "t_ns": self._store.clock.now_ns}

    @rpc_method
    def Replicate(self, request: dict) -> dict:
        """Create a local replica of a peer's sealed object.

        The caller (the object's home store) sends only the *descriptor*;
        the payload is pulled over the ThymesisFlow fabric from the
        caller's exposed region — a remote read (coherent, Fig 3a) followed
        by a local write, so replication respects the framework's
        write-local/read-remote rule and never puts bulk data on the LAN.
        """
        source = request.get("source")
        if not isinstance(source, str) or not source:
            raise ValueError("Replicate needs the source store's name")
        object_id = ObjectID(request["object_id"])
        offset = int(request["offset"])
        data_size = int(request["data_size"])
        metadata = bytes(request.get("metadata", b""))
        self._store.create_replica(source, object_id, offset, data_size, metadata)
        return {"replica": self._store.name}

    @rpc_method
    def DropReplica(self, request: dict) -> dict:
        """The home store deleted an object we hold a replica of: forget
        what we cached about it (the caller sends a holder no separate
        NotifyDeleted), tell the peers that resolved our copy, then drop
        it if it is idle (best effort — an in-use replica survives until
        released)."""
        object_ids = self._ids_from(request)
        self._store.invalidate_cached_lookups(object_ids)
        self._store.revoke_replicas(object_ids, self.caller())
        dropped = self._store.drop_replicas(object_ids)
        return {"dropped": dropped}

    # -- elastic placement (repro.placement) ----------------------------------

    @rpc_method
    def Topology(self, request: dict) -> dict:
        """The topology view this store holds (epoch 0 = none installed).
        Recovering nodes pull this from a live peer to catch up on views
        they missed while down."""
        view = self._store.topology()
        if view is None:
            return {"epoch": 0, "members": []}
        return view.to_wire()

    @rpc_method
    def UpdateTopology(self, request: dict) -> dict:
        """Coordinator push of a new epoch-numbered topology view; stale
        epochs are acknowledged but ignored (idempotent, re-orderable)."""
        from repro.placement.membership import TopologyView

        view = TopologyView.from_wire(request)
        installed = self._store.install_topology(view)
        return {"installed": installed, "epoch": self._store.topology_epoch}

    @rpc_method
    def PlacedCreate(self, request: dict) -> dict:
        """Home side of a placement-routed create: allocate the extent
        (header written unsealed) and return the exposed-region offset the
        creator's fabric write streams the payload to."""
        object_id = ObjectID(request["object_id"])
        data_size = int(request["data_size"])
        metadata = bytes(request.get("metadata", b""))
        offset = self._store.placed_create(object_id, data_size, metadata)
        return {"offset": offset, "store": self._store.name}

    @rpc_method
    def PlacedSeal(self, request: dict) -> dict:
        """Make a placement-routed object visible: invalidate the stale
        cached lines the remote write left (Fig 3b), checksum, seal, and
        run home-driven replication if requested."""
        object_id = ObjectID(request["object_id"])
        replicas = int(request.get("replicas", 1))
        self._store.placed_seal(object_id, replicas)
        return {}

    @rpc_method
    def MigratePrepare(self, request: dict) -> dict:
        """Destination side of a live migration: allocate + pull the payload
        over the fabric, but do NOT seal — the copy stays invisible until
        MigrateCommit, so a crash in between leaves only an unsealed extent
        that restart recovery reclaims."""
        source = request.get("source")
        if not isinstance(source, str) or not source:
            raise ValueError("MigratePrepare needs the source store's name")
        object_id = ObjectID(request["object_id"])
        holders = [str(h) for h in request.get("holders", [])]
        state = self._store.begin_adopt(
            source,
            object_id,
            int(request["offset"]),
            int(request["data_size"]),
            bytes(request.get("metadata", b"")),
            holders=holders,
        )
        return {"state": state}

    @rpc_method
    def MigrateCommit(self, request: dict) -> dict:
        """Second phase: seal the pulled copy, atomically publishing the
        new-generation descriptor."""
        object_id = ObjectID(request["object_id"])
        generation = self._store.commit_adopt(object_id)
        return {"generation": generation}

    @rpc_method
    def Stats(self, request: dict) -> dict:
        """Operational snapshot (used by examples and debugging, not by any
        hot path). With the tiering plane attached the reply carries the
        node's tier agent snapshot (cache counters + heat-tracker sizes) so
        an operator can read hit rates over the wire."""
        out = {
            "store": self._store.name,
            "node": self._store.node,
            "objects": self._store.object_count(),
            "used_bytes": self._store.used_bytes,
            "capacity_bytes": self._store.capacity_bytes,
        }
        agent = self._store.tier_agent
        if agent is not None:
            out["tier"] = agent.stats()
        return out
