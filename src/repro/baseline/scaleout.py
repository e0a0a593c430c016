"""Scale-out object sharing: fetch-by-copy over the LAN.

Architecture: every node runs a plain (node-local) Plasma store; stores
expose a ``FetchService`` over RPC. A client request for a remote object

1. RPC-Lookups peers for the id (metadata, like the disaggregated store),
2. streams the *entire payload* over the LAN model (~1.1 GiB/s vs the
   fabric's 5.75 GiB/s),
3. writes it into the local store as a replica (a real local allocation —
   under memory pressure this evicts resident objects: the "thrashing"
   of paper §I),
4. serves the client from the local replica.

Repeated gets of the same id hit the local replica, so the baseline's
caching behaviour is honest too.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.common.clock import SimClock
from repro.common.config import ClusterConfig, cluster_node_names
from repro.common.errors import ObjectNotFoundError
from repro.common.ids import ObjectID, UniqueIDGenerator
from repro.common.rng import DeterministicRng
from repro.memory.host import HostMemory
from repro.network.ipc import IpcChannel
from repro.network.lan import Connection, Network
from repro.plasma.buffer import PlasmaBuffer
from repro.plasma.client import PlasmaClient
from repro.plasma.store import PlasmaStore
from repro.rpc.channel import Channel, ServiceStub
from repro.rpc.server import RpcServer
from repro.rpc.service import Service, rpc_method
from repro.thymesisflow.endpoint import ThymesisEndpoint


class FetchService(Service):
    """RPC surface of a scale-out store: metadata lookup + payload export."""

    SERVICE_NAME = "scaleout.FetchService"

    def __init__(self, store: "ScaleOutStore"):
        self._store = store

    @rpc_method
    def Lookup(self, request: dict) -> dict:
        object_ids = [ObjectID(raw) for raw in request.get("object_ids", [])]
        if not object_ids:
            raise ValueError("object_ids must be non-empty")
        found = []
        with self._store.table.lock:
            for oid in object_ids:
                descriptor = self._store.lookup_descriptor(oid)
                if descriptor is not None:
                    found.append(descriptor)
        return {"found": found, "store": self._store.name}

class ScaleOutStore(PlasmaStore):
    """A node-local store that can pull remote objects over the LAN."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._peer_stubs: dict[str, ServiceStub] = {}
        self._peer_conns: dict[str, Connection] = {}
        # Direct references to peer stores stand in for the peer's send
        # loop, which on real hardware reads its own shared memory to feed
        # the socket. All *timing* comes from the LAN model.
        self._peer_stores: dict[str, "ScaleOutStore"] = {}

    def connect_peer(
        self,
        name: str,
        stub: ServiceStub,
        conn: Connection,
        peer_store: "ScaleOutStore",
    ) -> None:
        self._peer_stubs[name] = stub
        self._peer_conns[name] = conn
        self._peer_stores[name] = peer_store

    def peers(self) -> list[str]:
        return sorted(self._peer_stubs)

    def fetch_remote(self, object_id: ObjectID) -> None:
        """Pull *object_id* from whichever peer has it and replicate it
        locally. Raises ObjectNotFoundError if nobody does."""
        for name in self.peers():
            stub = self._peer_stubs[name]
            response = stub.Lookup({"object_ids": [object_id.binary()]})
            found = response.get("found", [])
            if not found:
                continue
            descriptor = found[0]
            size = int(descriptor["data_size"])
            peer_store = self._peer_stores[name]
            src_entry = peer_store.get_sealed_entry(object_id)
            payload = peer_store.local_buffer(src_entry).view()
            # Stream the payload over the LAN (charged per byte)...
            conn = self._peer_conns[name]
            conn.send(payload)
            received = conn.peer.recv()
            # ...and materialise a local replica (a real allocation that can
            # evict resident objects — the scale-out thrashing).
            entry = self.create_object_unchecked(
                object_id, size, bytes(descriptor.get("metadata", b""))
            )
            replica = self.local_buffer(entry)
            replica.write(received)
            self.seal_object(object_id)
            self.counters.inc("remote_fetches")
            self.counters.inc("bytes_fetched", size)
            return
        raise ObjectNotFoundError(f"{object_id!r} not found on any peer")


class ScaleOutClient(PlasmaClient):
    """Client API identical to Plasma's; remote objects are pulled and
    replicated on first get."""

    def get(self, object_ids: list[ObjectID]) -> list[PlasmaBuffer]:
        if not object_ids:
            return []
        store: ScaleOutStore = self._store  # type: ignore[assignment]
        self._ipc.charge_request(nobjects=len(object_ids))
        for oid in object_ids:
            if not store.contains(oid):
                store.fetch_remote(oid)
        buffers = []
        for oid in object_ids:
            entry = store.get_sealed_entry(oid)
            store.add_ref(oid)
            buffer = store.local_buffer(entry)
            self._held.setdefault(oid, []).append(buffer)
            buffers.append(buffer)
        self.counters.inc("gets", len(object_ids))
        return buffers


@dataclass
class ScaleOutNode:
    name: str
    store: ScaleOutStore
    server: RpcServer
    ipc: IpcChannel
    channels: dict[str, Channel] = field(default_factory=dict)


class ScaleOutCluster:
    """N nodes sharing objects the traditional way (Fig 1a)."""

    def __init__(
        self, config: ClusterConfig | None = None, nodes: int | Sequence[str] = 2
    ):
        self._config = config or ClusterConfig()
        names = cluster_node_names(nodes)
        self._config.validate(names)
        self._clock = SimClock()
        self._rng = DeterministicRng(self._config.seed)
        self._id_gen = UniqueIDGenerator(self._rng.spawn("object-ids"))
        self._network = Network(self._clock, self._config.lan, self._rng)
        self._nodes: dict[str, ScaleOutNode] = {}
        self._client_seq = 0

        for name in names:
            self._network.register_host(name)
            capacity = self._config.store.capacity_bytes
            memory = HostMemory(capacity, node=name)
            endpoint = ThymesisEndpoint(
                name, memory, self._clock, self._config.local_memory, self._rng
            )
            store = ScaleOutStore(
                name, endpoint, memory.whole(), self._config.store, self._clock
            )
            server = RpcServer(name)
            server.add_service(FetchService(store))
            ipc = IpcChannel(
                self._clock, self._config.ipc, self._rng.spawn("ipc", name)
            )
            self._nodes[name] = ScaleOutNode(
                name=name, store=store, server=server, ipc=ipc
            )
        for a in names:
            for b in names:
                if a == b:
                    continue
                channel = Channel(
                    a, self._nodes[b].server, self._clock, self._config.rpc, self._rng
                )
                self._nodes[a].channels[b] = channel
                conn = self._network.connect(a, b)
                self._nodes[a].store.connect_peer(
                    b,
                    channel.stub(FetchService.SERVICE_NAME),
                    conn,
                    self._nodes[b].store,
                )

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def config(self) -> ClusterConfig:
        return self._config

    @property
    def network(self) -> Network:
        return self._network

    def node_names(self) -> list[str]:
        return list(self._nodes)

    def store(self, name: str) -> ScaleOutStore:
        return self._nodes[name].store

    def client(self, node_name: str, client_name: str | None = None) -> ScaleOutClient:
        node = self._nodes[node_name]
        if client_name is None:
            self._client_seq += 1
            client_name = f"client{self._client_seq}@{node_name}"
        return ScaleOutClient(client_name, node.store, node.ipc)

    def new_object_id(self):
        return self._id_gen.next()

    def new_object_ids(self, n: int):
        return self._id_gen.take(n)
