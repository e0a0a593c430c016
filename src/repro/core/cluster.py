"""Cluster builder: one call from config to a running disaggregated mesh.

Reproduces the paper's deployment (Fig 5) for any node count: per node a
ThymesisFlow endpoint whose exposed window hosts the store's objects (plus,
optionally, the hash directory), an RPC server with the
:class:`~repro.core.service.StoreService`, and for every ordered node pair
a gRPC-style channel and a mapped aperture. The paper's prototype is the
2-node instance; "the current system design allows for this [multi-node]
modification" — here it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos import ChaosRuntime, FaultPlan
from repro.common.clock import SimClock
from repro.common.config import ClusterConfig
from repro.common.errors import ObjectStoreError, PlacementError, RpcStatusError
from repro.common.ids import UniqueIDGenerator
from repro.common.rng import DeterministicRng
from repro.core.client import DisaggregatedClient
from repro.core.dmsg import DmsgChannel
from repro.core.health import CircuitBreaker, HealthMonitor
from repro.core.remote import PeerHandle
from repro.core.ring import RingReader, RingWriter, ring_bytes
from repro.core.service import StoreService
from repro.core.sharing import (
    DisaggregatedHashMap,
    RemoteHashMapReader,
    directory_bytes,
)
from repro.core.store import DisaggregatedStore
from repro.network.ipc import IpcChannel
from repro.obs.correlation import CorrelationContext
from repro.obs.export import Telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanConfig, SpanSink
from repro.placement.membership import Membership, NodeStatus, TopologyView
from repro.placement.migrate import MigrationEngine
from repro.placement.rebalance import Rebalancer
from repro.placement.ring import HashRing
from repro.rpc.aio import AsyncChannel, EventLoop
from repro.rpc.channel import Channel
from repro.rpc.overload import OverloadModel
from repro.rpc.server import RpcServer
from repro.rpc.status import StatusCode
from repro.thymesisflow.fabric import ThymesisFabric
from repro.tier import TierAgent, TierEngine

_DIRECTORY_ALIGN = 4096


@dataclass
class ClusterNode:
    """Everything standing on one node."""

    name: str
    store: DisaggregatedStore
    server: RpcServer
    ipc: IpcChannel
    directory: DisaggregatedHashMap | None = None
    channels: dict[str, Channel] = field(default_factory=dict)
    monitor: HealthMonitor | None = None

    @property
    def endpoint(self):
        return self.store.endpoint


class Cluster:
    """A running mesh of disaggregated Plasma stores."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        n_nodes: int = 2,
        *,
        node_names: list[str] | None = None,
        share_usage: bool = False,
        enable_lookup_cache: bool = False,
        check_remote_uniqueness: bool = True,
        sharing: str = "rpc",
        directory_buckets: int = 4096,
        tracing: SpanConfig | bool | None = None,
        fault_plan: FaultPlan | None = None,
        metrics: bool = False,
        placement: bool = False,
        node_weights: dict[str, float] | None = None,
        tiering: bool = False,
    ):
        self._config = config or ClusterConfig()
        self._config.validate()
        # Correlation ids only exist when someone can observe them (the
        # span sink or the metrics plane); otherwise every component keeps
        # its None fast path.
        self._correlation = (
            CorrelationContext() if (metrics or tracing) else None
        )
        if node_names is None:
            if n_nodes < 2:
                raise ValueError("a disaggregated cluster needs >= 2 nodes")
            node_names = [f"node{i}" for i in range(n_nodes)]
        if len(set(node_names)) != len(node_names):
            raise ValueError("node names must be unique")
        self._clock = SimClock()
        self._rng = DeterministicRng(self._config.seed)
        # One event loop serves the whole mesh (repro.rpc.aio). Building it
        # draws nothing from the RNG — rng.spawn() is hash-derived — and in
        # sync mode nothing ever schedules on it, so every sync-mode stream
        # (and artifact) is bit-identical to a pre-loop build.
        self._loop = EventLoop(self._clock, self._rng)
        self._rpc_mode = self._config.rpc.mode
        # The span sink draws its head-sampling decisions from a dedicated
        # child of the RNG tree, so enabling tracing never perturbs any
        # simulation stream (and the clock listener only *reads* time):
        # simulated results are bit-identical with tracing on or off.
        self._spans: SpanSink | None = None
        if tracing:
            span_config = tracing if isinstance(tracing, SpanConfig) else SpanConfig()
            self._spans = SpanSink(
                self._clock, self._rng.spawn("obs", "spans"), span_config
            )
        self._chaos: ChaosRuntime | None = None
        if fault_plan is not None:
            fault_plan.validate(node_names)
            self._chaos = ChaosRuntime(fault_plan, self._clock, self._config.chaos)
        self._id_gen = UniqueIDGenerator(self._rng.spawn("object-ids"))
        self._fabric = ThymesisFabric(
            self._clock, self._config.fabric, self._config.local_memory, self._rng
        )
        self._nodes: dict[str, ClusterNode] = {}
        self._sharing = sharing
        self._client_seq = 0
        # Tiering (repro.tier): per-node agents built alongside the stores;
        # the promotion/demotion engine follows in phase 5 (it needs the
        # placement plane's migration machinery).
        self._tiering = tiering
        self._tier_agents: dict[str, TierAgent] = {}
        self._tier_engine: TierEngine | None = None

        # 'hybrid' (paper §V-B) combines the hash-map directory for lookups
        # with dmsg rings for feedback RPCs — so it needs both layouts.
        use_directory = sharing in ("hashmap", "hybrid")
        use_dmsg = sharing in ("dmsg", "hybrid")
        if placement and sharing != "rpc":
            # dmsg mailboxes and the hash directory are sized at build time
            # for a fixed node count; elastic membership needs the sharing
            # mode whose per-pair state can grow and shrink.
            raise ValueError(
                "placement=True requires sharing='rpc' (dmsg rings and the "
                "hash directory are statically sized per node count)"
            )
        self._use_directory = use_directory
        self._use_dmsg = use_dmsg
        self._check_rpc_mode(self._rpc_mode)
        dir_size = 0
        if use_directory:
            dir_size = -(-directory_bytes(directory_buckets) // _DIRECTORY_ALIGN)
            dir_size *= _DIRECTORY_ALIGN
        # dmsg mailboxes: per peer, one request ring (we initiate) and one
        # response ring (we serve), each in our own exposed region.
        ring_total = 0
        mailbox_size = 0
        if use_dmsg:
            raw = ring_bytes(self._config.dmsg.ring_capacity_bytes)
            ring_total = -(-raw // 64) * 64
            mailbox_size = 2 * (len(node_names) - 1) * ring_total
            mailbox_size = -(-mailbox_size // _DIRECTORY_ALIGN) * _DIRECTORY_ALIGN
        self._ring_total = ring_total
        self._mailbox_base = dir_size

        store_capacity = int(
            self._config.store.capacity_bytes * self._config.disaggregated_fraction
        )
        store_base = dir_size + mailbox_size
        exposed_size = store_base + store_capacity
        # Kept for recover_node() and add_node(): restarted/joining stores
        # are built with the exact construction parameters of the seed set.
        self._store_base = store_base
        self._store_capacity = store_capacity
        self._exposed_size = exposed_size
        self._directory_buckets = directory_buckets
        self._store_kwargs = dict(
            check_remote_uniqueness=check_remote_uniqueness,
            share_usage=share_usage,
            enable_lookup_cache=enable_lookup_cache,
            notify_deletions=enable_lookup_cache,
            sharing=sharing,
            region_offset_in_exposed=store_base,
        )

        # Phase 1: nodes, endpoints, exposed regions, stores, servers.
        for name in node_names:
            self._build_node(name)

        # Phase 2: full-mesh links and apertures (every node maps every
        # other node's exposed region).
        self._fabric.connect_full_mesh()
        for link in self._fabric.links():
            self._observe(link)
            if self._chaos is not None:
                self._chaos.attach_link(link)
        self._remote_regions = {}
        for reader_name in node_names:
            for home_name in node_names:
                if reader_name != home_name:
                    self._remote_regions[(reader_name, home_name)] = (
                        self._fabric.map_remote(reader_name, home_name)
                    )

        # Phase 3: metadata channels (gRPC-model or dmsg rings) and peers.
        for reader_name in node_names:
            for home_name in node_names:
                if reader_name != home_name:
                    self._link_pair(reader_name, home_name)

        # Phase 4: health monitors (heartbeat failure detection) over the
        # per-pair channels. Dmsg rings have no breaker/deadline machinery,
        # so monitors only cover gRPC-model channels.
        if not use_dmsg:
            for name, node in self._nodes.items():
                monitor = HealthMonitor(name, self._clock, self._config.health)
                for peer_name, channel in sorted(node.channels.items()):
                    monitor.add_peer(
                        peer_name,
                        channel.stub(StoreService.SERVICE_NAME),
                        channel.breaker,
                    )
                node.monitor = monitor

        # Phase 5: elastic placement (opt-in). Membership starts with every
        # seed node ACTIVE — at weight 1.0, or at the per-node weights a
        # heterogeneous scenario supplies (a weight-2 node owns twice the
        # ring, the stand-in for a memory-rich host). The epoch-1 view is
        # installed on each store before any client routes a create.
        self._membership: Membership | None = None
        self._engine: MigrationEngine | None = None
        self._rebalancer: Rebalancer | None = None
        self._placement_ring: HashRing | None = None
        if node_weights and not placement:
            raise ValueError(
                "node_weights requires placement=True (weights feed the "
                "consistent-hash ring)"
            )
        if placement:
            self._membership = Membership(node_names, weights=node_weights)
            self._engine = MigrationEngine(self._clock, spans=self._spans)
            pcfg = self._config.placement
            self._rebalancer = Rebalancer(
                self,
                self._engine,
                bytes_per_tick=pcfg.rebalance_bytes_per_tick,
                tick_interval_ns=pcfg.rebalance_tick_interval_ns,
            )
            for node in self._nodes.values():
                node.store.enable_placement(pcfg)
            self._publish_topology()
            if tiering:
                self._tier_engine = TierEngine(
                    self, self._engine, self._tier_agents, self._config.tier
                )

        # Phase 6: metrics plane (opt-in). One registry per node plus one
        # for the shared fabric; everything binds once, here, so hot paths
        # stay branch-on-None.
        self._registries: dict[str, MetricsRegistry] = {}
        self._telemetry: Telemetry | None = None
        if metrics:
            fabric_registry = MetricsRegistry(node="fabric")
            for link in self._fabric.links():
                link.attach_metrics(fabric_registry)
            for name, node in self._nodes.items():
                registry = MetricsRegistry(node=name)
                self._attach_node_metrics(node, registry)
                self._registries[name] = registry
            self._registries["fabric"] = fabric_registry
            if self._membership is not None:
                placement_registry = MetricsRegistry(node="placement")
                self._engine.attach_metrics(placement_registry)
                self._attach_placement_gauges(placement_registry)
                if self._tier_engine is not None:
                    self._tier_engine.attach_metrics(placement_registry)
                self._registries["placement"] = placement_registry
            self._telemetry = Telemetry(self._registries)

    def _build_node(self, name: str) -> ClusterNode:
        """Construct one node's full stack (endpoint, exposed region, store,
        RPC server, IPC channel) and register it. Used for the seed set at
        build time and for every elastic :meth:`add_node` join."""
        endpoint = self._fabric.add_node(name, self._exposed_size)
        exposed = endpoint.expose(0, self._exposed_size)
        store = self._new_store(name, endpoint)
        directory = None
        if self._use_directory:
            directory = DisaggregatedHashMap(
                exposed.subregion(0, directory_bytes(self._directory_buckets)),
                self._directory_buckets,
            )
            store.attach_directory(directory)
        if self._tiering:
            agent = TierAgent(
                name,
                self._config.tier,
                self._clock,
                self._rng.spawn("tier", name),
            )
            store.attach_tier(agent)
            self._tier_agents[name] = agent
        server = RpcServer(name)
        self._observe(server)
        # Every server carries an admission model so chaos bursts and
        # runtime rate changes work on any cluster; at the default config
        # (rate 0, no backlog) it is inert and dispatch keeps its fast path.
        server.overload = OverloadModel(
            self._clock, self._config.overload, name=name
        )
        server.add_service(StoreService(store))
        ipc = IpcChannel(
            self._clock, self._config.ipc, self._rng.spawn("ipc", name)
        )
        if self._chaos is not None:
            self._chaos.attach_server(name, server)
            self._chaos.attach_region(name, exposed)
        node = ClusterNode(
            name=name, store=store, server=server, ipc=ipc, directory=directory
        )
        self._nodes[name] = node
        return node

    def _new_store(self, name: str, endpoint) -> DisaggregatedStore:
        """A store process over *endpoint*'s exposed region, observed and
        attached to the event loop — at build, join and restart alike."""
        store = DisaggregatedStore(
            name,
            endpoint,
            endpoint.exposed.subregion(self._store_base, self._store_capacity),
            self._config.store,
            self._clock,
            **self._store_kwargs,
        )
        self._observe(store)
        store.attach_aio(self._loop, async_mode=self._rpc_mode == "async")
        return store

    def _observe(self, component) -> None:
        """Wire one store, RPC server or fabric link to the observability
        plane: the span sink, plus the shared correlation context (stores,
        links) or the clock that dispatch spans, handler latency and
        admission control read (servers)."""
        component.spans = self._spans
        if isinstance(component, RpcServer):
            component.clock = self._clock
        else:
            component.correlation = self._correlation

    def _link_pair(self, reader_name: str, home_name: str) -> None:
        """Wire the directed (reader -> home) metadata channel and peer
        handle over the already-mapped aperture."""
        reader = self._nodes[reader_name]
        home = self._nodes[home_name]
        if self._use_dmsg:
            channel = self._make_dmsg_channel(reader_name, home_name)
        else:
            channel = AsyncChannel(
                reader_name,
                home.server,
                self._clock,
                self._config.rpc,
                self._rng,
                spans=self._spans,
                breaker=CircuitBreaker(
                    self._clock,
                    self._config.health,
                    name=f"{reader_name}->{home_name}",
                ),
                chaos=self._chaos,
                correlation=self._correlation,
                loop=self._loop,
            )
        reader.channels[home_name] = channel
        remote_region = self._remote_regions[(reader_name, home_name)]
        reader.store.connect_peer(
            PeerHandle(
                name=home_name,
                stub=channel.stub(StoreService.SERVICE_NAME),
                remote_region=remote_region,
            )
        )
        if self._use_directory:
            reader.store.attach_hashmap_reader(
                home_name,
                RemoteHashMapReader(remote_region, 0, self._directory_buckets),
            )

    def _attach_node_metrics(self, node: "ClusterNode", registry: MetricsRegistry) -> None:
        node.store.attach_metrics(registry)
        node.server.attach_metrics(registry)
        registry.register_group(node.ipc.counters, "ipc")
        registry.register_group(
            node.endpoint.counters, "thymesisflow_endpoint"
        )
        for peer_name, channel in sorted(node.channels.items()):
            if hasattr(channel, "attach_metrics"):
                channel.attach_metrics(registry)
            else:  # dmsg rings: counters only
                registry.register_group(channel.counters, "dmsg", peer=peer_name)
        for (reader_name, home_name), region in sorted(self._remote_regions.items()):
            if reader_name == node.name:
                registry.register_group(
                    region.counters, "thymesisflow_aperture", home=home_name
                )
        if node.monitor is not None:
            node.monitor.attach_metrics(registry)

    # -- dmsg wiring ---------------------------------------------------------------

    def _peer_index(self, node: str, peer: str) -> int:
        peers = sorted(n for n in self._nodes if n != node)
        return peers.index(peer)

    def _ring_offsets(self, node: str, peer: str) -> tuple[int, int]:
        """(request-ring offset, response-ring offset) of *node*'s rings
        dedicated to *peer*, within *node*'s exposed region."""
        base = self._mailbox_base + self._peer_index(node, peer) * 2 * self._ring_total
        return base, base + self._ring_total

    def _make_dmsg_channel(self, initiator: str, server_node: str) -> DmsgChannel:
        raw = ring_bytes(self._config.dmsg.ring_capacity_bytes)
        ep_a = self._nodes[initiator].endpoint
        ep_b = self._nodes[server_node].endpoint
        a_req_off, _ = self._ring_offsets(initiator, server_node)
        _, b_resp_off = self._ring_offsets(server_node, initiator)
        a_req_abs = ep_a.exposed.absolute(a_req_off)
        b_resp_abs = ep_b.exposed.absolute(b_resp_off)
        return DmsgChannel(
            initiator,
            self._nodes[server_node].server,
            local_writer=RingWriter(ep_a, ep_a.memory.region(a_req_abs, raw)),
            peer_request_reader=RingReader(
                self._remote_regions[(server_node, initiator)], a_req_off, raw
            ),
            peer_writer=RingWriter(ep_b, ep_b.memory.region(b_resp_abs, raw)),
            response_reader=RingReader(
                self._remote_regions[(initiator, server_node)], b_resp_off, raw
            ),
            clock=self._clock,
            config=self._config.dmsg,
            rng=self._rng,
        )

    # -- access ---------------------------------------------------------------------

    @property
    def config(self) -> ClusterConfig:
        return self._config

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def rng(self) -> DeterministicRng:
        return self._rng

    @property
    def fabric(self) -> ThymesisFabric:
        return self._fabric

    @property
    def loop(self) -> EventLoop:
        """The cluster-wide deterministic event loop (repro.rpc.aio)."""
        return self._loop

    @property
    def rpc_mode(self) -> str:
        """Current RPC execution mode: ``"sync"`` or ``"async"``."""
        return self._rpc_mode

    def set_rpc_mode(self, mode: str) -> None:
        """Flip the mesh between sync (one-in-flight, artifact-stable) and
        async (pipelined event-loop) RPC execution at runtime.

        Sync mode is the compatibility plane: with it active no task ever
        schedules on the loop and every draw sequence matches a pre-async
        build byte for byte. Async mode routes the store facades through
        their task forms (pipelining, coalesced batches, hedged
        scatter-gather lookups, chunked bulk pulls).
        """
        if mode not in ("sync", "async"):
            raise ValueError(
                f"rpc mode must be 'sync' or 'async', got {mode!r}"
            )
        self._check_rpc_mode(mode)
        self._rpc_mode = mode
        for node in self._nodes.values():
            node.store.set_rpc_async(mode == "async")

    def _check_rpc_mode(self, mode: str) -> None:
        """Async mode needs task-capable channels — refused at construction
        and at a runtime flip alike, so no task leaf ever meets a dmsg ring."""
        if mode == "async" and self._use_dmsg:
            raise ObjectStoreError(
                "async rpc mode requires gRPC-model channels; dmsg rings "
                "have no event-loop integration (sharing="
                f"{self._sharing!r})"
            )

    @property
    def sharing(self) -> str:
        return self._sharing

    @property
    def spans(self) -> SpanSink | None:
        """The span sink (None unless built with ``tracing=``)."""
        return self._spans

    @property
    def chaos(self) -> ChaosRuntime | None:
        """The fault-injection runtime, when built with a fault_plan."""
        return self._chaos

    @property
    def correlation(self) -> CorrelationContext | None:
        """The shared correlation context (None unless tracing/metrics)."""
        return self._correlation

    def metrics(self) -> Telemetry:
        """The cluster-wide telemetry view (requires ``metrics=True``)."""
        if self._telemetry is None:
            raise ObjectStoreError(
                "cluster was built without metrics; pass Cluster(..., "
                "metrics=True) to enable the telemetry plane"
            )
        return self._telemetry

    def registry(self, node: str) -> MetricsRegistry:
        """One node's metric registry (requires ``metrics=True``)."""
        return self.metrics().registry(node)

    def health_tick(self) -> dict[str, dict[str, bool]]:
        """Pump every node's failure detector once.

        The simulation has no background threads; workloads (or the chaos
        benchmarks) call this wherever the paper's deployment would have a
        heartbeat timer fire. Returns {node: {peer: answered}} for the
        probes actually sent this tick (interval-gated).
        """
        if self._chaos is not None:
            self._chaos.poll()
        out: dict[str, dict[str, bool]] = {}
        for name, node in self._nodes.items():
            if node.monitor is not None:
                out[name] = node.monitor.tick()
        if self._membership is not None:
            self._reconcile_membership()
        return out

    def monitor(self, name: str) -> HealthMonitor | None:
        return self.node(name).monitor

    def health_snapshot(self) -> dict[str, dict]:
        """Per-node view of peer health (breaker states, suspicion)."""
        return {
            name: node.monitor.snapshot()
            for name, node in self._nodes.items()
            if node.monitor is not None
        }

    # -- elastic placement (repro.placement) --------------------------------------

    @property
    def placement_enabled(self) -> bool:
        return self._membership is not None

    @property
    def membership(self) -> Membership:
        """The authoritative membership record (requires ``placement=True``)."""
        if self._membership is None:
            raise ObjectStoreError(
                "cluster was built without placement; pass Cluster(..., "
                "placement=True) to enable elastic membership"
            )
        return self._membership

    def placement_ring(self) -> HashRing:
        """The ring built from the latest published view."""
        self.membership  # raises when placement is off
        assert self._placement_ring is not None
        return self._placement_ring

    @property
    def rebalancer(self) -> Rebalancer:
        self.membership
        assert self._rebalancer is not None
        return self._rebalancer

    @property
    def migration_engine(self) -> MigrationEngine:
        self.membership
        assert self._engine is not None
        return self._engine

    # -- tiering (repro.tier) -----------------------------------------------------

    @property
    def tiering_enabled(self) -> bool:
        return self._tiering

    @property
    def tier_engine(self) -> TierEngine | None:
        """The promotion/demotion engine (None unless built with both
        ``tiering=True`` and ``placement=True``)."""
        return self._tier_engine

    def tier_agent(self, name: str) -> TierAgent | None:
        """One node's tier agent (None when tiering is off)."""
        return self._tier_agents.get(name)

    def tier_stats(self) -> dict[str, dict]:
        """Per-node tier snapshot (empty when tiering is off)."""
        return {
            name: agent.stats()
            for name, agent in sorted(self._tier_agents.items())
            if name in self._nodes
        }

    def _coordinator_name(self) -> str:
        """Lowest-named live ACTIVE member; falls back to any live member
        (e.g. every survivor is DRAINING during a scale-down)."""
        view = self._membership.view()
        for name in view.names():
            if view.status(name) is NodeStatus.ACTIVE and name in self._nodes:
                return name
        for name in view.names():
            if name in self._nodes:
                return name
        raise ObjectStoreError("no live member left to coordinate topology")

    def _publish_topology(self) -> TopologyView:
        """Snapshot utilization, rebuild the ring, install the view on the
        coordinator and push it to every member over its channels.

        Pushes to unreachable members are skipped — they install a stale
        epoch guard anyway, and ``recover_node`` pulls the freshest view
        from a live peer when they come back.
        """
        assert self._membership is not None
        self._membership.update_utilization(
            {
                name: (
                    node.store.used_bytes / node.store.capacity_bytes
                    if node.store.capacity_bytes
                    else 0.0
                )
                for name, node in self._nodes.items()
            }
        )
        view = self._membership.view()
        pcfg = self._config.placement
        self._placement_ring = HashRing.from_view(
            view,
            vnodes=pcfg.vnodes,
            high_watermark=pcfg.capacity_high_watermark,
            min_capacity_factor=pcfg.min_capacity_factor,
        )
        coordinator = self._nodes[self._coordinator_name()]
        coordinator.store.install_topology(view)
        wire = view.to_wire()
        for peer_name, channel in sorted(coordinator.channels.items()):
            if peer_name not in view.members or peer_name not in self._nodes:
                continue
            try:
                channel.stub(StoreService.SERVICE_NAME).UpdateTopology(wire)
            except RpcStatusError as exc:
                if exc.code in (
                    StatusCode.UNAVAILABLE,
                    StatusCode.DEADLINE_EXCEEDED,
                    StatusCode.RESOURCE_EXHAUSTED,
                ):
                    # Down, silent, or shedding under overload: skip — the
                    # member catches up via pull on recovery.
                    continue
                raise
        return view

    def _pull_topology(self, name: str) -> None:
        """Install on *name* the freshest view a live peer holds (the
        recovered store missed every push while it was down); the local
        membership record is the fallback when nobody answers."""
        node = self._nodes[name]
        view: TopologyView | None = None
        for peer_name, channel in sorted(node.channels.items()):
            if peer_name not in self._nodes:
                continue
            try:
                wire = channel.stub(StoreService.SERVICE_NAME).Topology({"from": name})
            except RpcStatusError as exc:
                if exc.code in (
                    StatusCode.UNAVAILABLE,
                    StatusCode.DEADLINE_EXCEEDED,
                    StatusCode.RESOURCE_EXHAUSTED,
                ):
                    continue
                raise
            if int(wire.get("epoch", 0)) > 0:
                candidate = TopologyView.from_wire(wire)
                if view is None or candidate.epoch > view.epoch:
                    view = candidate
                break
        if view is None:
            view = self._membership.view()
        node.store.install_topology(view)

    def add_node(self, name: str, *, weight: float = 1.0) -> ClusterNode:
        """Grow the mesh by one node: endpoint + store + server, fabric
        links and apertures to every existing node, channels and peer
        handles in both directions, health monitoring, metrics — then join
        the membership and publish the bumped-epoch view so creates start
        routing to it. Existing objects move only when the rebalancer (or a
        manual migration) sends them."""
        membership = self.membership
        if name in self._nodes:
            raise ValueError(f"cluster already has a node named {name!r}")
        existing = sorted(self._nodes)
        node = self._build_node(name)
        for other in existing:
            link = self._fabric.connect(name, other)
            self._observe(link)
            if self._chaos is not None:
                self._chaos.attach_link(link)
            if "fabric" in self._registries:
                link.attach_metrics(self._registries["fabric"])
        for other in existing:
            self._remote_regions[(name, other)] = self._fabric.map_remote(name, other)
            self._remote_regions[(other, name)] = self._fabric.map_remote(other, name)
        for other in existing:
            self._link_pair(name, other)
            self._link_pair(other, name)
        monitor = HealthMonitor(name, self._clock, self._config.health)
        for peer_name, channel in sorted(node.channels.items()):
            monitor.add_peer(
                peer_name,
                channel.stub(StoreService.SERVICE_NAME),
                channel.breaker,
            )
        node.monitor = monitor
        for other in existing:
            other_node = self._nodes[other]
            if other_node.monitor is not None:
                channel = other_node.channels[name]
                other_node.monitor.add_peer(
                    name, channel.stub(StoreService.SERVICE_NAME), channel.breaker
                )
        if self._telemetry is not None:
            registry = MetricsRegistry(node=name)
            self._attach_node_metrics(node, registry)
            self._registries[name] = registry
            for other in existing:
                other_registry = self._registries.get(other)
                if other_registry is None:
                    continue
                self._nodes[other].channels[name].attach_metrics(other_registry)
                other_registry.register_group(
                    self._remote_regions[(other, name)].counters,
                    "thymesisflow_aperture",
                    home=name,
                )
            # Telemetry snapshots its registry dict at construction.
            self._telemetry = Telemetry(self._registries)
        node.store.enable_placement(self._config.placement)
        membership.join(name, weight)
        self._publish_topology()
        return node

    def drain_node(self, name: str) -> TopologyView:
        """Mark *name* DRAINING and publish: new creates stop routing to it
        while its objects stay readable in place. Run the rebalancer to
        empty it, then :meth:`remove_node`."""
        self.node(name)
        self.membership.drain(name)
        return self._publish_topology()

    def remove_node(self, name: str, *, force: bool = False) -> None:
        """Retire a drained (or dead) member and tear down its wiring.

        Refuses while the node still holds sealed primaries unless *force*
        (replicas it holds are expendable — other holders or the home copy
        survive). The server is shut down so any straggler RPC to the
        departed name fails UNAVAILABLE rather than resurrecting it.
        """
        membership = self.membership
        node = self.node(name)
        if membership.status(name) is NodeStatus.ACTIVE:
            raise PlacementError(
                f"node {name!r} is ACTIVE; drain_node() it and rebalance "
                "before removing"
            )
        if not force:
            with node.store.table.lock:
                stranded = [
                    entry.object_id
                    for entry in node.store.table
                    if entry.is_sealed
                    and not node.store.is_replica(entry.object_id)
                ]
            if stranded:
                raise PlacementError(
                    f"node {name!r} still holds {len(stranded)} primary "
                    "object(s); run the rebalancer to convergence or pass "
                    "force=True to abandon them"
                )
        membership.remove(name)
        del self._nodes[name]
        self._tier_agents.pop(name, None)
        node.server.shutdown()
        for other in self._nodes.values():
            other.channels.pop(name, None)
            other.store.disconnect_peer(name)
            if other.monitor is not None:
                other.monitor.remove_peer(name)
        for key in [k for k in self._remote_regions if name in k]:
            del self._remote_regions[key]
        if self._telemetry is not None:
            self._registries.pop(name, None)
            self._telemetry = Telemetry(self._registries)
        self._publish_topology()

    def _reconcile_membership(self) -> None:
        """Fold the coordinator's failure-detector suspicions into the
        membership: a suspected ACTIVE/DRAINING member goes DOWN and the
        bumped view publishes, so the ring stops homing new objects there."""
        coordinator = self._coordinator_name()
        monitor = self._nodes[coordinator].monitor
        if monitor is None:
            return
        suspects = [p for p in monitor.suspects() if p in self._nodes]
        if suspects and self._membership.reconcile(suspects) is not None:
            self._publish_topology()

    def topology_snapshot(self) -> dict:
        """Everything the ``repro topology`` CLI shows, as plain data."""
        membership = self.membership
        view = membership.view()
        ring = self._placement_ring
        shares = ring.ownership_share() if ring is not None else {}
        nodes: dict[str, dict] = {}
        for name in view.names():
            info = view.members[name]
            store = self._nodes[name].store if name in self._nodes else None
            nodes[name] = {
                "status": info.status.value,
                "weight": info.weight,
                "utilization": (
                    store.used_bytes / store.capacity_bytes
                    if store is not None and store.capacity_bytes
                    else info.utilization
                ),
                "ownership_share": shares.get(name, 0.0),
                "vnodes": ring.vnode_count(name) if ring is not None else 0,
                "objects": store.object_count() if store is not None else 0,
                "used_bytes": store.used_bytes if store is not None else 0,
            }
        return {
            "epoch": view.epoch,
            "imbalance": ring.imbalance() if ring is not None else 0.0,
            "misplaced_bytes": self.rebalancer.misplaced_bytes(),
            "nodes": nodes,
        }

    def _attach_placement_gauges(self, registry: MetricsRegistry) -> None:
        registry.gauge(
            "placement_epoch",
            "Current topology epoch at the membership coordinator.",
        ).labels().set_function(lambda: float(self._membership.epoch))
        registry.gauge(
            "placement_ring_imbalance",
            "Max ownership share over the weight-fair share (1.0 = balanced).",
        ).labels().set_function(
            lambda: (
                self._placement_ring.imbalance()
                if self._placement_ring is not None
                else 0.0
            )
        )
        registry.gauge(
            "placement_misplaced_bytes",
            "Payload bytes whose ring home differs from their holder.",
        ).labels().set_function(
            lambda: float(self._rebalancer.misplaced_bytes())
        )

    def recover_node(self, name: str):
        """Restart a crashed node's store process and recover its objects
        from the region's sealed-object headers.

        Models the asymmetry that makes disaggregated restarts interesting:
        the store *process* died (object table, allocator state and RPC
        service all gone) but the node's exposed region — every sealed
        object's header and payload in it — survived. A fresh store is
        constructed over the same endpoint and region, its table and free
        list are rebuilt by the header scan, the RPC service is re-bound on
        the surviving server, and peer connections are re-established over
        the existing channels and apertures. Peers' cached descriptors stay
        valid across the restart because offsets and generations live in
        the region, not in the dead process.

        Returns the :class:`~repro.plasma.store.RecoveryReport`.
        """
        node = self.node(name)
        store = self._new_store(name, node.store.endpoint)
        agent = self._tier_agents.get(name)
        if agent is not None:
            # Same agent instance, fresh state: store.recover() resets the
            # cache and heat — process state that died with the old store.
            store.attach_tier(agent)
        if node.directory is not None:
            # The directory's buckets live in the region and survived; the
            # recovered store re-attaches the same instance.
            store.attach_directory(node.directory)
        for peer_name, channel in sorted(node.channels.items()):
            store.connect_peer(
                PeerHandle(
                    name=peer_name,
                    stub=channel.stub(StoreService.SERVICE_NAME),
                    remote_region=self._remote_regions[(name, peer_name)],
                )
            )
            if self._sharing in ("hashmap", "hybrid"):
                store.attach_hashmap_reader(
                    peer_name,
                    RemoteHashMapReader(
                        self._remote_regions[(name, peer_name)],
                        0,
                        self._directory_buckets,
                    ),
                )
        report = store.recover()
        node.server.replace_service(StoreService(store))
        node.server.restart()
        node.store = store
        if name in self._registries:
            # Re-binding replaces the dead store's group/gauge bindings;
            # latency histograms keep accumulating across the restart.
            store.attach_metrics(self._registries[name])
        if self._membership is not None:
            store.enable_placement(self._config.placement)
            if self._membership.status(name) is NodeStatus.DOWN:
                # Rejoin first so the view the node catches up on already
                # includes itself (the push from the coordinator may still
                # be fail-fasting on an open breaker; the pull below is the
                # reliable path).
                self._membership.reactivate(name)
                self._publish_topology()
            self._pull_topology(name)
        return report

    def node_names(self) -> list[str]:
        return list(self._nodes)

    def node(self, name: str) -> ClusterNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(
                f"unknown node {name!r}; cluster has {sorted(self._nodes)}"
            ) from None

    def store(self, name: str) -> DisaggregatedStore:
        return self.node(name).store

    def client(self, node_name: str, client_name: str | None = None) -> DisaggregatedClient:
        """A new client attached to *node_name*'s store."""
        node = self.node(node_name)
        if client_name is None:
            self._client_seq += 1
            client_name = f"client{self._client_seq}@{node_name}"
        return DisaggregatedClient(
            client_name, node.store, node.ipc, correlation=self._correlation
        )

    def new_object_id(self):
        """A fresh system-unique id from the cluster's deterministic stream."""
        return self._id_gen.next()

    def new_object_ids(self, n: int):
        return self._id_gen.take(n)

    def stats(self) -> dict[str, dict]:
        """Per-node operational snapshot."""
        out: dict[str, dict] = {}
        for name, node in self._nodes.items():
            out[name] = {
                "objects": node.store.object_count(),
                "used_bytes": node.store.used_bytes,
                "capacity_bytes": node.store.capacity_bytes,
                "counters": node.store.counters.snapshot(),
            }
        return out

    def __repr__(self) -> str:
        return f"Cluster(nodes={self.node_names()}, sharing={self._sharing!r})"
