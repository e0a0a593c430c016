"""Cluster builder: one call from config to a running disaggregated mesh.

Reproduces the paper's deployment (Fig 5) for any node count: per node a
ThymesisFlow endpoint whose exposed window is the store's region, an RPC
server with the :class:`~repro.core.service.StoreService`, and for every
ordered node pair a gRPC-style channel and a mapped aperture. The paper's
prototype is the 2-node instance; "the current system design allows for
this [multi-node] modification" — here it is.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.chaos import ChaosRuntime, FaultPlan
from repro.common.clock import SimClock
from repro.common.config import ClusterConfig, cluster_node_names
from repro.common.errors import ObjectStoreError, PlacementError, RpcStatusError
from repro.common.ids import UniqueIDGenerator
from repro.common.rng import DeterministicRng
from repro.core.client import DisaggregatedClient
from repro.core.health import CircuitBreaker, HealthMonitor
from repro.core.remote import PeerHandle
from repro.core.service import StoreService
from repro.core.store import DisaggregatedStore
from repro.network.ipc import IpcChannel
from repro.obs.correlation import CorrelationContext
from repro.obs.export import Telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanSink
from repro.placement.membership import Membership, NodeStatus, TopologyView
from repro.placement.migrate import MigrationEngine
from repro.placement.rebalance import Rebalancer
from repro.placement.ring import HashRing
from repro.rpc.aio import EventLoop
from repro.rpc.channel import Channel
from repro.rpc.overload import OverloadModel
from repro.rpc.server import RpcServer
from repro.rpc.status import StatusCode
from repro.thymesisflow.fabric import ThymesisFabric
from repro.tier import TierAgent, TierEngine


@dataclass
class ClusterNode:
    """Everything standing on one node."""

    name: str
    store: DisaggregatedStore
    server: RpcServer
    ipc: IpcChannel
    monitor: HealthMonitor
    channels: dict[str, Channel] = field(default_factory=dict)

    @property
    def endpoint(self):
        return self.store.endpoint


class Cluster:
    """A running mesh of disaggregated Plasma stores.

    Everything about its shape comes from one :class:`ClusterConfig`;
    *nodes* is a count (``node0``, ``node1``, ...) or the names, and an
    optional *fault_plan* arms the chaos runtime.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        nodes: int | Sequence[str] = 2,
        *,
        fault_plan: FaultPlan | None = None,
    ):
        self._config = config = config or ClusterConfig()
        node_names = cluster_node_names(nodes)
        config.validate(node_names)
        # Correlation ids only exist where something reads them — span
        # args (the metrics plane never does); otherwise every component
        # keeps its None fast path.
        self._correlation = CorrelationContext() if config.tracing else None
        self._clock = SimClock()
        self._rng = DeterministicRng(config.seed)
        # One event loop serves the whole mesh (repro.rpc.aio). Building it
        # draws nothing from the RNG — rng.spawn() is hash-derived — and
        # nothing schedules on it until a caller runs an op as a task, so
        # every inline run (and artifact) is bit-identical to a pre-loop
        # build.
        self._loop = EventLoop(self._clock, self._rng)
        # The span sink draws its head-sampling decisions from a dedicated
        # child of the RNG tree, so enabling tracing never perturbs any
        # simulation stream (and the clock listener only *reads* time):
        # simulated results are bit-identical with tracing on or off.
        self._spans: SpanSink | None = None
        if config.tracing is not None:
            self._spans = SpanSink(
                self._clock, self._rng.spawn("obs", "spans"), config.tracing
            )
        self._chaos: ChaosRuntime | None = None
        if fault_plan is not None:
            fault_plan.validate(node_names)
            self._chaos = ChaosRuntime(fault_plan, self._clock, config.chaos)
        self._id_gen = UniqueIDGenerator(self._rng.spawn("object-ids"))
        self._fabric = ThymesisFabric(
            self._clock, config.fabric, config.local_memory, self._rng
        )
        self._nodes: dict[str, ClusterNode] = {}
        self._client_seq = 0
        # Tiering (repro.tier): per-node agents built alongside the stores;
        # the promotion/demotion engine follows in phase 5 (it needs the
        # placement plane's migration machinery).
        self._tier_agents: dict[str, TierAgent] = {}
        self._tier_engine: TierEngine | None = None

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

        # Phase 3: metadata channels and peers.
        for reader_name in node_names:
            for home_name in node_names:
                if reader_name != home_name:
                    self._link_pair(reader_name, home_name)

        # Phase 4: health monitors (heartbeat failure detection) over the
        # per-pair channels.
        for node in self._nodes.values():
            self._watch(node, sorted(node.channels))

        # Phase 5: elastic placement (opt-in). Membership starts with every
        # seed node ACTIVE at the placement config's weights (1.0 unless a
        # heterogeneous cluster names them). The epoch-1 view is installed
        # on each store before any client routes a create.
        self._membership: Membership | None = None
        self._engine: MigrationEngine | None = None
        self._rebalancer: Rebalancer | None = None
        self._placement_ring: HashRing | None = None
        pcfg = config.placement
        if pcfg is not None:
            self._membership = Membership(node_names, weights=pcfg.weights)
            self._engine = MigrationEngine(self._clock, spans=self._spans)
            self._rebalancer = Rebalancer(
                self,
                self._engine,
                bytes_per_tick=pcfg.rebalance_bytes_per_tick,
            )
            for node in self._nodes.values():
                node.store.enable_placement()
            self._publish_topology()
            if config.tier is not None:
                self._tier_engine = TierEngine(
                    self, self._engine, self._tier_agents, config.tier
                )

        # Phase 6: metrics plane (opt-in). One registry per node plus one
        # for the shared fabric; everything binds once, here, so hot paths
        # stay branch-on-None.
        self._registries: dict[str, MetricsRegistry] = {}
        self._telemetry: Telemetry | None = None
        if config.metrics:
            fabric_registry = MetricsRegistry(node="fabric")
            for link in self._fabric.links():
                link.attach_metrics(fabric_registry)
            for name, node in self._nodes.items():
                registry = MetricsRegistry(node=name)
                self._attach_node_metrics(node, registry)
                self._registries[name] = registry
            self._registries["fabric"] = fabric_registry
            self._telemetry = Telemetry(self._registries)

    def _build_node(self, name: str) -> ClusterNode:
        """Construct one node's full stack (endpoint, exposed region, store,
        RPC server, IPC channel) and register it. Used for the seed set at
        build time and for every elastic :meth:`add_node` join."""
        size = self._config.store.capacity_bytes
        endpoint = self._fabric.add_node(name, size)
        exposed = endpoint.expose(0, size)
        store = self._new_store(name, endpoint)
        if self._config.tier is not None:
            agent = TierAgent(
                name,
                self._config.tier,
                self._config.local_memory,
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
            name=name,
            store=store,
            server=server,
            ipc=ipc,
            monitor=HealthMonitor(name, self._clock, self._config.health),
        )
        self._nodes[name] = node
        return node

    def _new_store(self, name: str, endpoint) -> DisaggregatedStore:
        """A store process over *endpoint*'s exposed region, observed and
        attached to the event loop — at build, join and restart alike."""
        store = DisaggregatedStore(
            name, endpoint, endpoint.exposed, self._config.store, self._clock
        )
        self._observe(store)
        store.attach_aio(self._loop)
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
        channel = Channel(
            reader_name,
            self._nodes[home_name].server,
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
        reader.store.connect_peer(
            PeerHandle(
                name=home_name,
                stub=channel.stub(StoreService.SERVICE_NAME),
                remote_region=self._remote_regions[(reader_name, home_name)],
            )
        )

    def _watch(self, node: ClusterNode, peers: list[str]) -> None:
        """Put *node*'s channels to *peers* under its health monitor."""
        for peer_name in peers:
            channel = node.channels[peer_name]
            node.monitor.add_peer(
                peer_name, channel.stub(StoreService.SERVICE_NAME), channel.breaker
            )

    def _attach_node_metrics(self, node: ClusterNode, registry: MetricsRegistry) -> None:
        node.store.attach_metrics(registry)
        node.server.attach_metrics(registry)
        registry.register_group(node.ipc.counters, "ipc")
        registry.register_group(
            node.endpoint.counters, "thymesisflow_endpoint"
        )
        for _, channel in sorted(node.channels.items()):
            channel.attach_metrics(registry)
        for (reader_name, home_name), region in sorted(self._remote_regions.items()):
            if reader_name == node.name:
                registry.register_group(
                    region.counters, "thymesisflow_aperture", home=home_name
                )
        node.monitor.attach_metrics(registry)

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
    def spans(self) -> SpanSink | None:
        """The span sink (None unless the config carries ``tracing``)."""
        return self._spans

    @property
    def chaos(self) -> ChaosRuntime | None:
        """The fault-injection runtime, when built with a fault_plan."""
        return self._chaos

    @property
    def correlation(self) -> CorrelationContext | None:
        """The shared correlation context (None unless tracing)."""
        return self._correlation

    def metrics(self) -> Telemetry:
        """The cluster-wide telemetry view (requires ``metrics=True``)."""
        if self._telemetry is None:
            raise ObjectStoreError(
                "cluster was built without metrics; build it from "
                "ClusterConfig(metrics=True) to enable the telemetry plane"
            )
        return self._telemetry

    def registry(self, node: str) -> MetricsRegistry:
        """One node's metric registry (requires ``metrics=True``)."""
        self.metrics()  # raises when the metrics plane is off
        return self._registries[node]

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
            out[name] = node.monitor.tick()
        if self._membership is not None:
            self._reconcile_membership()
        return out

    def monitor(self, name: str) -> HealthMonitor:
        return self.node(name).monitor

    def health_snapshot(self) -> dict[str, dict]:
        """Per-node view of peer health (breaker states, suspicion)."""
        return {name: node.monitor.snapshot() for name, node in self._nodes.items()}

    # -- elastic placement (repro.placement) --------------------------------------

    @property
    def placement_enabled(self) -> bool:
        return self._membership is not None

    @property
    def membership(self) -> Membership:
        """The authoritative membership record (requires a placement config)."""
        if self._membership is None:
            raise ObjectStoreError(
                "cluster was built without placement; build it from "
                "ClusterConfig(placement=PlacementConfig()) to enable elastic "
                "membership"
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
        return self._config.tier is not None

    @property
    def tier_engine(self) -> TierEngine | None:
        """The promotion/demotion engine (None unless the config carries
        both ``tier`` and ``placement``)."""
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
        self._placement_ring = HashRing.from_view(view)
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
        self._watch(node, sorted(node.channels))
        for other in existing:
            self._watch(self._nodes[other], [name])
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
        node.store.enable_placement()
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
        for peer_name, channel in sorted(node.channels.items()):
            store.connect_peer(
                PeerHandle(
                    name=peer_name,
                    stub=channel.stub(StoreService.SERVICE_NAME),
                    remote_region=self._remote_regions[(name, peer_name)],
                )
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
            store.enable_placement()
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

    def primary_holder(self, object_id, candidates: Sequence[str]) -> str | None:
        """The first of *candidates* (node names, in order) holding the
        object's live sealed primary extent — not a replica, not awaiting
        a deferred retire, not quarantined — or None."""
        for name in candidates:
            store = self.store(name)
            if object_id in store.deferred_retires() or store.is_replica(object_id):
                continue
            with store.table.lock:
                entry = store.table.lookup(object_id)
                if entry is not None and entry.is_sealed and not entry.quarantined:
                    return name
        return None

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
        return f"Cluster(nodes={self.node_names()})"
