"""The chaos runtime: applies a :class:`~repro.chaos.plan.FaultPlan` to a
running cluster as simulated time passes.

The simulation is synchronous — there is no background thread to fire
events — so the runtime is *polled*: every instrumented component (RPC
channels, OpenCAPI links, the LAN) calls :meth:`ChaosRuntime.poll` before
charging work, which applies every event whose time has come. Events
therefore take effect at the first modelled operation at-or-after their
scheduled instant, which is exactly when a fault becomes *observable* in a
discrete-event world.

Determinism: event application order is fixed by the plan, component state
mutations are pure functions of the event, and the applied-event log can be
compared across runs (the chaos benchmarks assert byte-identical
timelines).
"""

from __future__ import annotations

from collections import deque

from repro.common.clock import SimClock
from repro.common.config import ChaosConfig
from repro.chaos.plan import (
    BitFlip,
    FaultEvent,
    FaultPlan,
    LinkDegrade,
    LinkHeal,
    LinkPartition,
    LinkRestore,
    NodeCrash,
    NodeRestart,
    OverloadBurst,
    RpcBlackhole,
)


class ChaosRuntime:
    """Applies fault events to attached components and answers reachability
    queries for the RPC layer."""

    def __init__(
        self,
        plan: FaultPlan,
        clock: SimClock,
        config: ChaosConfig | None = None,
    ):
        self._plan = plan
        self._clock = clock
        self._config = config or ChaosConfig()
        self._pending: deque[FaultEvent] = deque(plan.events)
        self.applied: list[FaultEvent] = []
        self._servers: dict[str, object] = {}   # node -> RpcServer
        self._regions: dict[str, object] = {}   # node -> exposed MemoryRegion
        self._links: dict[frozenset, object] = {}  # {a,b} -> OpenCapiLink
        self._crashed: set[str] = set()
        self._partitioned: set[frozenset] = set()
        self._blackholes: list[RpcBlackhole] = []

    # -- wiring ------------------------------------------------------------------

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def config(self) -> ChaosConfig:
        return self._config

    @property
    def unanswered_wait_ns(self) -> float:
        """How long a swallowed RPC attempt costs the caller (capped by any
        per-call deadline at the channel)."""
        return self._config.blackhole_timeout_ns

    def attach_server(self, node: str, server) -> None:
        self._servers[node] = server

    def attach_region(self, node: str, region) -> None:
        """Register a node's exposed memory so BitFlip events can corrupt
        it in place (offsets in the plan are exposed-region-relative)."""
        self._regions[node] = region

    def attach_link(self, link) -> None:
        self._links[link.endpoints] = link
        link.chaos = self

    def inject(self, *events: FaultEvent) -> None:
        """Merge targeted events into the pending schedule at runtime.

        Some faults cannot be planned up front — a :class:`BitFlip` needs
        an offset inside a live object, which exists only after the
        workload has run. Injection keeps determinism: the merged schedule
        is re-sorted by the same (time, repr) key plan construction uses.
        """
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"not a FaultEvent: {event!r}")
        self._pending = deque(
            sorted((*self._pending, *events), key=lambda e: (e.at_ns, repr(e)))
        )

    # -- event application ---------------------------------------------------------

    def poll(self) -> int:
        """Apply every event due at the current simulated time; returns how
        many were applied."""
        now = self._clock.now_ns
        applied = 0
        while self._pending and self._pending[0].at_ns <= now:
            event = self._pending.popleft()
            self._apply(event)
            self.applied.append(event)
            applied += 1
        return applied

    def _apply(self, event: FaultEvent) -> None:
        if isinstance(event, NodeCrash):
            self._crashed.add(event.node)
            server = self._servers.get(event.node)
            if server is not None:
                server.shutdown()
        elif isinstance(event, NodeRestart):
            self._crashed.discard(event.node)
            server = self._servers.get(event.node)
            if server is not None:
                server.restart()
        elif isinstance(event, LinkPartition):
            self._partitioned.add(event.pair)
            link = self._links.get(event.pair)
            if link is not None:
                link.set_partitioned(True)
        elif isinstance(event, LinkHeal):
            self._partitioned.discard(event.pair)
            link = self._links.get(event.pair)
            if link is not None:
                link.set_partitioned(False)
        elif isinstance(event, LinkDegrade):
            link = self._links.get(event.pair)
            if link is not None:
                link.set_degradation(
                    bandwidth_factor=event.bandwidth_factor,
                    latency_factor=event.latency_factor,
                )
        elif isinstance(event, LinkRestore):
            link = self._links.get(event.pair)
            if link is not None:
                link.set_degradation(bandwidth_factor=1.0, latency_factor=1.0)
        elif isinstance(event, RpcBlackhole):
            self._blackholes.append(event)
        elif isinstance(event, BitFlip):
            region = self._regions.get(event.node)
            if region is not None:
                view = region.view(event.offset, 1)
                view[0] ^= 1 << event.bit
        elif isinstance(event, OverloadBurst):
            server = self._servers.get(event.node)
            overload = getattr(server, "overload", None)
            if overload is not None:
                overload.add_backlog(event.backlog_ms * 1e6)
        else:  # pragma: no cover - plan validation prevents this
            raise TypeError(f"unknown fault event {event!r}")

    # -- queries -----------------------------------------------------------------

    def node_crashed(self, node: str) -> bool:
        return node in self._crashed

    def partitioned(self, node_a: str, node_b: str) -> bool:
        return frozenset((node_a, node_b)) in self._partitioned

    def rpc_allowed(self, src: str, dst: str) -> bool:
        """False while a transport-level fault swallows src→dst attempts
        (partition or active blackhole window). A *crashed* destination is
        deliberately not handled here: its RpcServer answers UNAVAILABLE
        itself, modelling a connection refused rather than a silent drop.
        """
        if self.partitioned(src, dst):
            return False
        now = self._clock.now_ns
        for hole in self._blackholes:
            if hole.at_ns <= now < hole.until_ns:
                if hole.src in ("*", src) and hole.dst in ("*", dst):
                    return False
        return True

    def pending_events(self) -> int:
        return len(self._pending)

    def timeline(self) -> list[str]:
        """Applied events, in application order (deterministic across
        same-seed runs)."""
        return [event.describe() for event in self.applied]

    def __repr__(self) -> str:
        return (
            f"ChaosRuntime(applied={len(self.applied)}, "
            f"pending={len(self._pending)}, crashed={sorted(self._crashed)})"
        )
