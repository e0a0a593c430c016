"""Failure detection and degraded-mode machinery (heartbeats + breakers).

Three cooperating pieces, all driven by the cluster's single
:class:`~repro.common.clock.SimClock`:

* :class:`CircuitBreaker` — per-peer closed → open → half-open state
  machine. The channel consults it before every call: while open, calls
  fail fast for ~1 us of simulated time instead of a full 2.3 ms round
  trip, so a dead peer stops taxing every lookup. After a reset timeout the
  breaker admits a bounded number of probe calls (half-open); one success
  closes it, any failure re-opens it.
* :class:`PeerHealth` — per-peer record: breaker + last heartbeat ack.
* :class:`HealthMonitor` — one per node. :meth:`HealthMonitor.tick` sends a
  Heartbeat RPC to every peer whose interval elapsed (cost is charged like
  any other unary call) and tracks acknowledgements; a peer that has not
  answered within ``suspicion_timeout_ns`` is *suspected*. The simulation
  has no background threads, so ticks happen wherever the embedding
  workload chooses to pump them (``Cluster.health_tick()``).

The breaker counts *call-level* outcomes (a call that succeeds after
transparent retries is a success), so transient jitter never opens it —
only sustained unavailability does.
"""

from __future__ import annotations

import enum

from repro.common.clock import SimClock
from repro.common.config import HealthConfig
from repro.common.errors import RpcStatusError
from repro.obs.metrics import CounterGroup
from repro.rpc.status import StatusCode


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __str__(self) -> str:
        return self.value


class CircuitBreaker:
    """A per-peer circuit breaker over simulated time.

    The channel calls :meth:`allow` before each call, then exactly one of
    :meth:`record_success` / :meth:`record_failure` with the call's final
    outcome.
    """

    def __init__(self, clock: SimClock, config: HealthConfig, name: str = ""):
        self._clock = clock
        self._config = config
        self.name = name
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at_ns = 0
        self._half_open_in_flight = 0
        self.counters = CounterGroup()

    @property
    def state(self) -> BreakerState:
        return self._state

    @property
    def fail_fast_cost_ns(self) -> float:
        return self._config.breaker_fail_fast_ns

    def attach_metrics(self, registry, **labels: str) -> None:
        """Bind transition counters plus a sampled state gauge
        (0=closed, 1=open, 2=half-open)."""
        registry.register_group(self.counters, "rpc_breaker", **labels)
        state_code = {
            BreakerState.CLOSED: 0,
            BreakerState.OPEN: 1,
            BreakerState.HALF_OPEN: 2,
        }
        registry.gauge(
            "rpc_breaker_state",
            "Breaker state: 0=closed, 1=open, 2=half-open.",
            labels=tuple(sorted(labels)),
        ).labels(**labels).set_function(lambda: state_code[self._state])

    def allow(self) -> bool:
        """May a call proceed right now? (Open → False, except probes.)"""
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            waited = self._clock.now_ns - self._opened_at_ns
            if waited < self._config.breaker_reset_timeout_ns:
                self.counters.inc("rejected")
                return False
            # Reset timeout elapsed: admit probes.
            self._state = BreakerState.HALF_OPEN
            self._half_open_in_flight = 0
            self.counters.inc("half_opens")
        # HALF_OPEN: bounded number of concurrent probes.
        if self._half_open_in_flight >= self._config.breaker_half_open_probes:
            self.counters.inc("rejected")
            return False
        self._half_open_in_flight += 1
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self._state is not BreakerState.CLOSED:
            self.counters.inc("closes")
        self._state = BreakerState.CLOSED
        self._half_open_in_flight = 0

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._state is BreakerState.HALF_OPEN:
            self._trip()
        elif (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self._config.breaker_failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at_ns = self._clock.now_ns
        self._half_open_in_flight = 0
        self.counters.inc("opens")

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name or 'peer'}, {self._state}, "
            f"failures={self._consecutive_failures})"
        )


class PeerHealth:
    """What one node knows about one peer."""

    def __init__(self, name: str, stub, breaker: CircuitBreaker):
        self.name = name
        self.stub = stub
        self.breaker = breaker
        self.last_heartbeat_sent_ns: int | None = None
        self.last_ack_ns: int | None = None
        self.heartbeats_sent = 0
        self.heartbeats_missed = 0


class HealthMonitor:
    """Heartbeat-based failure detector for one node's peer set."""

    def __init__(self, node: str, clock: SimClock, config: HealthConfig):
        self._node = node
        self._clock = clock
        self._config = config
        self._peers: dict[str, PeerHealth] = {}
        self._registry = None
        self.counters = CounterGroup()

    @property
    def node(self) -> str:
        return self._node

    def attach_metrics(self, registry) -> None:
        """Bind heartbeat counters and per-peer suspicion gauges. Peers
        added later (elastic join) get their gauge on :meth:`add_peer`."""
        self._registry = registry
        registry.register_group(self.counters, "health")
        for name in self.peers():
            self._register_suspect_gauge(name)

    def _register_suspect_gauge(self, name: str) -> None:
        suspect = self._registry.gauge(
            "health_peer_suspect",
            "1 while the peer is suspected dead (silent past timeout).",
            labels=("peer",),
        )
        suspect.labels(peer=name).set_function(
            lambda n=name: 1.0 if self.is_suspect(n) else 0.0
        )

    def add_peer(self, name: str, stub, breaker: CircuitBreaker) -> None:
        if name in self._peers:
            raise ValueError(f"{self._node} already monitors {name}")
        self._peers[name] = PeerHealth(name, stub, breaker)
        if self._registry is not None:
            self._register_suspect_gauge(name)

    def remove_peer(self, name: str) -> None:
        """Stop monitoring *name* (it left the cluster). Unknown names are
        a no-op so teardown paths can call this unconditionally."""
        self._peers.pop(name, None)

    def peer(self, name: str) -> PeerHealth:
        return self._peers[name]

    def peers(self) -> list[str]:
        return sorted(self._peers)

    def breaker(self, name: str) -> CircuitBreaker:
        return self._peers[name].breaker

    # -- heartbeating ------------------------------------------------------------

    def tick(self) -> dict[str, bool]:
        """Send heartbeats to every peer whose interval elapsed.

        Returns {peer: answered} for the peers probed this tick. Each probe
        is a real unary call (full cost model, retries, breaker) — failure
        detection is not free, which is the point of the interval.
        """
        now = self._clock.now_ns
        probed: dict[str, bool] = {}
        for name in self.peers():
            health = self._peers[name]
            last = health.last_heartbeat_sent_ns
            if last is not None and now - last < self._config.heartbeat_interval_ns:
                continue
            health.last_heartbeat_sent_ns = self._clock.now_ns
            health.heartbeats_sent += 1
            self.counters.inc("heartbeats_sent")
            try:
                health.stub.Heartbeat({"from": self._node})
            except RpcStatusError as exc:
                if exc.code is StatusCode.RESOURCE_EXHAUSTED:
                    # The peer shed our heartbeat under overload — but a
                    # shed is an *answer*: the process is alive. Treating
                    # it as a miss would let saturation masquerade as
                    # death and trigger spurious failover.
                    self.counters.inc("heartbeats_shed")
                    health.last_ack_ns = self._clock.now_ns
                    probed[name] = True
                    continue
                if exc.code in (
                    StatusCode.UNAVAILABLE,
                    StatusCode.DEADLINE_EXCEEDED,
                ):
                    health.heartbeats_missed += 1
                    self.counters.inc("heartbeats_missed")
                    probed[name] = False
                    continue
                raise
            health.last_ack_ns = self._clock.now_ns
            probed[name] = True
        return probed

    def is_suspect(self, name: str) -> bool:
        """True once the peer has gone silent past the suspicion timeout.

        A peer we never heard from is judged from the first probe we sent
        it; a peer we never probed is given the benefit of the doubt. A
        name no longer monitored (it left the cluster) is not suspect —
        suspicion gauges registered for it keep reading 0.
        """
        health = self._peers.get(name)
        if health is None:
            return False
        reference = (
            health.last_ack_ns
            if health.last_ack_ns is not None
            else health.last_heartbeat_sent_ns
        )
        if reference is None:
            return False
        return (
            self._clock.now_ns - reference > self._config.suspicion_timeout_ns
        )

    def suspects(self) -> list[str]:
        return [name for name in self.peers() if self.is_suspect(name)]

    def snapshot(self) -> dict[str, dict]:
        """Per-peer health view (CLI / debugging)."""
        out: dict[str, dict] = {}
        for name in self.peers():
            health = self._peers[name]
            out[name] = {
                "breaker": str(health.breaker.state),
                "suspect": self.is_suspect(name),
                "heartbeats_sent": health.heartbeats_sent,
                "heartbeats_missed": health.heartbeats_missed,
                "last_ack_ns": health.last_ack_ns,
            }
        return out

    def __repr__(self) -> str:
        return f"HealthMonitor({self._node}, peers={self.peers()})"
