"""CircuitBreaker state machine and heartbeat failure detection."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import HealthConfig
from repro.core.health import BreakerState, CircuitBreaker, HealthMonitor


@pytest.fixture
def hcfg():
    return HealthConfig(
        heartbeat_interval_ns=1_000_000,
        suspicion_timeout_ns=5_000_000,
        breaker_failure_threshold=3,
        breaker_reset_timeout_ns=10_000_000,
        breaker_half_open_probes=1,
    )


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self, hcfg):
        breaker = CircuitBreaker(SimClock(), hcfg)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_failures_below_threshold_keep_it_closed(self, hcfg):
        breaker = CircuitBreaker(SimClock(), hcfg)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_opens_at_threshold_and_rejects(self, hcfg):
        breaker = CircuitBreaker(SimClock(), hcfg)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.counters.opens == 1
        assert breaker.counters.rejected == 1
        assert breaker.fail_fast_cost_ns == hcfg.breaker_fail_fast_ns

    def test_half_open_after_reset_timeout(self, hcfg):
        clock = SimClock()
        breaker = CircuitBreaker(clock, hcfg)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(hcfg.breaker_reset_timeout_ns)
        assert breaker.allow()  # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow()  # only one probe admitted
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self, hcfg):
        clock = SimClock()
        breaker = CircuitBreaker(clock, hcfg)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(hcfg.breaker_reset_timeout_ns)
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()  # reset timer restarted
        assert breaker.counters.opens == 2


class TestHealthMonitorUnit:
    class AliveStub:
        def __init__(self):
            self.calls = 0

        def Heartbeat(self, request):
            self.calls += 1
            return {}

    def test_tick_respects_interval(self, hcfg):
        clock = SimClock()
        monitor = HealthMonitor("n0", clock, hcfg)
        stub = self.AliveStub()
        monitor.add_peer("n1", stub, CircuitBreaker(clock, hcfg))
        assert monitor.tick() == {"n1": True}
        assert monitor.tick() == {}  # interval not elapsed
        clock.advance(hcfg.heartbeat_interval_ns)
        assert monitor.tick() == {"n1": True}
        assert stub.calls == 2

    def test_duplicate_peer_rejected(self, hcfg):
        clock = SimClock()
        monitor = HealthMonitor("n0", clock, hcfg)
        monitor.add_peer("n1", self.AliveStub(), CircuitBreaker(clock, hcfg))
        with pytest.raises(ValueError):
            monitor.add_peer("n1", self.AliveStub(), CircuitBreaker(clock, hcfg))

    def test_never_probed_peer_is_not_suspect(self, hcfg):
        clock = SimClock()
        monitor = HealthMonitor("n0", clock, hcfg)
        monitor.add_peer("n1", self.AliveStub(), CircuitBreaker(clock, hcfg))
        clock.advance(10 * hcfg.suspicion_timeout_ns)
        assert not monitor.is_suspect("n1")


class TestHealthInCluster:
    def test_crashed_peer_becomes_suspect(self, cluster):
        cluster.node("node1").server.shutdown()
        monitor = cluster.monitor("node0")
        cfg = cluster.config.health
        probed = cluster.health_tick()
        assert probed["node0"] == {"node1": False}
        assert probed["node1"] == {"node0": True}
        # Silence past the suspicion timeout flips the verdict.
        assert not monitor.is_suspect("node1")
        cluster.clock.advance(cfg.suspicion_timeout_ns + 1)
        assert monitor.is_suspect("node1")
        assert monitor.suspects() == ["node1"]

    def test_recovered_peer_is_cleared(self, cluster):
        cfg = cluster.config.health
        cluster.node("node1").server.shutdown()
        cluster.health_tick()
        cluster.clock.advance(cfg.suspicion_timeout_ns + 1)
        assert cluster.monitor("node0").is_suspect("node1")
        cluster.node("node1").server.restart()
        cluster.health_tick()  # interval elapsed; fresh ack
        assert not cluster.monitor("node0").is_suspect("node1")

    def test_snapshot_shape(self, cluster):
        cluster.health_tick()
        snap = cluster.health_snapshot()
        view = snap["node0"]["node1"]
        assert view["breaker"] == "closed"
        assert view["suspect"] is False
        assert view["heartbeats_sent"] == 1
        assert view["heartbeats_missed"] == 0
        assert view["last_ack_ns"] is not None

    def test_heartbeats_cost_simulated_time(self, cluster):
        t0 = cluster.clock.now_ns
        cluster.health_tick()
        assert cluster.clock.now_ns > t0
