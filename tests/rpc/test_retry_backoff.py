"""Channel resilience: exponential backoff, deadlines, breaker gating,
chaos-driven transport silence — and the accounting behind all of it."""

import pytest

from repro.chaos import ChaosRuntime, FaultPlan, NodeCrash, RpcBlackhole
from repro.common.clock import SimClock
from repro.common.config import ChaosConfig, HealthConfig, RpcConfig
from repro.common.errors import RpcStatusError
from repro.common.rng import DeterministicRng
from repro.core.health import BreakerState, CircuitBreaker
from repro.rpc import Channel, RpcServer, Service, StatusCode, rpc_method
from repro.rpc.codec import encode_message


class PingService(Service):
    SERVICE_NAME = "test.Ping"

    def __init__(self):
        self.calls = 0

    @rpc_method
    def Ping(self, request: dict) -> dict:
        self.calls += 1
        return {"pong": True}


def make_channel(clock=None, seed=7, server=None, **overrides):
    clock = clock or SimClock()
    if server is None:
        server = RpcServer("peer")
        server.add_service(PingService())
    defaults = dict(
        jitter_sigma=0.0, retry_backoff_jitter_sigma=0.0, max_retries=2
    )
    defaults.update(overrides)
    config = RpcConfig(**defaults)
    channel = Channel("me", server, clock, config, DeterministicRng(seed))
    return channel, server, clock, config


def expected_failed_call_ns(config, request: dict | None = None) -> float:
    """Simulated time a fully failed unary call costs with zero jitter:
    every attempt charges a round trip (+ request marshalling), every gap
    charges the exponential backoff."""
    wire = len(encode_message(request or {}))
    attempts = 1 + config.max_retries
    cost = attempts * (config.round_trip_ns + wire * config.per_byte_ns)
    for retry in range(config.max_retries):
        cost += min(
            config.retry_initial_backoff_ns
            * config.retry_backoff_multiplier**retry,
            config.retry_max_backoff_ns,
        )
    return cost


class TestBackoffAccounting:
    def test_counters_on_exhausted_retries(self):
        channel, _, _, _ = make_channel(inject_failure_rate=1.0, max_retries=2)
        with pytest.raises(RpcStatusError) as exc:
            channel.unary_call("test.Ping", "Ping")
        assert exc.value.code is StatusCode.UNAVAILABLE
        assert "3 attempts" in str(exc.value)
        assert channel.counters.attempts_failed == 3
        assert channel.counters.retries == 2
        assert channel.counters.calls_failed == 1
        assert channel.counters.calls == 0  # nothing dispatched

    def test_each_attempt_and_backoff_charged_exactly(self):
        channel, _, clock, config = make_channel(
            inject_failure_rate=1.0, max_retries=3
        )
        with pytest.raises(RpcStatusError):
            channel.unary_call("test.Ping", "Ping")
        # Each clock.advance truncates to whole ns — one ns slack per charge.
        assert clock.now_ns == pytest.approx(
            expected_failed_call_ns(config), abs=2 * (1 + config.max_retries)
        )

    def test_backoff_grows_then_caps(self):
        channel, _, clock, config = make_channel(
            inject_failure_rate=1.0,
            max_retries=6,
            retry_initial_backoff_ns=1_000.0,
            retry_backoff_multiplier=10.0,
            retry_max_backoff_ns=50_000.0,
        )
        with pytest.raises(RpcStatusError):
            channel.unary_call("test.Ping", "Ping")
        # 1k + 10k + 50k(cap) + 50k + 50k + 50k of backoff.
        assert clock.now_ns == pytest.approx(
            expected_failed_call_ns(config), abs=2 * (1 + config.max_retries)
        )

    def test_success_path_draws_no_backoff_rng(self):
        # Two channels, same seed: one plain call each; then one channel
        # makes a failing call. The first calls must have consumed identical
        # randomness (backoff jitter only triggers on retries).
        a, _, clock_a, _ = make_channel(seed=11, jitter_sigma=0.25)
        b, _, clock_b, _ = make_channel(seed=11, jitter_sigma=0.25)
        a.unary_call("test.Ping", "Ping")
        b.unary_call("test.Ping", "Ping")
        assert clock_a.now_ns == clock_b.now_ns

    def test_same_seed_same_outcome_under_faults(self):
        def run():
            channel, server, clock, _ = make_channel(
                seed=5, inject_failure_rate=0.4, max_retries=4
            )
            failures = 0
            for _ in range(50):
                try:
                    channel.unary_call("test.Ping", "Ping")
                except RpcStatusError:
                    failures += 1
            return clock.now_ns, failures, channel.counters.snapshot()

        assert run() == run()


class TestDeadlines:
    def test_deadline_bounds_a_blackholed_call(self):
        clock = SimClock()
        plan = FaultPlan([RpcBlackhole(at_ns=0, duration_ns=10**12)])
        chaos = ChaosRuntime(plan, clock, ChaosConfig())
        server = RpcServer("peer")
        server.add_service(PingService())
        config = RpcConfig(jitter_sigma=0.0, retry_backoff_jitter_sigma=0.0)
        channel = Channel(
            "me", server, clock, config, DeterministicRng(1), chaos=chaos
        )
        deadline = 5_000_000.0
        with pytest.raises(RpcStatusError) as exc:
            channel.unary_call("test.Ping", "Ping", deadline_ns=deadline)
        assert exc.value.code is StatusCode.DEADLINE_EXCEEDED
        assert clock.now_ns == pytest.approx(deadline)  # charged, capped
        assert channel.counters.deadline_exceeded == 1

    def test_default_deadline_from_config(self):
        channel, _, clock, _ = make_channel(
            inject_failure_rate=1.0,
            max_retries=10_000,
            default_deadline_ns=2_000_000.0,
        )
        with pytest.raises(RpcStatusError) as exc:
            channel.unary_call("test.Ping", "Ping")
        assert exc.value.code is StatusCode.DEADLINE_EXCEEDED
        assert clock.now_ns == pytest.approx(2_000_000.0)

    def test_fast_call_unaffected_by_deadline(self):
        channel, server, _, _ = make_channel()
        response = channel.unary_call(
            "test.Ping", "Ping", deadline_ns=50_000_000.0
        )
        assert response == {"pong": True}

    def test_blackholed_attempt_waits_connect_timeout_without_deadline(self):
        clock = SimClock()
        chaos_cfg = ChaosConfig(blackhole_timeout_ns=1_000_000.0)
        plan = FaultPlan([RpcBlackhole(at_ns=0, duration_ns=10**12)])
        chaos = ChaosRuntime(plan, clock, chaos_cfg)
        server = RpcServer("peer")
        server.add_service(PingService())
        config = RpcConfig(
            jitter_sigma=0.0,
            retry_backoff_jitter_sigma=0.0,
            max_retries=2,
            retry_initial_backoff_ns=0.0,
        )
        channel = Channel(
            "me", server, clock, config, DeterministicRng(1), chaos=chaos
        )
        with pytest.raises(RpcStatusError) as exc:
            channel.unary_call("test.Ping", "Ping")
        assert exc.value.code is StatusCode.UNAVAILABLE
        assert "no response" in str(exc.value)
        assert clock.now_ns == pytest.approx(3 * 1_000_000.0)


class TestServerUnavailableRetry:
    def test_dead_server_is_retried_then_surfaces(self):
        channel, server, _, _ = make_channel()
        server.shutdown()
        with pytest.raises(RpcStatusError) as exc:
            channel.unary_call("test.Ping", "Ping")
        assert exc.value.code is StatusCode.UNAVAILABLE
        assert channel.counters.attempts_failed == 3

    def test_server_back_mid_retry_succeeds(self):
        class FlakyServer(RpcServer):
            def __init__(self):
                super().__init__("peer")
                self.dispatches = 0

            def dispatch(self, service, method, request):
                self.dispatches += 1
                if self.dispatches == 1:
                    return StatusCode.UNAVAILABLE, None, "starting up"
                return super().dispatch(service, method, request)

        server = FlakyServer()
        server.add_service(PingService())
        channel, _, _, _ = make_channel(server=server)
        assert channel.unary_call("test.Ping", "Ping") == {"pong": True}
        assert channel.counters.retries == 1


class TestBreakerGating:
    def make_gated(self, clock=None, **overrides):
        clock = clock or SimClock()
        server = RpcServer("peer")
        server.add_service(PingService())
        hcfg = HealthConfig(breaker_failure_threshold=2)
        breaker = CircuitBreaker(clock, hcfg, name="me->peer")
        defaults = dict(
            jitter_sigma=0.0, retry_backoff_jitter_sigma=0.0, max_retries=0
        )
        defaults.update(overrides)
        channel = Channel(
            "me",
            server,
            clock,
            RpcConfig(**defaults),
            DeterministicRng(3),
            breaker=breaker,
        )
        return channel, server, breaker, clock

    def test_open_breaker_fails_fast(self):
        channel, server, breaker, clock = self.make_gated()
        server.shutdown()
        for _ in range(2):
            with pytest.raises(RpcStatusError):
                channel.unary_call("test.Ping", "Ping")
        assert breaker.state is BreakerState.OPEN
        t0 = clock.now_ns
        with pytest.raises(RpcStatusError, match="circuit breaker open"):
            channel.unary_call("test.Ping", "Ping")
        assert clock.now_ns - t0 == pytest.approx(breaker.fail_fast_cost_ns)
        assert channel.counters.breaker_rejections == 1

    def test_probe_after_reset_closes_on_recovery(self):
        channel, server, breaker, clock = self.make_gated()
        server.shutdown()
        for _ in range(2):
            with pytest.raises(RpcStatusError):
                channel.unary_call("test.Ping", "Ping")
        server.restart()
        clock.advance(HealthConfig().breaker_reset_timeout_ns)
        assert channel.unary_call("test.Ping", "Ping") == {"pong": True}
        assert breaker.state is BreakerState.CLOSED

    def test_application_errors_count_as_peer_alive(self):
        channel, server, breaker, _ = self.make_gated()
        for _ in range(5):
            with pytest.raises(RpcStatusError) as exc:
                channel.unary_call("test.Ping", "Missing")
            assert exc.value.code is StatusCode.UNIMPLEMENTED
        # The peer answered every time — never trip on its answers.
        assert breaker.state is BreakerState.CLOSED


class TestStreamFaultPath:
    def test_stream_establishment_failures_retry_and_surface(self):
        channel, server, clock, config = make_channel(
            inject_failure_rate=1.0, max_retries=2
        )
        with pytest.raises(RpcStatusError) as exc:
            channel.stream_call("test.Ping", "Ping", [{}, {}, {}])
        assert exc.value.code is StatusCode.UNAVAILABLE
        assert "3 attempts" in str(exc.value)
        assert channel.counters.attempts_failed == 3
        assert channel.counters.calls == 0
        # Each wasted attempt charges one round trip plus backoff gaps.
        assert clock.now_ns >= 3 * config.round_trip_ns

    def test_stream_handler_untouched_by_failed_establishment(self):
        clock = SimClock()
        server = RpcServer("peer")
        svc = PingService()
        server.add_service(svc)
        channel, _, _, _ = make_channel(
            clock=clock, server=server, inject_failure_rate=1.0, max_retries=1
        )
        with pytest.raises(RpcStatusError):
            channel.stream_call("test.Ping", "Ping", [{}] * 4)
        assert svc.calls == 0

    def test_stream_retries_mask_transient_faults(self):
        server = RpcServer("peer")
        svc = PingService()
        server.add_service(svc)
        channel, _, _, _ = make_channel(
            server=server, seed=2, inject_failure_rate=0.5, max_retries=8
        )
        for _ in range(10):
            responses = channel.stream_call("test.Ping", "Ping", [{}, {}])
            assert responses == [{"pong": True}, {"pong": True}]
        assert svc.calls == 20

    def test_stream_respects_deadline(self):
        channel, _, clock, _ = make_channel(
            inject_failure_rate=1.0,
            max_retries=10_000,
            default_deadline_ns=3_000_000.0,
        )
        with pytest.raises(RpcStatusError) as exc:
            channel.stream_call("test.Ping", "Ping", [{}])
        assert exc.value.code is StatusCode.DEADLINE_EXCEEDED
        assert clock.now_ns == pytest.approx(3_000_000.0)

    def test_stream_breaker_gated(self):
        clock = SimClock()
        server = RpcServer("peer")
        server.add_service(PingService())
        breaker = CircuitBreaker(
            clock, HealthConfig(breaker_failure_threshold=1), name="me->peer"
        )
        channel = Channel(
            "me",
            server,
            clock,
            RpcConfig(jitter_sigma=0.0, max_retries=0),
            DeterministicRng(4),
            breaker=breaker,
        )
        server.shutdown()
        with pytest.raises(RpcStatusError):
            channel.stream_call("test.Ping", "Ping", [{}])
        assert breaker.state is BreakerState.OPEN
        with pytest.raises(RpcStatusError, match="circuit breaker open"):
            channel.stream_call("test.Ping", "Ping", [{}])
