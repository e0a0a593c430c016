"""Overload control units: OverloadModel, RetryBudget, DeadlineBudget,
server admission gate, and the channel-side shed/budget behaviour."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import OverloadConfig, RpcConfig
from repro.common.errors import ServerOverloadedError
from repro.common.rng import DeterministicRng
from repro.rpc import Channel, RpcServer, Service, StatusCode, rpc_method
from repro.rpc.overload import DeadlineBudget, OverloadModel, RetryBudget

MS = 1_000_000


class EchoService(Service):
    SERVICE_NAME = "test.Echo"

    @rpc_method
    def Echo(self, request: dict) -> dict:
        return {"echo": request.get("msg", "")}


def make_model(clock, rate=100.0, depth=4, discipline="fifo", shed=True):
    config = OverloadConfig(
        service_rate_ops_per_s=rate,
        queue_depth=depth,
        queue_discipline=discipline,
        shed_expired=shed,
    )
    return OverloadModel(clock, config, name="node-t")


class TestOverloadModel:
    def test_inactive_model_admits_for_free(self):
        clock = SimClock()
        model = OverloadModel(clock, None)
        model.set_service_rate(0.0)
        decision = model.admit(clock.now_ns)
        assert decision.admitted and decision.delay_ns == 0
        assert model.counters.admitted == 0  # fast path, no stats
        assert not model.active

    def test_admission_pushes_backlog_one_service_time(self):
        clock = SimClock()
        model = make_model(clock, rate=100.0)  # 10 ms service time
        assert model.admit(clock.now_ns).admitted
        assert model.backlog_ns() == pytest.approx(10 * MS)
        second = model.admit(clock.now_ns)
        assert second.admitted
        # FIFO: the second arrival waits out the first's service time.
        assert second.delay_ns == pytest.approx(10 * MS)
        assert model.queue_len() == 2

    def test_lifo_waits_at_most_one_service_time(self):
        clock = SimClock()
        model = make_model(clock, rate=100.0, discipline="lifo", depth=64)
        for _ in range(5):
            decision = model.admit(clock.now_ns)
        assert decision.admitted
        assert decision.delay_ns == pytest.approx(10 * MS)

    def test_queue_full_sheds_resource_exhausted(self):
        clock = SimClock()
        model = make_model(clock, rate=100.0, depth=4)
        for _ in range(4):
            assert model.admit(clock.now_ns).admitted
        decision = model.admit(clock.now_ns)
        assert not decision.admitted
        assert decision.reason == "queue-full"
        assert model.counters.shed_queue_full == 1
        # Shedding left the watermark untouched: rejection is cheap.
        assert model.queue_len() == 4

    def test_expired_budget_shed_before_servicing(self):
        clock = SimClock()
        model = make_model(clock, rate=100.0)
        decision = model.admit(clock.now_ns, deadline_ns=0.0)
        assert not decision.admitted and decision.reason == "expired"

    def test_wont_finish_inside_budget_shed(self):
        clock = SimClock()
        model = make_model(clock, rate=100.0)
        assert model.admit(clock.now_ns).admitted  # 10 ms backlog
        decision = model.admit(clock.now_ns, deadline_ns=15 * MS)
        assert not decision.admitted and decision.reason == "wont-finish"
        assert model.counters.shed_expired == 1

    def test_shed_expired_off_admits_doomed_work(self):
        clock = SimClock()
        model = make_model(clock, rate=100.0, shed=False)
        assert model.admit(clock.now_ns).admitted
        assert model.admit(clock.now_ns, deadline_ns=1.0).admitted

    def test_burst_injects_backlog_and_drains_with_time(self):
        clock = SimClock()
        model = make_model(clock, rate=100.0)
        model.add_backlog(50 * MS)
        assert model.queue_len() == 5
        assert model.active
        clock.advance(60 * MS)
        assert model.queue_len() == 0
        assert model.backlog_ns() == 0.0

    def test_reset_forgets_queue(self):
        clock = SimClock()
        model = make_model(clock, rate=100.0)
        model.add_backlog(50 * MS)
        model.reset()
        assert model.backlog_ns() == 0.0

    def test_depth_sampled_for_sheds_too(self):
        clock = SimClock()
        model = make_model(clock, rate=100.0, depth=2)
        for _ in range(3):
            model.admit(clock.now_ns)
        # 2 admits (depths 0, 1) + 1 shed that saw the full queue (2).
        assert model.queue_samples.count == 3
        assert model.queue_samples.max == 2

    def test_replays_identically(self):
        def run():
            clock = SimClock()
            model = make_model(clock, rate=250.0, depth=3)
            out = []
            for step in range(12):
                decision = model.admit(clock.now_ns, deadline_ns=9 * MS)
                out.append((decision.admitted, decision.delay_ns, decision.reason))
                clock.advance((step % 3) * MS)
            return out, sorted(model.counters.snapshot().items())

        assert run() == run()


class TestRetryBudget:
    def test_rate_zero_is_unlimited(self):
        budget = RetryBudget(SimClock(), 0.0, 10)
        assert not budget.enabled
        assert all(budget.try_spend() for _ in range(100))

    def test_burst_then_dry(self):
        budget = RetryBudget(SimClock(), 10.0, 3)
        assert [budget.try_spend() for _ in range(4)] == [True] * 3 + [False]

    def test_tokens_refill_on_sim_time(self):
        clock = SimClock()
        budget = RetryBudget(clock, 10.0, 3)  # 10 tokens/s
        for _ in range(3):
            budget.try_spend()
        assert not budget.try_spend()
        clock.advance(100 * MS)  # exactly one token accrues
        assert budget.try_spend()
        assert not budget.try_spend()


class TestDeadlineBudget:
    def test_budget_shrinks_with_sim_time(self):
        clock = SimClock()
        budget = DeadlineBudget(clock, 50 * MS)
        assert budget.enabled
        clock.advance(20 * MS)
        assert budget.remaining_ns() == pytest.approx(30 * MS)
        assert budget.kwargs() == {"deadline_ns": pytest.approx(30 * MS)}

    def test_spent_budget_clamps_to_fail_fast(self):
        clock = SimClock()
        budget = DeadlineBudget(clock, 5 * MS)
        clock.advance(20 * MS)
        # 0 would read as "no deadline" downstream; 1 ns fails fast.
        assert budget.kwargs() == {"deadline_ns": 1.0}

    def test_disabled_without_default_deadline(self):
        clock = SimClock()
        budget = DeadlineBudget(clock, 0.0)
        assert not budget.enabled
        assert budget.kwargs() == {}

    def test_for_stub_reads_channel_default(self):
        class FakeChannel:
            default_deadline_ns = 25 * MS

        class FakeStub:
            channel = FakeChannel()

        clock = SimClock()
        budget = DeadlineBudget.for_stub(FakeStub(), clock)
        assert budget.remaining_ns() == pytest.approx(25 * MS)


def make_pair(clock, *, rate=0.0, depth=4, rpc=None):
    server = RpcServer("node-s")
    server.add_service(EchoService())
    server.clock = clock
    server.overload = OverloadModel(
        clock,
        OverloadConfig(service_rate_ops_per_s=rate, queue_depth=depth),
        name="node-s",
    )
    channel = Channel(
        "node-c",
        server,
        clock,
        rpc or RpcConfig(jitter_sigma=0.0),
        DeterministicRng(7),
    )
    return server, channel


class TestServerGate:
    def test_shed_returns_resource_exhausted_wire_status(self):
        clock = SimClock()
        server, _ = make_pair(clock, rate=100.0, depth=2)
        server.overload.add_backlog(100 * MS)
        status, _, detail = server.dispatch_wire("test.Echo", "Echo", b"\x00")
        assert status is StatusCode.RESOURCE_EXHAUSTED
        assert "queue full" in detail
        assert server.counters.calls_shed == 1

    def test_queue_delay_lands_in_observed_latency(self):
        clock = SimClock()
        server, channel = make_pair(clock, rate=100.0, depth=64)
        t0 = clock.now_ns
        channel.unary_call("test.Echo", "Echo", {"msg": "a"})
        first = clock.now_ns - t0
        t1 = clock.now_ns
        channel.unary_call("test.Echo", "Echo", {"msg": "b"})
        # The second call queued behind the first's 10 ms service time.
        assert clock.now_ns - t1 > first

    def test_deadline_propagates_to_admission(self):
        clock = SimClock()
        server, channel = make_pair(clock, rate=100.0, depth=64)
        server.overload.add_backlog(50 * MS)
        # 20 ms deadline cannot cover 50 ms backlog: shed, not queued.
        with pytest.raises(ServerOverloadedError):
            channel.unary_call(
                "test.Echo", "Echo", {"msg": "x"}, deadline_ns=20 * MS
            )
        assert server.overload.counters.shed_expired >= 1


class TestChannelSheds:
    def test_shed_raises_typed_error_after_retries(self):
        clock = SimClock()
        config = RpcConfig(jitter_sigma=0.0, max_retries=2)
        server, channel = make_pair(clock, rate=10.0, depth=1, rpc=config)
        server.overload.add_backlog(10_000 * MS)
        with pytest.raises(ServerOverloadedError):
            channel.unary_call("test.Echo", "Echo", {})
        # Every attempt was shed and counted.
        assert channel.counters.attempts_shed == 3
        assert channel.counters.calls_failed == 1

    def test_retry_budget_exhaustion_fails_fast(self):
        clock = SimClock()
        config = RpcConfig(
            jitter_sigma=0.0,
            max_retries=3,
            retry_budget_per_s=1.0,
            retry_budget_burst=2,
        )
        server, channel = make_pair(clock, rate=10.0, depth=1, rpc=config)
        server.overload.add_backlog(10_000 * MS)
        with pytest.raises(ServerOverloadedError):
            channel.unary_call("test.Echo", "Echo", {})
        # Budget of 2 allowed two retries; the third was suppressed.
        assert channel.counters.attempts_shed == 3
        assert channel.counters.retries_suppressed == 1
        with pytest.raises(ServerOverloadedError):
            channel.unary_call("test.Echo", "Echo", {})
        # Dry budget: the second call failed on its first shed.
        assert channel.counters.attempts_shed == 4
        assert channel.counters.retries_suppressed == 2

    def test_sheds_feed_the_breaker(self):
        from repro.common.config import HealthConfig
        from repro.core.health import BreakerState, CircuitBreaker

        clock = SimClock()
        server, _ = make_pair(clock, rate=10.0, depth=1)
        server.overload.add_backlog(10_000 * MS)
        breaker = CircuitBreaker(
            clock, HealthConfig(breaker_failure_threshold=2), "node-s"
        )
        channel = Channel(
            "node-c",
            server,
            clock,
            RpcConfig(jitter_sigma=0.0, max_retries=0),
            DeterministicRng(7),
            breaker=breaker,
        )
        for _ in range(2):
            with pytest.raises(ServerOverloadedError):
                channel.unary_call("test.Echo", "Echo", {})
        # Two consecutive sheds tripped the breaker: overload is a
        # first-class failure signal, not a silent retry storm.
        assert breaker.state is BreakerState.OPEN
        assert channel.counters.breaker_rejections == 0
        with pytest.raises(Exception):
            channel.unary_call("test.Echo", "Echo", {})
        assert channel.counters.breaker_rejections == 1
