"""Streaming calls and fault-injection/retry behaviour of the channel."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import RpcConfig
from repro.common.errors import RpcStatusError
from repro.common.rng import DeterministicRng
from repro.rpc import Channel, RpcServer, Service, StatusCode, rpc_method


class CounterService(Service):
    SERVICE_NAME = "test.Counter"

    def __init__(self):
        self.calls = 0

    @rpc_method
    def Bump(self, request: dict) -> dict:
        self.calls += 1
        return {"value": request.get("by", 1) * 2}

    @rpc_method
    def FailOn(self, request: dict) -> dict:
        if request.get("boom"):
            raise ValueError("requested failure")
        return {"ok": True}


def make_channel(**cfg_kwargs):
    service = CounterService()
    server = RpcServer("srv")
    server.add_service(service)
    clock = SimClock()
    channel = Channel(
        "cli",
        server,
        clock,
        RpcConfig(jitter_sigma=0.0, **cfg_kwargs),
        DeterministicRng(21),
    )
    return service, clock, channel


class TestStreaming:
    def test_stream_returns_one_response_per_request(self):
        service, _, channel = make_channel()
        responses = channel.stream_call(
            "test.Counter", "Bump", [{"by": i} for i in range(10)]
        )
        assert [r["value"] for r in responses] == [i * 2 for i in range(10)]
        assert service.calls == 10

    def test_empty_stream_is_free(self):
        _, clock, channel = make_channel()
        assert channel.stream_call("test.Counter", "Bump", []) == []
        assert clock.now_ns == 0

    def test_stream_pays_one_round_trip(self):
        _, clock, channel = make_channel()
        channel.stream_call("test.Counter", "Bump", [{"by": 1}] * 100)
        one_stream = clock.now_ns
        # 100 unary calls pay 100 round trips.
        _, clock2, channel2 = make_channel()
        for _ in range(100):
            channel2.unary_call("test.Counter", "Bump", {"by": 1})
        assert clock2.now_ns > 50 * one_stream

    def test_stream_per_message_cost_scales(self):
        _, clock, channel = make_channel()
        channel.stream_call("test.Counter", "Bump", [{"by": 1}] * 10)
        ten = clock.now_ns
        channel.stream_call("test.Counter", "Bump", [{"by": 1}] * 1000)
        thousand = clock.now_ns - ten
        assert thousand > ten  # per-message term visible

    def test_stream_aborts_on_first_error(self):
        service, _, channel = make_channel()
        requests = [{"boom": False}, {"boom": True}, {"boom": False}]
        with pytest.raises(RpcStatusError) as excinfo:
            channel.stream_call("test.Counter", "FailOn", requests)
        assert excinfo.value.code is StatusCode.INVALID_ARGUMENT
        assert service.calls == 0  # FailOn doesn't bump; Bump untouched

    def test_stream_on_closed_channel(self):
        _, _, channel = make_channel()
        channel.close()
        from repro.common.errors import RpcError

        with pytest.raises(RpcError):
            channel.stream_call("test.Counter", "Bump", [{}])


class TestFaultInjectionAndRetries:
    def test_zero_rate_never_fails(self):
        _, _, channel = make_channel(inject_failure_rate=0.0)
        for _ in range(100):
            channel.unary_call("test.Counter", "Bump", {"by": 1})

    def test_retries_mask_transient_faults(self):
        service, _, channel = make_channel(
            inject_failure_rate=0.3, max_retries=10
        )
        for _ in range(50):
            response = channel.unary_call("test.Counter", "Bump", {"by": 3})
            assert response["value"] == 6
        assert channel.counters.retries > 0
        assert service.calls == 50

    def test_exhausted_retries_surface_unavailable(self):
        _, _, channel = make_channel(inject_failure_rate=1.0, max_retries=2)
        with pytest.raises(RpcStatusError) as excinfo:
            channel.unary_call("test.Counter", "Bump", {})
        assert excinfo.value.code is StatusCode.UNAVAILABLE
        assert "3 attempts" in excinfo.value.detail
        assert channel.counters.attempts_failed == 3

    def test_each_failed_attempt_is_charged(self):
        _, clock, channel = make_channel(inject_failure_rate=1.0, max_retries=4)
        with pytest.raises(RpcStatusError):
            channel.unary_call("test.Counter", "Bump", {})
        # 5 attempts x ~2.3 ms round trip.
        assert clock.now_ns >= 5 * RpcConfig().round_trip_ns * 0.9

    def test_no_retries_configured(self):
        _, _, channel = make_channel(inject_failure_rate=1.0, max_retries=0)
        with pytest.raises(RpcStatusError):
            channel.unary_call("test.Counter", "Bump", {})
        assert channel.counters.attempts_failed == 1

    def test_cluster_survives_flaky_network(self):
        """End to end: a cluster configured with a lossy RPC layer still
        serves remote objects (retries under the hood)."""
        import dataclasses

        from repro.common.config import testing_config as make_testing_config
        from repro.common.units import MiB
        from repro.core import Cluster

        base = make_testing_config(capacity_bytes=32 * MiB, seed=13)
        cfg = dataclasses.replace(
            base,
            rpc=dataclasses.replace(
                base.rpc, inject_failure_rate=0.25, max_retries=8
            ),
        )
        cluster = Cluster(cfg.with_store(check_remote_uniqueness=False))
        p = cluster.client("node0")
        c = cluster.client("node1")
        for oid in cluster.new_object_ids(20):
            p.put_bytes(oid, b"resilient")
            assert c.get_bytes(oid) == b"resilient"
