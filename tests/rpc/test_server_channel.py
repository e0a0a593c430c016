"""RpcServer dispatch, Channel unary calls, stubs, status mapping."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import RpcConfig
from repro.common.errors import (
    ObjectExistsError,
    ObjectNotFoundError,
    RpcError,
    RpcStatusError,
)
from repro.common.rng import DeterministicRng
from repro.rpc import Channel, RpcServer, Service, StatusCode, rpc_method


class EchoService(Service):
    SERVICE_NAME = "test.Echo"

    @rpc_method
    def Echo(self, request: dict) -> dict:
        return {"echo": request.get("msg", "")}

    @rpc_method
    def Fail(self, request: dict) -> dict:
        kind = request.get("kind")
        if kind == "not_found":
            raise ObjectNotFoundError("nope")
        if kind == "exists":
            raise ObjectExistsError("dup")
        if kind == "value":
            raise ValueError("bad arg")
        raise RuntimeError("boom")

    @rpc_method
    def ReturnsNone(self, request: dict):
        return None

    @rpc_method
    def ReturnsNonDict(self, request: dict):
        return [1, 2]

    def not_an_rpc(self, request: dict) -> dict:  # undecorated
        return {}


@pytest.fixture
def server():
    s = RpcServer("node-x")
    s.add_service(EchoService())
    return s


@pytest.fixture
def channel(server):
    return Channel(
        "node-y", server, SimClock(), RpcConfig(jitter_sigma=0.0), DeterministicRng(7)
    )


class TestServer:
    def test_duplicate_service_rejected(self, server):
        with pytest.raises(RpcError):
            server.add_service(EchoService())

    def test_service_without_methods_rejected(self):
        class Empty(Service):
            SERVICE_NAME = "test.Empty"

        with pytest.raises(RpcError):
            RpcServer("n").add_service(Empty())

    def test_dispatch_ok(self, server):
        status, response, _ = server.dispatch("test.Echo", "Echo", {"msg": "hi"})
        assert status is StatusCode.OK
        assert response == {"echo": "hi"}

    def test_unknown_service_unimplemented(self, server):
        status, _, detail = server.dispatch("test.Nope", "Echo", {})
        assert status is StatusCode.UNIMPLEMENTED
        assert "test.Nope" in detail

    def test_unknown_method_unimplemented(self, server):
        status, _, _ = server.dispatch("test.Echo", "Missing", {})
        assert status is StatusCode.UNIMPLEMENTED

    def test_undecorated_method_not_exposed(self, server):
        status, _, _ = server.dispatch("test.Echo", "not_an_rpc", {})
        assert status is StatusCode.UNIMPLEMENTED

    @pytest.mark.parametrize(
        "kind,code",
        [
            ("not_found", StatusCode.NOT_FOUND),
            ("exists", StatusCode.ALREADY_EXISTS),
            ("value", StatusCode.INVALID_ARGUMENT),
            ("other", StatusCode.INTERNAL),
        ],
    )
    def test_exception_to_status_mapping(self, server, kind, code):
        status, _, _ = server.dispatch("test.Echo", "Fail", {"kind": kind})
        assert status is code

    def test_none_response_becomes_empty_dict(self, server):
        status, response, _ = server.dispatch("test.Echo", "ReturnsNone", {})
        assert status is StatusCode.OK
        assert response == {}

    def test_non_dict_response_is_internal_error(self, server):
        status, _, _ = server.dispatch("test.Echo", "ReturnsNonDict", {})
        assert status is StatusCode.INTERNAL

    def test_counters(self, server):
        server.dispatch("test.Echo", "Echo", {})
        server.dispatch("test.Echo", "Fail", {"kind": "other"})
        server.dispatch("test.Nope", "x", {})
        assert server.counters.calls == 3
        assert server.counters.calls_ok == 1
        assert server.counters.calls_failed == 1
        assert server.counters.calls_unimplemented == 1

    def test_malformed_wire_request(self, server):
        status, _, _ = server.dispatch_wire("test.Echo", "Echo", b"\xff\xff")
        assert status is StatusCode.INVALID_ARGUMENT


class TestChannel:
    def test_unary_call_roundtrip(self, channel):
        assert channel.unary_call("test.Echo", "Echo", {"msg": "yo"}) == {
            "echo": "yo"
        }

    def test_error_status_raises(self, channel):
        with pytest.raises(RpcStatusError) as excinfo:
            channel.unary_call("test.Echo", "Fail", {"kind": "not_found"})
        assert excinfo.value.code is StatusCode.NOT_FOUND

    def test_call_charges_round_trip(self, channel):
        clock_before = channel._clock.now_ns  # noqa: SLF001
        channel.unary_call("test.Echo", "Echo", {"msg": "x"})
        elapsed = channel._clock.now_ns - clock_before  # noqa: SLF001
        assert elapsed >= RpcConfig().round_trip_ns

    def test_larger_messages_cost_more(self, channel):
        c0 = channel._clock.now_ns  # noqa: SLF001
        channel.unary_call("test.Echo", "Echo", {"msg": "x"})
        small = channel._clock.now_ns - c0  # noqa: SLF001
        c0 = channel._clock.now_ns  # noqa: SLF001
        channel.unary_call("test.Echo", "Echo", {"msg": "x" * 100_000})
        large = channel._clock.now_ns - c0  # noqa: SLF001
        assert large > small

    def test_failed_call_still_charged(self, channel):
        c0 = channel._clock.now_ns  # noqa: SLF001
        with pytest.raises(RpcStatusError):
            channel.unary_call("test.Echo", "Fail", {"kind": "exists"})
        assert channel._clock.now_ns > c0  # noqa: SLF001

    def test_closed_channel_rejects_calls(self, channel):
        channel.close()
        with pytest.raises(RpcError):
            channel.unary_call("test.Echo", "Echo", {})

    def test_counters(self, channel):
        channel.unary_call("test.Echo", "Echo", {"msg": "a"})
        with pytest.raises(RpcStatusError):
            channel.unary_call("test.Echo", "Fail", {"kind": "value"})
        assert channel.counters.calls == 2
        assert channel.counters.calls_failed == 1
        assert channel.counters.bytes_sent > 0


class TestStub:
    def test_stub_methods_call_through(self, channel):
        stub = channel.stub("test.Echo")
        assert stub.Echo({"msg": "stubbed"}) == {"echo": "stubbed"}

    def test_stub_with_no_request(self, channel):
        stub = channel.stub("test.Echo")
        assert stub.ReturnsNone() == {}

    def test_stub_unknown_method_raises_on_call(self, channel):
        stub = channel.stub("test.Echo")
        with pytest.raises(RpcStatusError) as excinfo:
            stub.DoesNotExist({})
        assert excinfo.value.code is StatusCode.UNIMPLEMENTED

    def test_private_attribute_access_raises(self, channel):
        stub = channel.stub("test.Echo")
        with pytest.raises(AttributeError):
            _ = stub._private
