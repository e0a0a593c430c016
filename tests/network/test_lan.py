"""LAN model: host registry, connections, byte-counted timed transfers."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import LanConfig
from repro.common.errors import ConnectionClosedError, NetworkError
from repro.common.rng import DeterministicRng
from repro.common.units import MiB
from repro.network.lan import Network


@pytest.fixture
def network():
    net = Network(SimClock(), LanConfig(jitter_sigma=0.0), DeterministicRng(5))
    net.register_host("a")
    net.register_host("b")
    return net


class TestTopology:
    def test_register_twice_rejected(self, network):
        with pytest.raises(NetworkError):
            network.register_host("a")

    def test_connect_unknown_host_rejected(self, network):
        with pytest.raises(NetworkError):
            network.connect("a", "zzz")

    def test_self_connection_rejected(self, network):
        with pytest.raises(NetworkError):
            network.connect("a", "a")

    def test_hosts_listing(self, network):
        assert network.hosts() == {"a", "b"}


class TestTransfer:
    def test_send_recv_roundtrip(self, network):
        conn = network.connect("a", "b")
        conn.send(b"hello")
        assert conn.peer.recv() == b"hello"
        assert conn.bytes_sent == 5
        assert conn.peer.bytes_received == 5

    def test_bidirectional(self, network):
        conn = network.connect("a", "b")
        conn.send(b"ping")
        conn.peer.send(b"pong")
        assert conn.recv() == b"pong"
        assert conn.peer.recv() == b"ping"

    def test_send_advances_clock_by_model(self, network):
        conn = network.connect("a", "b")
        cfg = network.config
        before = network.clock.now_ns
        conn.send(bytes(MiB))
        elapsed = network.clock.now_ns - before
        expected = cfg.round_trip_ns / 2 + MiB / cfg.bandwidth_bps * 1e9
        assert elapsed == pytest.approx(expected, rel=0.01)

    def test_fifo_ordering(self, network):
        conn = network.connect("a", "b")
        conn.send(b"1")
        conn.send(b"2")
        assert conn.peer.recv() == b"1"
        assert conn.peer.recv() == b"2"

    def test_recv_without_message_is_protocol_error(self, network):
        conn = network.connect("a", "b")
        with pytest.raises(NetworkError):
            conn.recv()

    def test_pending_count(self, network):
        conn = network.connect("a", "b")
        conn.send(b"x")
        conn.send(b"y")
        assert conn.peer.pending() == 2

    def test_network_counters(self, network):
        conn = network.connect("a", "b")
        conn.send(b"12345")
        assert network.counters.bytes_transferred == 5
        assert network.counters.messages == 1


class TestClose:
    def test_send_after_close_rejected(self, network):
        conn = network.connect("a", "b")
        conn.close()
        with pytest.raises(ConnectionClosedError):
            conn.send(b"x")

    def test_send_to_closed_peer_rejected(self, network):
        conn = network.connect("a", "b")
        conn.peer.close()
        with pytest.raises(ConnectionClosedError):
            conn.send(b"x")

    def test_recv_on_closed_empty_connection(self, network):
        conn = network.connect("a", "b")
        conn.close()
        with pytest.raises(ConnectionClosedError):
            conn.peer.recv()

    def test_endpoint_names(self, network):
        conn = network.connect("a", "b")
        assert (conn.local, conn.remote) == ("a", "b")
        assert (conn.peer.local, conn.peer.remote) == ("b", "a")
