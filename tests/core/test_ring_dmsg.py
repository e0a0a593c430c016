"""SPSC rings and the dmsg transport (§IV-A2 approach 2)."""

from dataclasses import replace

import pytest

from repro.common.clock import SimClock
from repro.common.config import FabricLinkConfig, LocalMemoryConfig, testing_config as make_testing_config
from repro.common.errors import ObjectStoreError, RpcStatusError
from repro.common.rng import DeterministicRng
from repro.common.units import MiB
from repro.core import Cluster
from repro.core.ring import HEADER_BYTES, RingReader, RingWriter, ring_bytes
from repro.thymesisflow import ThymesisFabric


@pytest.fixture
def ring_pair():
    """A writer on node 'home' and a remote reader on node 'peer'."""
    fab = ThymesisFabric(
        SimClock(),
        FabricLinkConfig(jitter_sigma=0.0),
        LocalMemoryConfig(jitter_sigma=0.0),
        DeterministicRng(17),
    )
    home = fab.add_node("home", 2 * MiB)
    peer = fab.add_node("peer", 2 * MiB)
    region = home.expose(0, MiB)
    peer.expose(0, MiB)
    fab.connect("home", "peer")
    size = ring_bytes(4096)
    writer = RingWriter(home, home.memory.region(region.absolute(0), size))
    remote = fab.map_remote("peer", "home")
    reader = RingReader(remote, 0, size)
    return fab, writer, reader


class TestRing:
    def test_empty_poll(self, ring_pair):
        _, _, reader = ring_pair
        assert reader.poll() == []
        assert reader.polls == 1

    def test_publish_poll_roundtrip(self, ring_pair):
        _, writer, reader = ring_pair
        writer.publish(b"first")
        writer.publish(b"second message")
        assert reader.poll() == [b"first", b"second message"]
        assert reader.poll() == []
        assert reader.messages == 2

    def test_binary_payloads(self, ring_pair):
        _, writer, reader = ring_pair
        blob = bytes(range(256)) * 4
        writer.publish(blob)
        assert reader.poll() == [blob]

    def test_wraparound(self, ring_pair):
        _, writer, reader = ring_pair
        # Capacity is 4096; pump enough traffic to wrap several times,
        # draining as we go (sync protocol keeps the reader caught up).
        for i in range(40):
            payload = bytes([i]) * 500
            writer.publish(payload)
            assert reader.poll() == [payload]

    def test_message_spanning_the_wrap_point(self, ring_pair):
        _, writer, reader = ring_pair
        writer.publish(b"x" * 3000)
        assert reader.poll() == [b"x" * 3000]
        writer.publish(b"y" * 3000)  # wraps mid-message
        assert reader.poll() == [b"y" * 3000]

    def test_oversized_message_rejected(self, ring_pair):
        _, writer, _ = ring_pair
        with pytest.raises(ObjectStoreError):
            writer.publish(b"z" * 5000)

    def test_overrun_detected(self, ring_pair):
        _, writer, reader = ring_pair
        for _ in range(5):
            writer.publish(b"a" * 1000)  # 5 x 1004 > 4096 unread
        with pytest.raises(ObjectStoreError, match="lost messages"):
            reader.poll()

    def test_reads_charge_fabric_time(self, ring_pair):
        fab, writer, reader = ring_pair
        writer.publish(b"bytes")
        before = fab.clock.now_ns
        reader.poll()
        # At least one single-access (head) plus payload reads.
        assert fab.clock.now_ns - before >= 1000

    def test_ring_bytes_validation(self):
        with pytest.raises(ValueError):
            ring_bytes(2)
        assert ring_bytes(100) == HEADER_BYTES + 100

    def test_no_remote_writes_ever(self, ring_pair):
        """The whole point of the design: the link's write counter stays 0."""
        fab, writer, reader = ring_pair
        for _ in range(10):
            writer.publish(b"only-local-writes")
            reader.poll()
        link = fab.link_between("home", "peer")
        assert link.counters.get("write_bytes") == 0


class TestDmsgCluster:
    @pytest.fixture
    def cluster(self):
        return Cluster(
            replace(
                make_testing_config(capacity_bytes=32 * MiB, seed=3), sharing="dmsg"
            ).with_store(check_remote_uniqueness=False),
        )

    def test_remote_get_over_rings(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"ring-delivered")
        assert c.get_bytes(oid) == b"ring-delivered"

    def test_latency_is_microseconds_not_milliseconds(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"fast-path")
        t0 = cluster.clock.now_ns
        c.get_one(oid)
        elapsed_us = (cluster.clock.now_ns - t0) / 1e3
        assert elapsed_us < 300  # vs ~2400 us over gRPC

    def test_usage_sharing_works_over_dmsg(self):
        """Unlike the one-way hashmap, dmsg is bidirectional — the
        eviction-feedback extension composes with it."""
        cl = Cluster(
            replace(
                make_testing_config(capacity_bytes=32 * MiB, seed=4), sharing="dmsg"
            ).with_store(share_usage=True, check_remote_uniqueness=False),
        )
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"pinned-via-rings")
        c.get_one(oid)
        assert cl.store("node0").table.get(oid).remote_ref_count == 1

    def test_uniqueness_enforced_over_dmsg(self):
        from repro.common.errors import ObjectExistsError

        cl = Cluster(
            replace(
                make_testing_config(capacity_bytes=32 * MiB, seed=5), sharing="dmsg"
            ).with_store(check_remote_uniqueness=True),
        )
        p = cl.client("node0")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"mine")
        with pytest.raises(ObjectExistsError):
            cl.client("node1").create(oid, 4)

    def test_error_statuses_cross_the_rings(self, cluster):
        stub = cluster.node("node1").channels["node0"].stub(
            "plasma.StoreService"
        )
        with pytest.raises(RpcStatusError):
            stub.Lookup({"object_ids": []})

    def test_three_node_dmsg_mesh(self):
        cl = Cluster(
            replace(
                make_testing_config(capacity_bytes=32 * MiB, seed=6), sharing="dmsg"
            ).with_store(check_remote_uniqueness=False),
            3,
        )
        p = cl.client("node2")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"meshy")
        for reader in ("node0", "node1"):
            assert cl.client(reader).get_bytes(oid) == b"meshy"

    def test_fabric_never_sees_metadata_writes(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        ids = cluster.new_object_ids(5)
        for oid in ids:
            p.put_bytes(oid, b"w" * 100)
        for oid in ids:
            c.get_bytes(oid)
        link = cluster.fabric.link_between("node0", "node1")
        assert link.counters.get("write_bytes") == 0
