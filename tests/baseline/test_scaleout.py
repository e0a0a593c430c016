"""Scale-out baseline: fetch-by-copy semantics and its pathologies."""

import pytest

from repro.baseline import ScaleOutCluster
from repro.common.errors import ObjectNotFoundError
from repro.common.units import MiB, gib_per_s


@pytest.fixture
def so_cluster(small_config):
    return ScaleOutCluster(small_config)


class TestBasics:
    def test_local_get(self, so_cluster):
        p = so_cluster.client("node0")
        oid = so_cluster.new_object_id()
        p.put_bytes(oid, b"local-path")
        assert p.get_bytes(oid) == b"local-path"

    def test_remote_get_copies_and_serves(self, so_cluster):
        p = so_cluster.client("node0")
        c = so_cluster.client("node1")
        oid = so_cluster.new_object_id()
        p.put_bytes(oid, b"copied-over-lan")
        assert c.get_bytes(oid) == b"copied-over-lan"

    def test_missing_raises(self, so_cluster):
        c = so_cluster.client("node1")
        with pytest.raises(ObjectNotFoundError):
            c.get([so_cluster.new_object_id()])

    def test_single_node_rejected(self, small_config):
        with pytest.raises(ValueError):
            ScaleOutCluster(small_config, 1)


class TestReplication:
    def test_fetch_materialises_local_replica(self, so_cluster):
        p = so_cluster.client("node0")
        c = so_cluster.client("node1")
        oid = so_cluster.new_object_id()
        p.put_bytes(oid, b"replica")
        c.get_bytes(oid)
        # The object now exists on BOTH nodes — duplicated data.
        assert so_cluster.store("node0").contains(oid)
        assert so_cluster.store("node1").contains(oid)

    def test_second_get_hits_replica_without_lan(self, so_cluster):
        p = so_cluster.client("node0")
        c = so_cluster.client("node1")
        oid = so_cluster.new_object_id()
        p.put_bytes(oid, bytes(MiB))
        c.get_bytes(oid)
        fetched_before = so_cluster.store("node1").counters.remote_fetches
        c.get_bytes(oid)
        assert (
            so_cluster.store("node1").counters.remote_fetches
            == fetched_before
        )

    def test_replication_thrashes_local_memory(self, so_cluster):
        """Pulling remote data evicts resident local objects — the paper's
        Fig 1a critique."""
        p0 = so_cluster.client("node0")
        c1 = so_cluster.client("node1")
        p1 = so_cluster.client("node1")
        capacity = so_cluster.store("node1").capacity_bytes
        # Fill node1 with its own objects.
        own = so_cluster.new_object_ids(capacity // MiB)
        for oid in own:
            p1.put_bytes(oid, bytes(MiB))
        # Now pull a large remote working set through node1.
        remote_ids = so_cluster.new_object_ids(8)
        for oid in remote_ids:
            p0.put_bytes(oid, bytes(MiB))
        for oid in remote_ids:
            c1.get_bytes(oid)
        evicted = so_cluster.store("node1").counters.objects_evicted
        assert evicted >= 8  # resident data was thrashed


class TestTiming:
    def test_remote_get_is_lan_bandwidth_bound(self, so_cluster):
        p = so_cluster.client("node0")
        c = so_cluster.client("node1")
        oid = so_cluster.new_object_id()
        p.put_bytes(oid, bytes(8 * MiB))
        before = so_cluster.clock.now_ns
        c.get([oid])
        elapsed = so_cluster.clock.now_ns - before
        effective = gib_per_s(8 * MiB, elapsed)
        lan_rate = so_cluster.config.lan.bandwidth_bps / (1 << 30)
        assert effective < lan_rate  # slower than raw LAN (copy + RPC)

    def test_lan_bytes_counted(self, so_cluster):
        p = so_cluster.client("node0")
        c = so_cluster.client("node1")
        oid = so_cluster.new_object_id()
        p.put_bytes(oid, bytes(MiB))
        c.get_bytes(oid)
        assert so_cluster.network.counters.bytes_transferred >= MiB
