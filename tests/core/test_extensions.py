"""The paper's future-work extensions: usage sharing, lookup cache,
hashmap sharing, multi-node."""

from dataclasses import replace

import pytest

from repro.common.errors import ObjectNotFoundError
from repro.common.units import MiB
from repro.core import Cluster


@pytest.fixture
def sharing_cluster(small_config):
    return Cluster(
        small_config.with_store(share_usage=True, check_remote_uniqueness=False),
    )


@pytest.fixture
def caching_cluster(small_config):
    return Cluster(
        small_config.with_store(lookup_cache=True, check_remote_uniqueness=False),
    )


class TestUsageSharing:
    """AddRef/ReleaseRef RPCs close the eviction gap of §IV-A2."""

    def test_remote_use_pins_at_home(self, sharing_cluster):
        cl = sharing_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"pinned-remotely")
        c.get_one(oid)
        entry = cl.store("node0").table.get(oid)
        assert entry.remote_ref_count == 1
        assert not entry.evictable

    def test_release_unpins(self, sharing_cluster):
        cl = sharing_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"transient")
        c.get_one(oid)
        c.release(oid)
        entry = cl.store("node0").table.get(oid)
        assert entry.remote_ref_count == 0
        assert entry.evictable

    def test_double_hold_pins_once(self, sharing_cluster):
        cl = sharing_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"dedup")
        c.get_one(oid)
        c.get_one(oid)
        assert cl.store("node0").table.get(oid).remote_ref_count == 1
        c.release(oid)
        assert cl.store("node0").table.get(oid).remote_ref_count == 1
        c.release(oid)
        assert cl.store("node0").table.get(oid).remote_ref_count == 0

    def test_pinned_object_survives_home_pressure(self, sharing_cluster):
        cl = sharing_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        payload = bytes(MiB)
        p.put_bytes(oid, payload)
        buf = c.get_one(oid)
        # Hammer the home store far past capacity.
        capacity = cl.store("node0").capacity_bytes
        for extra in cl.new_object_ids(capacity // MiB + 4):
            p.put_bytes(extra, bytes(MiB))
        assert cl.store("node0").contains(oid)
        assert buf.read_all() == payload  # no corruption

    def test_unpinned_object_evicted_under_same_pressure(self, cluster):
        """Contrast case: without sharing, the home store evicts it."""
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, bytes(MiB))
        c.get_one(oid)  # remote reader holds it, home can't tell
        capacity = cluster.store("node0").capacity_bytes
        for extra in cluster.new_object_ids(capacity // MiB + 4):
            p.put_bytes(extra, bytes(MiB))
        assert not cluster.store("node0").contains(oid)  # the hazard


class TestLookupCache:
    def test_repeated_get_skips_rpc(self, caching_cluster):
        cl = caching_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"cache-me")
        store1 = cl.store("node1")
        c.get_one(oid)
        c.release(oid)
        rpcs_after_first = store1.counters.get("lookup_rpcs")
        c.get_one(oid)
        c.release(oid)
        assert store1.counters.get("lookup_rpcs") == rpcs_after_first
        assert store1.lookup_cache.hits >= 1

    def test_cached_get_is_much_faster(self, caching_cluster):
        cl = caching_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"speed")
        t0 = cl.clock.now_ns
        c.get_one(oid)
        cold = cl.clock.now_ns - t0
        c.release(oid)
        t0 = cl.clock.now_ns
        c.get_one(oid)
        warm = cl.clock.now_ns - t0
        assert warm < cold / 5  # no gRPC round trip

    def test_delete_invalidates_peer_caches(self, caching_cluster):
        cl = caching_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"volatile")
        c.get_one(oid)
        c.release(oid)
        assert oid in cl.store("node1").lookup_cache
        p.delete(oid)
        assert oid not in cl.store("node1").lookup_cache
        with pytest.raises(ObjectNotFoundError):
            c.get([oid])

    def test_eviction_invalidates_peer_caches(self, caching_cluster):
        cl = caching_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, bytes(MiB))
        c.get_one(oid)
        c.release(oid)
        capacity = cl.store("node0").capacity_bytes
        for extra in cl.new_object_ids(capacity // MiB + 4):
            p.put_bytes(extra, bytes(MiB))
        assert oid not in cl.store("node1").lookup_cache

    def test_cache_stats(self, caching_cluster):
        cache = caching_cluster.store("node1").lookup_cache
        assert cache.hit_rate == 0.0
        assert len(cache) == 0


class TestHashmapSharing:
    @pytest.fixture
    def hm_cluster(self, small_config):
        return Cluster(
            replace(small_config, sharing="hashmap").with_store(
                check_remote_uniqueness=False
            ),
        )

    def test_remote_get_without_any_rpc(self, hm_cluster):
        cl = hm_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"via-directory")
        server0 = cl.node("node0").server
        calls_before = server0.counters.get("calls")
        buf = c.get_one(oid)
        assert buf.read_all() == b"via-directory"
        assert server0.counters.get("calls") == calls_before  # zero RPCs

    def test_directory_lookup_is_microseconds(self, hm_cluster):
        cl = hm_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"fast")
        t0 = cl.clock.now_ns
        c.get_one(oid)
        elapsed_us = (cl.clock.now_ns - t0) / 1e3
        assert elapsed_us < 200  # vs ~2400 us for the gRPC path

    def test_deleted_object_disappears_from_directory(self, hm_cluster):
        cl = hm_cluster
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"temp")
        p.delete(oid)
        with pytest.raises(ObjectNotFoundError):
            c.get([oid])


class TestMultiNode:
    @pytest.mark.parametrize("n_nodes", [3, 4, 6])
    def test_any_node_reads_any_node(self, small_config, n_nodes):
        cl = Cluster(small_config.with_store(check_remote_uniqueness=False), n_nodes)
        clients = {name: cl.client(name) for name in cl.node_names()}
        ids = {}
        for i, name in enumerate(cl.node_names()):
            oid = cl.new_object_id()
            clients[name].put_bytes(oid, f"home-{name}".encode())
            ids[name] = oid
        for reader_name, reader in clients.items():
            for home_name, oid in ids.items():
                data = reader.get_bytes(oid)
                assert data == f"home-{home_name}".encode()

    def test_lookup_stops_at_first_claiming_peer(self, small_config):
        cl = Cluster(small_config.with_store(check_remote_uniqueness=False), 4)
        p = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"somewhere")
        c = cl.client("node0")
        c.get_one(oid)
        # node0 asked node1 first (sorted order) and stopped there.
        assert cl.node("node2").server.counters.get("calls") == 0
        assert cl.node("node3").server.counters.get("calls") == 0

    def test_uniqueness_enforced_across_all_nodes(self, small_config):
        from repro.common.errors import ObjectExistsError

        cl = Cluster(small_config.with_store(check_remote_uniqueness=True), 3)
        p2 = cl.client("node2")
        oid = cl.new_object_id()
        p2.put_bytes(oid, b"taken")
        p0 = cl.client("node0")
        with pytest.raises(ObjectExistsError):
            p0.create(oid, 8)
