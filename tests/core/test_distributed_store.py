"""DisaggregatedStore/Client: remote retrieval, uniqueness, transparency."""

import pytest

from repro.common.errors import ObjectExistsError, ObjectNotFoundError
from repro.common.units import KiB, MiB


class TestRemoteRetrieval:
    def test_remote_get_returns_correct_bytes(self, cluster):
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        oid = cluster.new_object_id()
        payload = bytes(range(256)) * 16
        producer.put_bytes(oid, payload)
        buf = consumer.get_one(oid)
        assert buf.is_remote
        assert buf.location == "remote:node0"
        assert buf.read_all() == payload

    def test_local_get_prefers_local(self, cluster):
        producer = cluster.client("node0")
        consumer = cluster.client("node0")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"nearby")
        buf = consumer.get_one(oid)
        assert not buf.is_remote

    def test_mixed_batch_resolves_both_ways(self, cluster):
        p0 = cluster.client("node0")
        p1 = cluster.client("node1")
        c = cluster.client("node0")
        local_oid, remote_oid = cluster.new_object_ids(2)
        p0.put_bytes(local_oid, b"local")
        p1.put_bytes(remote_oid, b"remote")
        bufs = c.get([remote_oid, local_oid])
        assert [b.is_remote for b in bufs] == [True, False]
        assert bufs[0].read_all() == b"remote"
        assert bufs[1].read_all() == b"local"

    def test_missing_everywhere_raises(self, cluster):
        c = cluster.client("node0")
        with pytest.raises(ObjectNotFoundError):
            c.get([cluster.new_object_id()])

    def test_unsealed_remote_object_not_visible(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.create(oid, 16)
        with pytest.raises(ObjectNotFoundError):
            c.get([oid])
        p.seal(oid)
        assert c.get_one(oid).read_all() == bytes(16)

    def test_one_lookup_rpc_per_batch(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        ids = cluster.new_object_ids(20)
        for oid in ids:
            p.put_bytes(oid, b"batched")
        before = cluster.store("node1").counters.lookup_rpcs
        c.get(ids)
        after = cluster.store("node1").counters.lookup_rpcs
        assert after - before == 1

    def test_remote_get_latency_is_rpc_dominated(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"x" * KiB)
        before = cluster.clock.now_ns
        c.get([oid])
        elapsed_ms = (cluster.clock.now_ns - before) / 1e6
        assert 1.0 < elapsed_ms < 6.0  # gRPC round trip, Fig 6's remote band

    def test_remote_read_throughput_near_fabric_rate(self, cluster):
        from repro.common.units import gib_per_s

        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, bytes(8 * MiB))
        buf = c.get_one(oid)
        before = cluster.clock.now_ns
        buf.read_all()
        rate = gib_per_s(8 * MiB, cluster.clock.now_ns - before)
        assert rate == pytest.approx(5.75, rel=0.1)


class TestIdentifierUniqueness:
    def test_duplicate_across_stores_rejected(self, cluster_paper_mode):
        p0 = cluster_paper_mode.client("node0")
        p1 = cluster_paper_mode.client("node1")
        oid = cluster_paper_mode.new_object_id()
        p0.put_bytes(oid, b"first")
        with pytest.raises(ObjectExistsError):
            p1.create(oid, 8)

    def test_unsealed_ids_are_reserved_too(self, cluster_paper_mode):
        p0 = cluster_paper_mode.client("node0")
        p1 = cluster_paper_mode.client("node1")
        oid = cluster_paper_mode.new_object_id()
        p0.create(oid, 8)  # not sealed
        with pytest.raises(ObjectExistsError):
            p1.create(oid, 8)

    def test_reserve_ids_batch_check(self, cluster_paper_mode):
        p0 = cluster_paper_mode.client("node0")
        oid = cluster_paper_mode.new_object_id()
        p0.put_bytes(oid, b"taken")
        store1 = cluster_paper_mode.store("node1")
        with pytest.raises(ObjectExistsError):
            store1.reserve_ids([cluster_paper_mode.new_object_id(), oid])

    def test_put_batch_uses_single_contains_rpc(self, cluster_paper_mode):
        p = cluster_paper_mode.client("node0")
        server1 = cluster_paper_mode.node("node1").server
        before = server1.counters.calls
        p.put_batch([(oid, b"bulk") for oid in cluster_paper_mode.new_object_ids(10)])
        after = server1.counters.calls
        assert after - before == 1


class TestCrossNodeReferences:
    def test_remote_release_drops_record(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"ref")
        c.get_one(oid)
        store1 = cluster.store("node1")
        assert store1.remote_record(oid) is not None
        c.release(oid)
        assert store1.remote_record(oid) is None

    def test_double_hold_single_record(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"rr")
        c.get_one(oid)
        c.get_one(oid)
        record = cluster.store("node1").remote_record(oid)
        assert record.local_refs == 2
        c.release(oid)
        assert record.local_refs == 1
        c.release(oid)
        assert cluster.store("node1").remote_record(oid) is None

    def test_without_usage_sharing_home_is_blind(self, cluster):
        """The paper's acknowledged gap: remote use is invisible at home."""
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"invisible")
        c.get_one(oid)
        entry = cluster.store("node0").table.get(oid)
        assert entry.ref_count == 0  # home store has no idea
        assert entry.evictable  # ...so it could evict under pressure


class TestClientTransparency:
    def test_same_api_for_local_and_remote(self, cluster):
        """The client code below never mentions placement — the framework's
        headline property."""
        p0 = cluster.client("node0")
        p1 = cluster.client("node1")
        consumer = cluster.client("node0")
        ids = cluster.new_object_ids(4)
        for i, oid in enumerate(ids):
            producer = p0 if i % 2 == 0 else p1
            producer.put_bytes(oid, f"part-{i}".encode())
        parts = [consumer.get_bytes(oid) for oid in ids]
        assert parts == [b"part-0", b"part-1", b"part-2", b"part-3"]

    def test_get_bytes_releases_remote_too(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"cleanup")
        assert c.get_bytes(oid) == b"cleanup"
        assert c.held_ids() == []
        assert cluster.store("node1").remote_record(oid) is None
