"""Placement-routed creates: ring routing, forwarding, and degradation."""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan
from repro.chaos.plan import NodeCrash
from repro.common.config import testing_config as make_testing_config
from repro.common.errors import ObjectExistsError, ObjectStoreError
from repro.common.units import MiB
from repro.core import Cluster

PAYLOAD = bytes(range(256)) * 16  # 4 KiB


@pytest.fixture
def pcluster():
    return Cluster(
        make_testing_config(capacity_bytes=32 * MiB, seed=42),
        node_names=["node0", "node1", "node2", "node3"],
        placement=True,
    )


class TestRoutedCreate:
    def test_objects_land_on_their_ring_home(self, pcluster):
        client = pcluster.client("node0")
        ring = pcluster.placement_ring()
        for oid in pcluster.new_object_ids(32):
            client.put_bytes(oid, PAYLOAD)
            home = ring.home(oid)
            assert pcluster.store(home).contains(oid), (
                f"{oid!r} should live on its ring home {home}"
            )

    def test_put_batch_routes_per_object(self, pcluster):
        client = pcluster.client("node2")
        ids = pcluster.new_object_ids(24)
        client.put_batch([(oid, PAYLOAD) for oid in ids])
        ring = pcluster.placement_ring()
        homes = set()
        for oid in ids:
            home = ring.home(oid)
            homes.add(home)
            assert pcluster.store(home).contains(oid)
        assert len(homes) > 1, "ids should hash to several homes"

    def test_forwarded_object_readable_everywhere(self, pcluster):
        producer = pcluster.client("node0")
        ids = pcluster.new_object_ids(12)
        for oid in ids:
            producer.put_bytes(oid, PAYLOAD)
        for reader_node in pcluster.node_names():
            reader = pcluster.client(reader_node)
            for oid in ids:
                assert bytes(reader.get_bytes(oid)) == PAYLOAD

    def test_duplicate_forwarded_create_raises_exists(self, pcluster):
        client = pcluster.client("node0")
        ring = pcluster.placement_ring()
        oid = next(
            o for o in pcluster.new_object_ids(32)
            if ring.home(o) != "node0"
        )
        client.put_bytes(oid, PAYLOAD)
        with pytest.raises(ObjectExistsError):
            client.put_bytes(oid, PAYLOAD)

    def test_forwarded_create_counted(self, pcluster):
        client = pcluster.client("node0")
        ring = pcluster.placement_ring()
        remote_ids = [
            o for o in pcluster.new_object_ids(40)
            if ring.home(o) != "node0"
        ]
        for oid in remote_ids:
            client.put_bytes(oid, PAYLOAD)
        store = pcluster.store("node0")
        assert store.counters.get("placed_creates_forwarded") == len(remote_ids)
        assert client.counters.get("puts_forwarded") == len(remote_ids)

    def test_replicated_forwarded_put(self, pcluster):
        client = pcluster.client("node0")
        ring = pcluster.placement_ring()
        oid = next(
            o for o in pcluster.new_object_ids(32)
            if ring.home(o) != "node0"
        )
        client.put_bytes(oid, PAYLOAD, replicas=2)
        home = ring.home(oid)
        assert len(pcluster.store(home).replica_locations(oid)) == 1


class TestDegradedRouting:
    def test_unreachable_home_falls_back_to_local_create(self):
        cluster = Cluster(
            make_testing_config(capacity_bytes=32 * MiB, seed=42),
            node_names=["node0", "node1", "node2", "node3"],
            placement=True,
            fault_plan=FaultPlan(),
        )
        client = cluster.client("node0")
        ring = cluster.placement_ring()
        oid = next(
            o for o in cluster.new_object_ids(64) if ring.home(o) == "node1"
        )
        cluster.chaos.inject(
            NodeCrash(at_ns=cluster.clock.now_ns + 1, node="node1")
        )
        cluster.clock.advance(2)
        client.put_bytes(oid, PAYLOAD)
        # The object exists locally, readable, and the fallback was counted.
        assert cluster.store("node0").contains(oid)
        assert bytes(client.get_bytes(oid)) == PAYLOAD
        assert client.counters.get("puts_forward_fallback") == 1
        assert cluster.store("node0").counters.get("placed_creates_fallback") == 1

    def test_placement_requires_rpc_sharing(self):
        with pytest.raises(ValueError, match="sharing='rpc'"):
            Cluster(
                make_testing_config(seed=1),
                n_nodes=2,
                sharing="dmsg",
                placement=True,
            )

    def test_placement_accessors_raise_when_disabled(self):
        cluster = Cluster(make_testing_config(seed=1), n_nodes=2)
        assert not cluster.placement_enabled
        with pytest.raises(ObjectStoreError, match="placement"):
            cluster.membership
        with pytest.raises(ObjectStoreError, match="placement"):
            cluster.placement_ring()
        assert cluster.store("node0").placement_home(
            cluster.new_object_id()
        ) is None


class TestForwardedPutIntoCachedRange:
    """The home CPU had the extent's bytes in its cache (it read the
    previous tenant); the creator's fabric write must not leave — or
    bother snapshotting — stale lines the seal would discard anyway."""

    def test_no_stale_snapshot_and_sealed_crc_matches(self, pcluster):
        from repro.common.checksum import crc32c

        ring = pcluster.placement_ring()
        first, second = [
            o for o in pcluster.new_object_ids(64) if ring.home(o) == "node1"
        ][:2]
        creator = pcluster.client("node0")
        home_client = pcluster.client("node1")
        home = pcluster.store("node1")
        endpoint = pcluster.node("node1").endpoint

        old = b"\xaa" * len(PAYLOAD)
        creator.put_bytes(first, old)
        with home.table.lock:
            extent = home.table.lookup(first).allocation.offset
        # The home reads it: the payload range is now resident in its cache.
        assert bytes(home_client.get_bytes(first)) == old
        home.delete_object(first)

        creator.put_bytes(second, PAYLOAD)
        with home.table.lock:
            entry = home.table.lookup(second)
        assert entry.allocation.offset == extent, "the extent must be reused"
        assert endpoint.counters.get("stale_bytes_created") == 0
        assert endpoint.cache.stale_ranges == 0
        assert entry.is_sealed and entry.payload_crc == crc32c(PAYLOAD)
        # And the home CPU observes the creator's bytes, not the old tenant's.
        assert bytes(home_client.get_bytes(second)) == PAYLOAD
