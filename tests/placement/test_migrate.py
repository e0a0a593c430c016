"""Live-migration mechanics: pull protocol, retire-before-free, deferral."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import PlacementConfig
from repro.common.config import testing_config as make_testing_config
from repro.common.units import MiB
from repro.core import Cluster

PAYLOAD = b"migrate-me" * 400  # ~4 KB


@pytest.fixture
def pcluster():
    return Cluster(
        replace(
            make_testing_config(capacity_bytes=32 * MiB, seed=11),
            placement=PlacementConfig(),
        ).with_store(lookup_cache=True),
        ["node0", "node1", "node2"],
    )


def put_on(cluster, node, payload=PAYLOAD):
    """Create an object that lives on *node* (route through the ring)."""
    ring = cluster.placement_ring()
    oid = next(
        o for o in cluster.new_object_ids(128) if ring.home(o) == node
    )
    cluster.client(node).put_bytes(oid, payload)
    return oid


class TestMigrate:
    def test_moves_object_and_retires_source(self, pcluster):
        oid = put_on(pcluster, "node0")
        engine = pcluster.migration_engine
        result = engine.migrate(pcluster.store("node0"), "node1", oid)
        assert result.status == "migrated"
        assert result.bytes_moved == len(PAYLOAD)
        assert result.source_retired
        assert not pcluster.store("node0").contains(oid)
        assert pcluster.store("node1").contains(oid)
        assert bytes(pcluster.client("node2").get_bytes(oid)) == PAYLOAD
        assert engine.counters.get("migrations_completed") == 1
        assert engine.counters.get("migration_bytes_moved") == len(PAYLOAD)

    def test_destination_copy_gets_fresh_generation(self, pcluster):
        oid = put_on(pcluster, "node0")
        src = pcluster.store("node0").lookup_descriptor(oid)
        pcluster.migration_engine.migrate(pcluster.store("node0"), "node1", oid)
        dst = pcluster.store("node1").lookup_descriptor(oid)
        assert dst is not None
        assert dst["generation"] >= 1
        assert dst["data_size"] == src["data_size"]

    def test_vanished_source_object_aborts(self, pcluster):
        oid = put_on(pcluster, "node0")
        pcluster.client("node0").delete(oid)
        result = pcluster.migration_engine.migrate(
            pcluster.store("node0"), "node1", oid
        )
        assert result.status == "aborted"
        assert "no longer migratable" in result.detail

    def test_pinned_source_defers_retirement(self, pcluster):
        oid = put_on(pcluster, "node0")
        holder = pcluster.client("node0")
        buf = holder.get_one(oid)  # local reader pins the source copy
        result = pcluster.migration_engine.migrate(
            pcluster.store("node0"), "node1", oid
        )
        assert result.status == "migrated"
        assert not result.source_retired
        src = pcluster.store("node0")
        assert oid in src.deferred_retires()
        # The reader's bytes stay valid for the life of its handle.
        assert bytes(buf.read_all()) == PAYLOAD
        assert src.contains(oid)
        holder.release(oid)
        assert src.flush_deferred_retires() == 1
        assert not src.contains(oid)
        assert bytes(pcluster.client("node2").get_bytes(oid)) == PAYLOAD

    def test_cached_descriptor_never_served_after_migration(self, pcluster):
        oid = put_on(pcluster, "node0")
        reader = pcluster.client("node2")
        assert bytes(reader.get_bytes(oid)) == PAYLOAD  # caches node0 home
        cache = pcluster.store("node2").lookup_cache
        assert oid in cache
        pcluster.migration_engine.migrate(pcluster.store("node0"), "node1", oid)
        # Retirement broadcast NotifyDeleted, so the peer's cached
        # descriptor is gone before anyone can read through it; the re-read
        # re-looks-up and lands on node1.
        assert oid not in cache
        assert cache.invalidations >= 1
        assert bytes(reader.get_bytes(oid)) == PAYLOAD

    def test_replica_holder_promotion_counts_already_placed(self, pcluster):
        ring = pcluster.placement_ring()
        oid = next(
            o for o in pcluster.new_object_ids(128)
            if ring.home(o) == "node0"
        )
        pcluster.client("node0").put_bytes(oid, PAYLOAD, replicas=2)
        src = pcluster.store("node0")
        replica_holder = src.replica_locations(oid)[0]
        result = pcluster.migration_engine.migrate(src, replica_holder, oid)
        assert result.status == "already_placed"
        assert result.bytes_moved == 0
        assert not src.contains(oid)
        assert pcluster.store(replica_holder).contains(oid)
        assert not pcluster.store(replica_holder).is_replica(oid)
        assert bytes(pcluster.client("node2").get_bytes(oid)) == PAYLOAD
