"""A held handle whose object migrates: after the stale-descriptor refresh
follows the object to its new home, the hot cache labels the entry with the
new home and credits the reads it saves to the new home's link."""

from __future__ import annotations

from repro.common.config import ClusterConfig, PlacementConfig, TierConfig
from repro.core.cluster import Cluster

PAYLOAD = bytes(range(256)) * 16
OLD_HOME, READER, NEW_HOME = "node0", "node1", "node2"


def avoided(cluster: Cluster, home: str) -> int:
    link = cluster.store(READER).peer(home).remote_region.aperture.link
    return link.counters.read_bytes_avoided


def test_refreshed_handle_caches_under_the_new_home():
    cluster = Cluster(
        ClusterConfig(placement=PlacementConfig(), tier=TierConfig()).with_store(
            lookup_cache=True
        ),
        3,
    )
    ring = cluster.placement_ring()
    object_id = next(
        o for o in cluster.new_object_ids(128) if ring.home(o) == OLD_HOME
    )
    cluster.client(OLD_HOME).put_bytes(object_id, PAYLOAD)
    client = cluster.client(READER)
    buf = client.get([object_id])[0]
    try:
        result = cluster.migration_engine.migrate(
            cluster.store(OLD_HOME), NEW_HOME, object_id
        )
        assert result.moved
        # The first read fails the old home's header check, refreshes onto
        # the new home and admits the view; the second hits the cache.
        assert buf.read_all() == PAYLOAD
        assert buf.read_all() == PAYLOAD
    finally:
        client.release(object_id)
    cache = cluster.tier_agent(READER).cache
    assert cluster.store(READER).counters.stale_descriptor_refreshes == 1
    assert cache.hits == 1
    assert avoided(cluster, OLD_HOME) == 0
    # The hit avoided the payload stream; its header was read (and charged).
    assert avoided(cluster, NEW_HOME) == len(PAYLOAD)
    assert cache.invalidate_home(OLD_HOME) == 0
    assert cache.invalidate_home(NEW_HOME) == 1
