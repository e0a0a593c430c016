"""The pre-resolution fast path over a live cluster: a cached hot object
is served without any RPC to its home, and push invalidation keeps that
sound across deletes and re-puts."""

import pytest

from repro.common.config import ClusterConfig, PlacementConfig, TierConfig
from repro.common.errors import ReproError
from repro.common.ids import ObjectID
from repro.core.cluster import Cluster


def oid(n: int) -> ObjectID:
    return ObjectID.from_int(n)


def holder_of(cluster: Cluster, object_id: ObjectID) -> str | None:
    for name in sorted(cluster.node_names()):
        store = cluster.store(name)
        if store.is_replica(object_id):
            continue
        with store.table.lock:
            entry = store.table.lookup(object_id)
            if entry is not None and entry.is_sealed:
                return name
    return None


def rpc_calls_to(cluster: Cluster, node: str, peer: str) -> int:
    return cluster.store(node).peer(peer).stub.channel.counters.get("calls")


def read_released(client, object_id: ObjectID) -> bytes:
    buf = client.get([object_id])[0]
    try:
        return buf.read_all()
    finally:
        client.release(object_id)


@pytest.fixture()
def cluster():
    return Cluster(
        ClusterConfig(placement=PlacementConfig(), tier=TierConfig()).with_store(
            lookup_cache=True
        ),
        3,
    )


def remote_reader(cluster: Cluster, object_id: ObjectID) -> str:
    home = holder_of(cluster, object_id)
    return next(n for n in ("node0", "node1", "node2") if n != home)


def test_cache_hit_skips_home_rpcs_entirely(cluster):
    payload = b"hot" * 1000
    cluster.client("node0").put_bytes(oid(1), payload)
    home = holder_of(cluster, oid(1))
    reader = remote_reader(cluster, oid(1))
    client = cluster.client(reader)
    # First read resolves at the home and seeds the reader's cache.
    assert read_released(client, oid(1)) == payload
    cache = cluster.tier_agent(reader).cache
    assert cache.lookup_any(oid(1)) is not None
    before = rpc_calls_to(cluster, reader, home)
    assert read_released(client, oid(1)) == payload
    assert rpc_calls_to(cluster, reader, home) == before
    assert cache.hits >= 1
    assert cache.bytes_avoided >= len(payload)


def test_cached_read_is_cheaper_than_fabric_read(cluster):
    payload = b"x" * (256 * 1024)
    cluster.client("node0").put_bytes(oid(1), payload)
    reader = remote_reader(cluster, oid(1))
    client = cluster.client(reader)
    clock = cluster.clock

    t0 = clock.now_ns
    read_released(client, oid(1))
    fabric_cost = clock.now_ns - t0

    t0 = clock.now_ns
    read_released(client, oid(1))
    cached_cost = clock.now_ns - t0

    assert cached_cost < fabric_cost


def test_delete_pushes_invalidation_to_every_peer(cluster):
    cluster.client("node0").put_bytes(oid(1), b"doomed" * 100)
    home = holder_of(cluster, oid(1))
    reader = remote_reader(cluster, oid(1))
    client = cluster.client(reader)
    read_released(client, oid(1))
    cache = cluster.tier_agent(reader).cache
    assert cache.lookup_any(oid(1)) is not None
    cluster.store(home).delete_object(oid(1))
    # NotifyDeleted reached the reader: nothing cached, nothing servable.
    assert cache.lookup_any(oid(1)) is None
    with pytest.raises(ReproError):
        client.get([oid(1)])


def test_re_put_after_delete_never_serves_stale_bytes(cluster):
    cluster.client("node0").put_bytes(oid(1), b"old-incarnation")
    home = holder_of(cluster, oid(1))
    reader = remote_reader(cluster, oid(1))
    client = cluster.client(reader)
    assert read_released(client, oid(1)) == b"old-incarnation"
    cluster.store(home).delete_object(oid(1))
    cluster.client("node0").put_bytes(oid(1), b"new-incarnation!")
    assert read_released(client, oid(1)) == b"new-incarnation!"
    assert read_released(client, oid(1)) == b"new-incarnation!"


def test_cache_served_buffer_release_is_clean(cluster):
    cluster.client("node0").put_bytes(oid(1), b"r" * 512)
    home = holder_of(cluster, oid(1))
    reader = remote_reader(cluster, oid(1))
    client = cluster.client(reader)
    read_released(client, oid(1))  # seed
    read_released(client, oid(1))  # cache-served, then released
    agent = cluster.tier_agent(reader)
    assert agent._served_refs == {}
    # With no cache-held pin outstanding the home can delete freely.
    cluster.store(home).delete_object(oid(1))


def test_migration_bumps_generation_and_invalidates(cluster):
    cluster.client("node0").put_bytes(oid(1), b"m" * 2048)
    home = holder_of(cluster, oid(1))
    reader = remote_reader(cluster, oid(1))
    client = cluster.client(reader)
    assert read_released(client, oid(1)) == b"m" * 2048
    # Promote onto the reader: the object is now home-local there, so the
    # next read must come from the local store, not the stale cache entry.
    result = cluster.tier_engine.promote(oid(1), reader)
    assert result is not None and result.moved
    buf = client.get([oid(1)])[0]
    try:
        assert not buf.is_remote
        assert buf.read_all() == b"m" * 2048
    finally:
        client.release(oid(1))
