"""A delete or eviction tells only the peers that resolved the object.

Each store keeps, per object it sealed, the set of callers its ``Lookup``
handed the descriptor to; the caller's name arrives as call metadata on
``RpcServer.dispatch_wire``. A delete sends ``DropReplica`` to the replica
holders and ``NotifyDeleted`` to the other sharers, an eviction round one
``NotifyDeleted`` per sharer listing the victims it resolved, and a replica
holder revokes its own copy's sharers when told to drop it. No set means
unknown, and unknown means every peer is told. The counts marked *parent*
were read off the blind broadcast (commit a7a961f) with these same set-ups.
"""

from dataclasses import replace

import pytest

from repro.common.config import PlacementConfig, TierConfig
from repro.common.config import testing_config as make_config
from repro.common.errors import ObjectNotFoundError
from repro.common.ids import ObjectID
from repro.common.units import KiB, MiB
from repro.core import Cluster
from tests.conftest import oid_homed_at

MODES = ["sync", "async"]
PAYLOAD = b"d" * 900


def make_cluster(mode: str = "sync", *, capacity: int = 32 * MiB) -> Cluster:
    cfg = make_config(capacity_bytes=capacity, seed=99)
    cfg = replace(
        cfg,
        rpc=replace(cfg.rpc, mode=mode),
        placement=PlacementConfig(),
        tier=TierConfig(),
    )
    return Cluster(
        cfg.with_store(check_remote_uniqueness=False, lookup_cache=True), 3
    )


def holds_cached(cluster: Cluster, node: str, oid: ObjectID) -> tuple[bool, bool]:
    """(descriptor in the lookup cache, payload in the hot-object cache)."""
    store = cluster.store(node)
    return (
        oid in store.lookup_cache,
        store.tier_agent.cache.lookup_any(oid) is not None,
    )


def told(rpc_log) -> list[tuple[str, str]]:
    return [(host, method) for host, method, _ in rpc_log]


def assert_typed_miss(cluster: Cluster, node: str, oid: ObjectID) -> None:
    with pytest.raises(ObjectNotFoundError):
        cluster.client(node).get([oid])
    assert cluster.client(node).multi_get([oid]) == [None]


# -- a delete -------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_delete_tells_only_the_peer_that_resolved_it(mode, rpc_log):
    cluster = make_cluster(mode)
    oid = oid_homed_at(cluster, "node0")
    cluster.client("node0").put_bytes(oid, PAYLOAD)
    assert cluster.client("node1").get_bytes(oid) == PAYLOAD
    assert holds_cached(cluster, "node1", oid) == (True, True)
    del rpc_log[:]

    cluster.store("node0").delete_object(oid)

    # parent: node1 NotifyDeleted, node2 NotifyDeleted.
    assert told(rpc_log) == [("node1", "NotifyDeleted")]
    assert rpc_log[0][2] == [oid]
    assert holds_cached(cluster, "node1", oid) == (False, False)
    assert cluster.store("node0").counters.get("delete_notifications") == 1
    assert_typed_miss(cluster, "node1", oid)

    # A re-put under the same id is a new object: node1 reads the new
    # bytes, never the ones it cached before the delete.
    cluster.client("node0").put_bytes(oid, b"n" * 900)
    assert cluster.client("node1").get_bytes(oid) == b"n" * 900
    assert cluster.loop.pending() == 0


@pytest.mark.parametrize("mode", MODES)
def test_restarted_home_tells_every_peer(mode, rpc_log):
    cluster = make_cluster(mode)
    oid = oid_homed_at(cluster, "node0")
    cluster.client("node0").put_bytes(oid, PAYLOAD)
    assert cluster.client("node1").get_bytes(oid) == PAYLOAD
    cluster.recover_node("node0")  # the sharer sets died with the process
    del rpc_log[:]

    cluster.store("node0").delete_object(oid)

    # parent: the same two.
    assert sorted(told(rpc_log)) == [("node1", "NotifyDeleted"), ("node2", "NotifyDeleted")]
    assert holds_cached(cluster, "node1", oid)[0] is False


def test_directory_sharing_tells_every_peer(rpc_log):
    """Under ``sharing="hashmap"`` readers resolve through the home's
    fabric-resident directory without asking it, so the home cannot know
    who holds a descriptor."""
    cluster = Cluster(
        replace(
            make_config(capacity_bytes=32 * MiB, seed=99), sharing="hashmap"
        ).with_store(lookup_cache=True, check_remote_uniqueness=False),
        3,
    )
    oid = cluster.new_object_id()
    cluster.client("node0").put_bytes(oid, PAYLOAD)
    assert cluster.client("node1").get_bytes(oid) == PAYLOAD
    assert oid in cluster.store("node1").lookup_cache
    del rpc_log[:]

    cluster.store("node0").delete_object(oid)

    # parent: the same two.
    assert told(rpc_log) == [("node1", "NotifyDeleted"), ("node2", "NotifyDeleted")]
    assert oid not in cluster.store("node1").lookup_cache


# -- the holder revokes what it handed out -------------------------------------------------


def resolved_at_holder(mode: str):
    """An object homed at node0 with a replica on *holder*, read by the
    third node while node0's store process was unreachable: the reader's
    descriptor names the holder, and only the holder knows it."""
    cluster = make_cluster(mode)
    oid = oid_homed_at(cluster, "node0")
    cluster.client("node0").put_bytes(oid, PAYLOAD, replicas=2)
    [holder] = cluster.store("node0").replica_locations(oid)
    [reader] = [n for n in ("node1", "node2") if n != holder]
    cluster.node("node0").server.shutdown()
    assert cluster.client(reader).get_bytes(oid) == PAYLOAD
    cluster.node("node0").server.restart()
    assert cluster.store(reader).lookup_cache.get(oid).home == holder
    assert holds_cached(cluster, reader, oid) == (True, True)
    return cluster, oid, holder, reader


@pytest.mark.parametrize("mode", MODES)
def test_holder_revokes_the_replica_it_handed_out(mode, rpc_log):
    cluster, oid, holder, reader = resolved_at_holder(mode)
    del rpc_log[:]

    cluster.store("node0").delete_object(oid)

    # The home tells nobody but the holder: nobody resolved the object at
    # node0. The holder's handler then revokes, inside the same call.
    # parent: reader NotifyDeleted, holder DropReplica — from the home.
    assert told(rpc_log) == [(holder, "DropReplica"), (reader, "NotifyDeleted")]
    assert all(ids == [oid] for _, _, ids in rpc_log)
    assert cluster.store(holder).counters.get("replica_revocations") == 1
    assert cluster.store(holder).counters.get("replicas_dropped") == 1
    assert cluster.store("node0").counters.get("delete_notifications") == 1
    assert holds_cached(cluster, reader, oid) == (False, False)
    assert_typed_miss(cluster, reader, oid)
    assert cluster.loop.pending() == 0


@pytest.mark.parametrize("mode", MODES)
def test_pinned_replica_keeps_its_bytes_not_its_sharers(mode, rpc_log):
    cluster, oid, holder, reader = resolved_at_holder(mode)
    local = cluster.client(holder)
    [buffer] = local.get([oid])  # the local replica, pinned
    del rpc_log[:]

    cluster.store("node0").delete_object(oid)

    # parent: the same two messages, the NotifyDeleted sent by the home.
    assert told(rpc_log) == [(holder, "DropReplica"), (reader, "NotifyDeleted")]
    store = cluster.store(holder)
    assert store.contains(oid) and store.is_replica(oid)
    assert store.counters.get("replicas_dropped") == 0
    assert holds_cached(cluster, reader, oid) == (False, False)
    assert bytes(buffer.read_all()) == PAYLOAD
    local.release(oid)


# -- an eviction round ------------------------------------------------------------------------

SIZE = 16 * KiB


@pytest.mark.parametrize("mode", MODES)
def test_eviction_round_reaches_only_its_victims_sharers(mode, rpc_log):
    cluster = make_cluster(mode, capacity=1 * MiB)
    store, client = cluster.store("node0"), cluster.client("node0")
    oids = []
    while store.capacity_bytes - store.used_bytes > SIZE + 2 * store.header_size:
        oid = oid_homed_at(cluster, "node0")
        client.put_bytes(oid, bytes([len(oids)]) * SIZE)
        oids.append(oid)
    read_by_node1 = oids[::2]
    for oid in read_by_node1:
        cluster.client("node1").get_bytes(oid)
    cluster.client("node2").get_bytes(oids[-1])  # the newest: never a victim
    feed = store.subscribe()
    del rpc_log[:]

    client.put_bytes(oid_homed_at(cluster, "node0"), b"n" * SIZE)

    victims = [note.object_id for note in list(iter(feed.pop, None)) if note.deleted]
    assert len(victims) == 13 and oids[-1] not in victims
    notified = [
        (host, ids) for host, method, ids in rpc_log if method == "NotifyDeleted"
    ]
    # parent: one message to each peer, each carrying all 13 victims.
    assert notified == [("node1", [v for v in victims if v in read_by_node1])]
    assert store.counters.get("delete_notifications") == 13
    assert not any(
        holds_cached(cluster, "node1", v)[0] for v in victims
    )
