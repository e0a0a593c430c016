"""An eviction round is announced once per peer, not once per victim.

``PlasmaStore`` hands a finished round's victims to ``_announce_evicted``
after the last one is retired and freed and before the allocation that
caused the round is retried; ``DisaggregatedStore`` answers with one
``NotifyDeleted{object_ids: [all victims]}`` per peer. The counts marked
*parent* were read off the per-victim form (commit 6c245ca) with this same
set-up.
"""

from dataclasses import replace

import pytest

from repro.common.config import PlacementConfig, TierConfig
from repro.common.config import testing_config as make_config
from repro.common.errors import ObjectNotFoundError, StaleDescriptorError
from repro.common.ids import ObjectID
from repro.common.units import KiB, MiB
from repro.core import Cluster
from tests.conftest import oid_homed_at

SIZE = 16 * KiB
VICTIMS = 13  # 0.2 x 1 MiB of 16 KiB extents; parent: the same 13


def make_cluster(*, tiering: bool = True) -> Cluster:
    return Cluster(
        replace(
            make_config(capacity_bytes=1 * MiB, seed=99),
            placement=PlacementConfig(),
            tier=TierConfig() if tiering else None,
        ).with_store(check_remote_uniqueness=False, lookup_cache=True),
        3,
    )


def fill_node0(cluster: Cluster) -> dict[ObjectID, int]:
    """Put 16 KiB objects homed at node0 until one more cannot fit, then
    let both peers read every one of them, so whichever objects the next
    create evicts, both peers hold a cached descriptor (and, with tiering
    on, a cached payload) for each. Returns id -> generation, in put order."""
    store, client = cluster.store("node0"), cluster.client("node0")
    generations = {}
    while store.capacity_bytes - store.used_bytes > SIZE + 2 * store.header_size:
        oid = oid_homed_at(cluster, "node0")
        client.put_bytes(oid, bytes([len(generations)]) * SIZE)
        generations[oid] = store.table.lookup(oid).generation
    assert store.counters.get("objects_evicted") == 0
    for peer in ("node1", "node2"):
        reader = cluster.client(peer)
        for index, oid in enumerate(generations):
            assert reader.get_bytes(oid) == bytes([index]) * SIZE
        assert cached_at(cluster, peer, generations) == list(generations)
    return generations


def cached_at(cluster: Cluster, node: str, generations: dict, oids=None) -> list[ObjectID]:
    """Which of *oids* (default: all) *node* still holds a cached descriptor
    or, with tiering on, a cached payload for."""
    store = cluster.store(node)
    cache = store.tier_agent.cache if store.tier_agent is not None else None
    return [
        oid
        for oid in (generations if oids is None else oids)
        if oid in store.lookup_cache
        or (cache is not None and cache.contains(oid, generations[oid]))
    ]


def evict_one_round(cluster: Cluster) -> list[ObjectID]:
    """One create at full node0; returns the victims in eviction order."""
    store = cluster.store("node0")
    feed = store.subscribe()
    cluster.client("node0").put_bytes(oid_homed_at(cluster, "node0"), b"n" * SIZE)
    return [note.object_id for note in list(iter(feed.pop, None)) if note.deleted]


def notified(rpc_log, node: str) -> list[list[ObjectID]]:
    return [ids for host, method, ids in rpc_log if (host, method) == (node, "NotifyDeleted")]


def test_one_notify_deleted_per_peer_carries_the_whole_round(rpc_log):
    cluster = make_cluster()
    cached = fill_node0(cluster)
    del rpc_log[:]

    victims = evict_one_round(cluster)

    assert len(victims) == VICTIMS and set(victims) <= set(cached)
    # parent: 13 messages per peer, one id each — 26 RPCs; now 2.
    assert notified(rpc_log, "node1") == [victims]
    assert notified(rpc_log, "node2") == [victims]
    assert notified(rpc_log, "node0") == []
    store = cluster.store("node0")
    assert store.counters.get("objects_evicted") == VICTIMS
    # Still *objects announced*, not messages sent (parent: 13).
    assert store.counters.get("delete_notifications") == VICTIMS
    survivors = [oid for oid in cached if oid not in victims]
    for peer in ("node1", "node2"):
        assert cached_at(cluster, peer, cached, victims) == []
        assert cached_at(cluster, peer, cached, survivors) == survivors


def test_peers_forget_the_round_before_the_space_is_reallocated():
    cluster = make_cluster()
    cached = fill_node0(cluster)
    store = cluster.store("node0")
    allocate = store.allocator.allocate
    still_cached = []  # per allocate() call: what each peer holds right then

    def watching(size):
        still_cached.append(
            [set(cached_at(cluster, peer, cached)) for peer in ("node1", "node2")]
        )
        return allocate(size)

    store.allocator.allocate = watching
    victims = evict_one_round(cluster)

    # The attempt that ran out of memory, then the retry after the round.
    first_attempt, retry = still_cached
    assert first_attempt == [set(cached)] * 2
    assert retry == [set(cached) - set(victims)] * 2


def test_a_victim_read_remotely_looks_up_again_and_misses(rpc_log):
    cluster = make_cluster()
    fill_node0(cluster)
    victims = evict_one_round(cluster)
    reader = cluster.client("node1")
    served_from_cache = cluster.store("node1").counters.get("gets_cache_served")
    del rpc_log[:]

    with pytest.raises(ObjectNotFoundError):
        reader.get([victims[0]])
    assert reader.multi_get(victims[:3]) == [None, None, None]

    assert ("node0", "Lookup", [victims[0]]) in rpc_log
    assert (
        cluster.store("node1").counters.get("gets_cache_served") == served_from_cache
    )


def test_round_reaches_the_live_peer_when_the_other_is_down(rpc_log):
    # No tier cache here: its pre-resolution fast path trusts the push and
    # would serve node2 the payload it cached — the descriptor path is the
    # one a lost push must fail typed on.
    cluster = make_cluster(tiering=False)
    cached = fill_node0(cluster)
    cluster.node("node2").server.shutdown()
    del rpc_log[:]

    victims = evict_one_round(cluster)

    assert len(victims) == VICTIMS
    assert notified(rpc_log, "node1") == [victims]
    assert cached_at(cluster, "node1", cached, victims) == []
    store = cluster.store("node0")
    # One tolerated failure for the whole round (parent: one per victim, 13).
    assert store.counters.get("peers_unavailable") == 1
    # The channel retried the dead peer; every attempt was the whole round.
    attempts = notified(rpc_log, "node2")
    assert attempts and all(ids == victims for ids in attempts)
    assert store.object_count() == len(cached) - VICTIMS + 1

    # node2 missed the push and still holds every victim's descriptor. The
    # generation check on the fabric read is what keeps that safe: each
    # extent was retired (and the first re-sealed under the new object), so
    # the read fails typed and never returns old bytes.
    cluster.node("node2").server.restart()
    assert cached_at(cluster, "node2", cached, victims) == victims
    late = cluster.client("node2")
    for victim in victims:
        with pytest.raises((ObjectNotFoundError, StaleDescriptorError)):
            late.get_bytes(victim)
    assert cached_at(cluster, "node2", cached, victims) == []


def test_forced_evict_announces_one_round_too(rpc_log):
    cluster = make_cluster()
    fill_node0(cluster)
    store = cluster.store("node0")
    feed = store.subscribe()
    del rpc_log[:]

    freed = store.evict(5 * SIZE)

    victims = [note.object_id for note in list(iter(feed.pop, None)) if note.deleted]
    assert freed >= 5 * SIZE and len(victims) == VICTIMS  # the batch floor
    assert notified(rpc_log, "node1") == [victims]
    assert notified(rpc_log, "node2") == [victims]
