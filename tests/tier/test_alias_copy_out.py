"""Every way a home extent can change under an admitted hot-cache entry.

The reader's cache keeps the validated fabric view of the home extent, so
each path that writes those bytes must copy the entry out first: a raw
region write, a chaos bit flip, a scrub repair, a put that reuses the
extent of a delete whose invalidation was lost, and an eviction round that
does the same. After each, the entry and a cache-served get still return
the admitted bytes and ``copy_outs`` rose by exactly one. Without a write
on a cached extent it stays 0.
"""

from __future__ import annotations

import pytest

from repro.chaos import BitFlip, FaultPlan, RpcBlackhole
from repro.common.config import ClusterConfig, TierConfig
from repro.common.ids import ObjectID
from repro.core.cluster import Cluster
from repro.tier.source import CachedBufferSource

PAYLOAD = bytes(range(256)) * 64
OTHER = b"\xa5" * len(PAYLOAD)
HOME, READER = "node0", "node1"


def oid(n: int) -> ObjectID:
    return ObjectID.from_int(n)


def make_cluster(**store) -> Cluster:
    """Two nodes without placement, so a put lands on the node it is
    issued from; a chaos runtime so tests can flip bits and blackhole."""
    config = ClusterConfig(tier=TierConfig()).with_store(lookup_cache=True, **store)
    return Cluster(config, 2, fault_plan=FaultPlan())


def read_released(client, object_id: ObjectID):
    buffer = client.get([object_id])[0]
    try:
        return type(buffer._source), bytes(buffer.read_view())  # noqa: SLF001
    finally:
        client.release(object_id)


def admit(cluster: Cluster):
    """Put oid(1) at the home, read it once from the reader (a miss that
    admits the view); returns (payload offset, reader client, cache)."""
    cluster.client(HOME).put_bytes(oid(1), PAYLOAD)
    client = cluster.client(READER)
    assert read_released(client, oid(1))[1] == PAYLOAD
    cache = cluster.tier_agent(READER).cache
    assert (cache.admissions, cache.copy_outs) == (1, 0)
    return cluster.store(HOME).lookup_descriptor(oid(1))["offset"], client, cache


def blackhole_notifications(cluster: Cluster) -> None:
    """Swallow home -> reader RPCs, NotifyDeleted included, from now on."""
    cluster.chaos.inject(
        RpcBlackhole(
            at_ns=cluster.clock.now_ns, src=HOME, dst=READER, duration_ns=10**12
        )
    )
    cluster.chaos.poll()


def raw_write(cluster: Cluster, offset: int) -> None:
    cluster.node(HOME).endpoint.exposed.write(offset, OTHER)


def bit_flip(cluster: Cluster, offset: int) -> None:
    cluster.chaos.inject(
        BitFlip(at_ns=cluster.clock.now_ns, node=HOME, offset=offset + 9, bit=2)
    )
    cluster.chaos.poll()


def repair(cluster: Cluster, offset: int) -> None:
    cluster.store(HOME).repair_object(oid(1), PAYLOAD)


def delete_then_reuse(cluster: Cluster, offset: int) -> None:
    blackhole_notifications(cluster)
    cluster.client(HOME).delete(oid(1))
    cluster.client(HOME).put_bytes(oid(2), OTHER)
    assert cluster.store(HOME).lookup_descriptor(oid(2))["offset"] == offset


def evict_then_reuse(cluster: Cluster, offset: int) -> None:
    blackhole_notifications(cluster)
    cluster.client(HOME).put_bytes(oid(2), OTHER)
    assert cluster.store(HOME).counters.objects_evicted == 1
    assert cluster.store(HOME).lookup_descriptor(oid(2))["offset"] == offset


# Room for exactly one PAYLOAD-sized object, so a second put must evict.
ONE_OBJECT = {"capacity_bytes": 24 * 1024}


@pytest.mark.parametrize(
    ("mutate", "store"),
    [
        (raw_write, {}),
        (bit_flip, {}),
        (repair, {}),
        (delete_then_reuse, {}),
        (evict_then_reuse, ONE_OBJECT),
    ],
    ids=["region-write", "bitflip", "repair", "delete-reuse", "evict-reuse"],
)
def test_home_change_copies_the_entry_out_first(mutate, store):
    cluster = make_cluster(**store)
    offset, client, cache = admit(cluster)
    mutate(cluster, offset)
    assert cache.copy_outs == 1
    _, payload, _ = cache.lookup_any(oid(1))
    assert type(payload) is bytes and payload == PAYLOAD
    assert read_released(client, oid(1)) == (CachedBufferSource, PAYLOAD)
    assert cache.copy_outs == 1


def test_fault_free_reuse_copies_nothing():
    """A delivered delete invalidation drops (and unregisters) the entry
    before the extent is reused: the reuse finds nothing to copy."""
    cluster = make_cluster()
    offset, client, cache = admit(cluster)
    assert read_released(client, oid(1)) == (CachedBufferSource, PAYLOAD)
    cluster.client(HOME).delete(oid(1))
    assert cache.lookup_any(oid(1)) is None
    cluster.client(HOME).put_bytes(oid(2), OTHER)
    assert cluster.store(HOME).lookup_descriptor(oid(2))["offset"] == offset
    assert read_released(client, oid(2))[1] == OTHER
    assert cache.copy_outs == 0
