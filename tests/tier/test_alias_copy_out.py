"""Every way a home extent can change under an admitted hot-cache entry.

The reader's cache keeps the validated fabric view of the home extent, so
each path that writes those bytes must copy the entry out first: a raw
region write, a chaos bit flip, a scrub repair, a put that reuses the
extent of a delete whose invalidation was lost, and an eviction round that
does the same. After each, the entry and a later get's read still return
the admitted bytes and ``copy_outs`` rose by exactly one. Without a write
on a cached extent it stays 0.

A handle held across the home's delete and reuse never reads the new
owner's bytes: its read hits the entry copy-out protected, or misses and
fails typed at the retired extent's header.
"""

from __future__ import annotations

import pytest

from repro.chaos import BitFlip, FaultPlan, RpcBlackhole
from repro.common.config import ClusterConfig, TierConfig
from repro.common.errors import StaleDescriptorError
from repro.common.ids import ObjectID
from repro.core.cluster import Cluster
from repro.tier.source import TierBufferSource

PAYLOAD = bytes(range(256)) * 64
OTHER = b"\xa5" * len(PAYLOAD)
HOME, READER = "node0", "node1"


def oid(n: int) -> ObjectID:
    return ObjectID.from_int(n)


def make_cluster(tier: TierConfig = TierConfig(), **store) -> Cluster:
    """Two nodes without placement, so a put lands on the node it is
    issued from; a chaos runtime so tests can flip bits and blackhole."""
    config = ClusterConfig(tier=tier).with_store(lookup_cache=True, **store)
    return Cluster(config, 2, fault_plan=FaultPlan())


def read_released(client, object_id: ObjectID):
    buffer = client.get([object_id])[0]
    try:
        return type(buffer._source), bytes(buffer.read_view())  # noqa: SLF001
    finally:
        client.release(object_id)


def admit(cluster: Cluster):
    """Put oid(1) at the home, read it once from the reader (a miss that
    admits the view); returns (payload offset, generation, reader client,
    cache)."""
    cluster.client(HOME).put_bytes(oid(1), PAYLOAD)
    client = cluster.client(READER)
    assert read_released(client, oid(1))[1] == PAYLOAD
    cache = cluster.tier_agent(READER).cache
    assert (cache.admissions, cache.copy_outs) == (1, 0)
    descriptor = cluster.store(HOME).lookup_descriptor(oid(1))
    return descriptor["offset"], descriptor["generation"], client, cache


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


def reuse(cluster: Cluster, offset: int) -> None:
    """Delete oid(1) at the home and put oid(2) into its extent."""
    cluster.client(HOME).delete(oid(1))
    cluster.client(HOME).put_bytes(oid(2), OTHER)
    assert cluster.store(HOME).lookup_descriptor(oid(2))["offset"] == offset


def delete_then_reuse(cluster: Cluster, offset: int) -> None:
    blackhole_notifications(cluster)
    reuse(cluster, offset)


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
    offset, generation, client, cache = admit(cluster)
    mutate(cluster, offset)
    assert cache.copy_outs == 1
    payload = cache.lookup(oid(1), generation)
    assert type(payload) is bytes and payload == PAYLOAD
    assert read_released(client, oid(1)) == (TierBufferSource, PAYLOAD)
    assert cache.copy_outs == 1


def test_fault_free_reuse_copies_nothing():
    """A delivered delete invalidation drops (and unregisters) the entry
    before the extent is reused: the reuse finds nothing to copy."""
    cluster = make_cluster()
    offset, generation, client, cache = admit(cluster)
    assert read_released(client, oid(1)) == (TierBufferSource, PAYLOAD)
    cluster.client(HOME).delete(oid(1))
    assert cache.lookup(oid(1), generation) is None
    cluster.client(HOME).put_bytes(oid(2), OTHER)
    assert cluster.store(HOME).lookup_descriptor(oid(2))["offset"] == offset
    assert read_released(client, oid(2))[1] == OTHER
    assert cache.copy_outs == 0


# -- a handle held across the delete and the reuse --------------------------------------


def evict_entry_then_reuse(cluster: Cluster, offset: int) -> None:
    """A hotter object displaces oid(1) from the reader's one-entry cache,
    then the home deletes oid(1) and reuses its extent."""
    cluster.client(HOME).put_bytes(oid(3), OTHER)
    client = cluster.client(READER)
    for _ in range(2):  # as often as oid(1): the sketch lets it displace oid(1)
        assert read_released(client, oid(3))[1] == OTHER
    assert cluster.tier_agent(READER).cache.evictions == 1
    reuse(cluster, offset)


def read_outcome(buffer):
    try:
        return buffer.read_all()
    except StaleDescriptorError:
        return StaleDescriptorError


@pytest.mark.parametrize(
    ("mutate", "tier", "outcome", "copy_outs"),
    [
        (reuse, TierConfig(), StaleDescriptorError, 0),
        (delete_then_reuse, TierConfig(), PAYLOAD, 1),
        (
            evict_entry_then_reuse,
            TierConfig(cache_capacity_bytes=len(PAYLOAD)),
            StaleDescriptorError,
            0,
        ),
    ],
    ids=["delivered-delete", "lost-delete", "evicted-entry"],
)
def test_held_handle_never_reads_the_new_owners_bytes(mutate, tier, outcome, copy_outs):
    """Its read hits the entry copy-out protected, or misses and meets the
    reused extent's header; releasing it leaves no remote record."""
    cluster = make_cluster(tier)
    offset, _, client, cache = admit(cluster)
    buffer = client.get([oid(1)])[0]
    mutate(cluster, offset)
    assert read_outcome(buffer) == outcome
    assert cache.copy_outs == copy_outs
    client.release(oid(1))
    assert client.store.remote_record(oid(1)) is None
