"""Every way a home extent can change under an admitted hot-cache entry.

The reader's cache keeps the validated fabric view of the home extent, and
serves it only after the home header has vouched for the incarnation. So
whatever changes those bytes — a raw region write, a chaos bit flip, a
scrub repair, a put that reuses the extent of a delete whose invalidation
was lost, an eviction round that does the same — a later read returns
exactly what the same read returns with the tier plane off: the cache may
change latency, never outcomes. Admission and every hit copy no byte.

A handle held across the home's delete and reuse never reads the new
owner's bytes: its read meets the reused extent's header and fails typed,
whether the entry is still cached or not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import BitFlip, FaultPlan, RpcBlackhole
from repro.common.config import ClusterConfig, TierConfig
from repro.common.errors import ObjectNotFoundError, ReproError, StaleDescriptorError
from repro.common.ids import ObjectID
from repro.core.cluster import Cluster

PAYLOAD = bytes(range(256)) * 64
OTHER = b"\xa5" * len(PAYLOAD)
HOME, READER = "node0", "node1"


def oid(n: int) -> ObjectID:
    return ObjectID.from_int(n)


def make_cluster(tier: TierConfig | None = TierConfig(), **store) -> Cluster:
    """Two nodes without placement, so a put lands on the node it is
    issued from; a chaos runtime so tests can flip bits and blackhole."""
    config = ClusterConfig(tier=tier).with_store(lookup_cache=True, **store)
    return Cluster(config, 2, fault_plan=FaultPlan())


def read_released(client, object_id: ObjectID):
    """A fresh Get's payload, or the type of the error it failed with."""
    try:
        buffer = client.get([object_id])[0]
    except ReproError as exc:
        return type(exc)
    try:
        return bytes(buffer.read_view())
    except ReproError as exc:
        return type(exc)
    finally:
        client.release(object_id)


def admit(cluster: Cluster):
    """Put oid(1) at the home, read it once from the reader (with the tier
    plane on, a miss that admits the view); returns (payload offset,
    generation, reader client)."""
    cluster.client(HOME).put_bytes(oid(1), PAYLOAD)
    client = cluster.client(READER)
    assert read_released(client, oid(1)) == PAYLOAD
    descriptor = cluster.store(HOME).lookup_descriptor(oid(1))
    return descriptor["offset"], descriptor["generation"], client


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
FLIPPED = PAYLOAD[:9] + bytes([PAYLOAD[9] ^ (1 << 2)]) + PAYLOAD[10:]


def read_after(mutate, tier, store) -> tuple:
    """Admit, change the home, read oid(1) again: (outcome, cache)."""
    cluster = make_cluster(tier, **store)
    offset, _, client = admit(cluster)
    mutate(cluster, offset)
    outcome = read_released(client, oid(1))
    agent = cluster.tier_agent(READER)
    return outcome, agent.cache if agent is not None else None


@pytest.mark.parametrize(
    ("mutate", "store", "outcome"),
    [
        (raw_write, {}, OTHER),
        (bit_flip, {}, FLIPPED),
        (repair, {}, PAYLOAD),
        (delete_then_reuse, {}, ObjectNotFoundError),
        (evict_then_reuse, ONE_OBJECT, ObjectNotFoundError),
    ],
    ids=["region-write", "bitflip", "repair", "delete-reuse", "evict-reuse"],
)
def test_home_change_reads_as_it_does_untiered(mutate, store, outcome):
    untiered, _ = read_after(mutate, None, store)
    tiered, cache = read_after(mutate, TierConfig(), store)
    assert untiered == outcome
    assert tiered == outcome
    assert cache.admissions == 1


def test_fault_free_reuse_copies_nothing():
    """A delivered delete invalidation drops the entry before the extent
    is reused; every entry admitted before and after is the home extent's
    read-only view, never a copy of it."""
    cluster = make_cluster()
    offset, generation, client = admit(cluster)
    cache = cluster.tier_agent(READER).cache
    assert read_released(client, oid(1)) == PAYLOAD
    cluster.client(HOME).delete(oid(1))
    assert cache.lookup(oid(1), generation) is None
    cluster.client(HOME).put_bytes(oid(2), OTHER)
    assert cluster.store(HOME).lookup_descriptor(oid(2))["offset"] == offset
    assert read_released(client, oid(2)) == OTHER
    assert read_released(client, oid(2)) == OTHER
    assert (cache.admissions, cache.hits) == (2, 2)
    memory = cluster.node(HOME).endpoint.memory
    home = np.frombuffer(memory.view(0, memory.capacity), np.uint8)
    generation = cluster.store(HOME).lookup_descriptor(oid(2))["generation"]
    entry = cache.lookup(oid(2), generation)
    assert isinstance(entry, memoryview) and entry.readonly
    assert np.shares_memory(np.frombuffer(entry, np.uint8), home)


# -- a handle held across the delete and the reuse --------------------------------------


def evict_entry_then_reuse(cluster: Cluster, offset: int) -> None:
    """A hotter object displaces oid(1) from the reader's one-entry cache,
    then the home deletes oid(1) and reuses its extent."""
    cluster.client(HOME).put_bytes(oid(3), OTHER)
    client = cluster.client(READER)
    for _ in range(2):  # as often as oid(1): the sketch lets it displace oid(1)
        assert read_released(client, oid(3)) == OTHER
    assert cluster.tier_agent(READER).cache.evictions == 1
    reuse(cluster, offset)


@pytest.mark.parametrize(
    ("mutate", "tier"),
    [
        (reuse, TierConfig()),
        (delete_then_reuse, TierConfig()),
        (evict_entry_then_reuse, TierConfig(cache_capacity_bytes=len(PAYLOAD))),
    ],
    ids=["delivered-delete", "lost-delete", "evicted-entry"],
)
def test_held_handle_never_reads_the_new_owners_bytes(mutate, tier):
    """Its read meets the reused extent's header and fails typed, with the
    entry still cached or not; releasing it leaves no remote record."""
    cluster = make_cluster(tier)
    offset, _, client = admit(cluster)
    buffer = client.get([oid(1)])[0]
    mutate(cluster, offset)
    with pytest.raises(StaleDescriptorError):
        buffer.read_all()
    client.release(oid(1))
    assert client.store.remote_record(oid(1)) is None
