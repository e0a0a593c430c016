"""The descriptor table across topology changes, and its LRU bound.

A cached descriptor carries no topology epoch: the home's in-region header
vouches for it whatever view it was learned under, and a record whose home
has left the cluster is looked up again.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import PlacementConfig
from repro.common.config import testing_config as make_testing_config
from repro.common.ids import UniqueIDGenerator
from repro.common.rng import DeterministicRng
from repro.common.units import MiB
from repro.core import Cluster
from repro.core.remote import DescriptorTable, RemoteObjectRecord

PAYLOAD = b"descriptor" * 300


def make_record(oid, home="node1"):
    return RemoteObjectRecord(
        object_id=oid, home=home, offset=0, data_size=64
    )


def make_ids(n):
    return UniqueIDGenerator(DeterministicRng(77).spawn("cache-ids")).take(n)


@pytest.fixture
def pcluster():
    return Cluster(
        replace(
            make_testing_config(capacity_bytes=32 * MiB, seed=11),
            placement=PlacementConfig(),
        ).with_store(lookup_cache=True),
        ["node0", "node1", "node2"],
    )


def homed_at(cluster, node):
    ring = cluster.placement_ring()
    return next(o for o in cluster.new_object_ids(128) if ring.home(o) == node)


class TestTopologyChanges:
    def test_descriptor_from_before_an_install_reads_with_lookups_down(
        self, pcluster
    ):
        # The data plane is up while the control plane is down: the home
        # header vouches for the descriptor, so no Lookup is needed.
        oid = homed_at(pcluster, "node1")
        pcluster.client("node1").put_bytes(oid, PAYLOAD)
        reader = pcluster.client("node0")
        assert bytes(reader.get_bytes(oid)) == PAYLOAD
        store = pcluster.store("node0")
        epoch = store.topology_epoch
        pcluster.drain_node("node2")
        assert store.topology_epoch > epoch
        for peer in ("node1", "node2"):
            pcluster.node(peer).server.shutdown()
        rpcs = store.counters.lookup_rpcs
        assert bytes(reader.get_bytes(oid)) == PAYLOAD
        assert store.counters.lookup_rpcs == rpcs

    @pytest.mark.parametrize("held", [False, True])
    def test_descriptor_whose_home_left_is_looked_up_again(self, pcluster, held):
        oid = homed_at(pcluster, "node2")
        pcluster.client("node2").put_bytes(oid, PAYLOAD, replicas=2)
        assert pcluster.store("node2").replica_locations(oid) == ("node0",)
        reader = pcluster.client("node1")
        reader.get_one(oid)
        store = pcluster.store("node1")
        assert store.remote_record(oid).home == "node2"
        if not held:
            reader.release(oid)
        pcluster.drain_node("node2")
        pcluster.remove_node("node2", force=True)
        assert oid in store.lookup_cache
        rpcs = store.counters.lookup_rpcs
        # The record names a home that is no longer a peer: the Get drops
        # it (a held one once its handle is released) and the Lookup finds
        # the surviving replica, never the untyped "has no peer" error.
        assert bytes(reader.get_bytes(oid)) == PAYLOAD
        assert store.counters.lookup_rpcs == rpcs + 1
        if held:
            reader.release(oid)
        assert store.remote_record(oid) is None
        assert store.lookup_cache.get(oid).home == "node0"


class TestEvictionStats:
    def test_lru_eviction_counted(self):
        cache = DescriptorTable(max_entries=3)
        ids = make_ids(5)
        for oid in ids:
            cache.put(make_record(oid))
        assert cache.evictions == 2
        assert len(cache) == 3
        # Oldest two went; newest three remain.
        assert ids[0] not in cache and ids[1] not in cache
        for oid in ids[2:]:
            assert oid in cache

    def test_get_refreshes_recency(self):
        cache = DescriptorTable(max_entries=2)
        a, b, c = make_ids(3)
        cache.put(make_record(a))
        cache.put(make_record(b))
        assert cache.get(a) is not None  # a becomes most-recent
        cache.put(make_record(c))  # evicts b, not a
        assert a in cache and b not in cache and c in cache
        assert cache.evictions == 1
