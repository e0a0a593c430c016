"""Targeted unit tests for the two latent bugs the 500-seed sweep found.

Both are also pinned by corpus traces; these tests exercise the store
APIs directly so a regression points at the exact call, not a 3-op
simulation trace.
"""

from dataclasses import replace

from repro.common.config import PlacementConfig
from repro.common.ids import ObjectID
from repro.core import Cluster


def _home_of(cluster, oid):
    for name in cluster.node_names():
        store = cluster.store(name)
        if store.table.contains(oid) and not store.is_replica(oid):
            return name
    raise AssertionError("no primary holder found")


def test_dropped_replica_extent_is_retired(small_config):
    """drop_replicas must retire the replica header before freeing, or a
    region scan of the holder resurrects cleanly deleted objects."""
    cluster = Cluster(small_config.with_store(check_remote_uniqueness=False), 3)
    oid = ObjectID.from_int(1)
    cluster.client("node0", client_name="t").put_bytes(
        oid, b"x" * 4096, replicas=2
    )
    home = _home_of(cluster, oid)
    holders = cluster.store(home).replica_locations(oid)
    assert holders
    holder_store = cluster.store(holders[0])
    cluster.store(home).delete_object(oid)
    with holder_store.table.lock:
        assert holder_store.table.lookup(oid) is None
    # The replica extent was freed; its header must be retired so a
    # restart's region scan cannot bring the object back.
    report = holder_store.recover()
    with holder_store.table.lock:
        assert holder_store.table.lookup(oid) is None, (
            "recovery resurrected a dropped replica extent",
            report,
        )


def test_delete_with_removed_replica_holder(small_config):
    """Deleting an object whose replica holder left the cluster must not
    raise (historically: KeyError from _drop_remote_replicas)."""
    cluster = Cluster(
        replace(small_config, placement=PlacementConfig()).with_store(
            check_remote_uniqueness=False
        ),
        3,
    )
    oid = ObjectID.from_int(2)
    cluster.client("node0", client_name="t").put_bytes(
        oid, b"y" * 2048, replicas=2
    )
    home = _home_of(cluster, oid)
    holders = cluster.store(home).replica_locations(oid)
    assert holders
    victim = holders[0]
    assert victim != home
    cluster.drain_node(victim)
    cluster.rebalancer.run_until_converged()
    cluster.remove_node(victim)
    # Must complete without KeyError even though the holder is gone.
    cluster.store(home).delete_object(oid)
    for name in cluster.node_names():
        assert not cluster.store(name).table.contains(oid)
