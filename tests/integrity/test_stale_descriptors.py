"""Stale cached descriptors: the home header as the one coherence check
(regressions for a lost NotifyDeleted).

The lookup cache is normally kept honest by NotifyDeleted pushes. When
that push is lost — blackholed RPC window, crashed notifier — the cached
descriptor silently outlives the object. These tests pin what keeps that
safe without the push:

* a fresh Get probes the home header before it uses a descriptor no held
  handle backs; one the header no longer vouches for is dropped and the id
  looked up again, which finds the live incarnation (whatever its bytes)
  or reports the id missing;
* a *held* handle never follows its id to other bytes: its validated read
  re-looks-up once and follows only a move that kept size and checksum,
  and otherwise fails typed.

No garbage bytes in any case.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan, RpcBlackhole
from repro.common.config import testing_config as make_testing_config
from repro.common.errors import ObjectNotFoundError, StaleDescriptorError
from repro.common.units import MiB
from repro.core import Cluster


@pytest.fixture
def cached_cluster():
    """2-node cluster: lookup cache + deletion notifications on, plus a
    chaos runtime so tests can blackhole the notification channel."""
    return Cluster(
        make_testing_config(capacity_bytes=32 * MiB, seed=99).with_store(
            check_remote_uniqueness=False, lookup_cache=True
        ),
        fault_plan=FaultPlan(),
    )


def _blackhole_notifications(cluster, duration_ns=50_000_000):
    """Swallow node0 -> node1 RPCs (NotifyDeleted included) for a window
    starting now."""
    cluster.chaos.inject(
        RpcBlackhole(
            at_ns=cluster.clock.now_ns,
            src="node0",
            dst="node1",
            duration_ns=duration_ns,
        )
    )
    cluster.chaos.poll()
    return duration_ns


class TestStaleDescriptors:
    def test_lost_notify_deleted_surfaces_typed_and_evicts_cache(
        self, cached_cluster
    ):
        cluster = cached_cluster
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"original" * 100)
        assert consumer.get_bytes(oid) == b"original" * 100  # caches descriptor
        store1 = cluster.store("node1")
        assert store1.lookup_cache.get(oid) is not None

        window = _blackhole_notifications(cluster)
        producer.delete(oid)  # NotifyDeleted to node1 is swallowed
        assert store1.lookup_cache.get(oid) is not None  # cache is now wrong
        cluster.clock.advance(window + 1)
        cluster.chaos.poll()

        # The header no longer vouches for the cached descriptor: the Get
        # drops it, looks the id up again and finds nobody holding it.
        with pytest.raises(ObjectNotFoundError):
            consumer.get_bytes(oid)
        assert store1.lookup_cache.get(oid) is None
        assert store1.counters.stale_descriptor_refreshes == 1
        assert store1.remote_record(oid) is None

    def test_recreated_object_is_retried_transparently(
        self, cached_cluster, monkeypatch
    ):
        cluster = cached_cluster
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"A" * 4096)
        assert consumer.get_bytes(oid) == b"A" * 4096

        window = _blackhole_notifications(cluster)
        producer.delete(oid)
        producer.put_bytes(oid, b"A" * 4096)  # same id and bytes, new generation
        cluster.clock.advance(window + 1)
        cluster.chaos.poll()

        # The cached descriptor names the old incarnation; the Get's header
        # probe catches that and resolves the new one, so the read itself
        # never needs a refresh.
        store1 = cluster.store("node1")

        def no_read_time_refresh(issued):
            raise AssertionError("a fresh Get must not refresh at read time")

        monkeypatch.setattr(store1, "_refresh_stale", no_read_time_refresh)
        assert consumer.get_bytes(oid) == b"A" * 4096
        assert store1.counters.stale_descriptor_refreshes == 1
        assert store1.lookup_cache.get(oid).generation == (
            cluster.store("node0").table.lookup(oid).generation
        )

    def test_recreated_with_new_content_fails_typed_once(self, cached_cluster):
        cluster = cached_cluster
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"A" * 4096)
        held = consumer.get_one(oid)

        window = _blackhole_notifications(cluster)
        producer.delete(oid)
        producer.put_bytes(oid, b"B" * 4096)  # same id and size, new bytes
        cluster.clock.advance(window + 1)
        cluster.chaos.poll()

        # A held handle never follows its id to different bytes: its read
        # refreshes once and fails typed...
        with pytest.raises(StaleDescriptorError):
            held.read_all()
        store1 = cluster.store("node1")
        assert store1.counters.stale_descriptor_refreshes == 1
        # ...and the refresh left the fresh descriptor, so a fresh Get
        # reads the new incarnation without another refresh.
        assert consumer.get_bytes(oid) == b"B" * 4096
        assert store1.counters.stale_descriptor_refreshes == 1
        consumer.release(oid)
        assert store1.remote_record(oid) is None  # released cleanly

    def test_recreated_with_new_content_serves_a_fresh_get_the_new_bytes(
        self, cached_cluster
    ):
        cluster = cached_cluster
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"A" * 4096)
        assert consumer.get_bytes(oid) == b"A" * 4096

        window = _blackhole_notifications(cluster)
        producer.delete(oid)
        producer.put_bytes(oid, b"B" * 4096)
        cluster.clock.advance(window + 1)
        cluster.chaos.poll()

        # Nothing holds the old incarnation, so a fresh Get accepts any live
        # one: the new bytes, after one refresh at resolution.
        store1 = cluster.store("node1")
        assert consumer.get_bytes(oid) == b"B" * 4096
        assert store1.counters.stale_descriptor_refreshes == 1
        assert store1.remote_record(oid) is None
        assert consumer.get_bytes(oid) == b"B" * 4096
        assert store1.counters.stale_descriptor_refreshes == 1

    def test_notify_deleted_still_wins_when_delivered(self, cached_cluster):
        cluster = cached_cluster
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"x" * 256)
        consumer.get_bytes(oid)
        store1 = cluster.store("node1")
        assert store1.lookup_cache.get(oid) is not None
        producer.delete(oid)  # notification delivered normally
        assert store1.lookup_cache.get(oid) is None
        with pytest.raises(ObjectNotFoundError):
            consumer.get_bytes(oid)


@pytest.mark.parametrize("lookup_cache", [False, True])
def test_held_handle_never_reads_another_objects_bytes(lookup_cache):
    """A remote handle held across a delete, a smaller re-put of the same
    id and a neighbouring put must not read the new incarnation followed
    by its neighbour's header and bytes: it fails typed, and the id's new
    bytes stay readable through a fresh Get meanwhile."""
    cluster = Cluster(
        make_testing_config(capacity_bytes=32 * MiB, seed=99).with_store(
            check_remote_uniqueness=False, lookup_cache=lookup_cache
        )
    )
    home = cluster.client("node0")
    reader = cluster.client("node1")
    oid = cluster.new_object_id()
    home.put_bytes(oid, b"A" * 4096)
    buf = reader.get_one(oid)

    home.delete(oid)
    home.put_bytes(oid, b"B" * 100)
    home.put_bytes(cluster.new_object_id(), b"C" * 8192)

    with pytest.raises(StaleDescriptorError):
        buf.read_all()
    assert reader.get_bytes(oid) == b"B" * 100
    with pytest.raises(StaleDescriptorError):
        buf.read_all()  # the held handle stays on its own incarnation
    reader.release(oid)
    assert cluster.store("node1").remote_record(oid) is None


def test_held_handle_follows_a_same_bytes_recreation(cached_cluster):
    """A handle held across a lost delete and a re-put of its id with the
    same size and checksum follows the new incarnation after one refresh
    (a move that keeps the bytes, like a migration)."""
    cluster = cached_cluster
    producer = cluster.client("node0")
    consumer = cluster.client("node1")
    oid = cluster.new_object_id()
    producer.put_bytes(oid, b"A" * 4096)
    held = consumer.get_one(oid)

    window = _blackhole_notifications(cluster)
    producer.delete(oid)
    producer.put_bytes(oid, b"A" * 4096)
    cluster.clock.advance(window + 1)
    cluster.chaos.poll()

    assert held.read_all() == b"A" * 4096
    store1 = cluster.store("node1")
    assert store1.counters.stale_descriptor_refreshes == 1
    consumer.release(oid)
    assert store1.remote_record(oid) is None
