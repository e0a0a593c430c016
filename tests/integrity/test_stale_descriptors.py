"""Stale cached descriptors: generation mismatch as the backstop
invalidation signal (satellite regression for lost NotifyDeleted).

The lookup cache is normally kept honest by NotifyDeleted pushes. When
that push is lost — blackholed RPC window, crashed notifier — the cached
descriptor silently outlives the object. These tests pin the backstop:
the validated fabric read detects the generation/seal mismatch in the
in-region header, evicts the cache entry, re-looks-up once, and either
retries transparently (object re-created) or surfaces a typed error
(object gone for good). No garbage bytes in either case.
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

        with pytest.raises(StaleDescriptorError):
            consumer.get_bytes(oid)
        # Generation mismatch evicted the lying entry (satellite b)...
        assert store1.lookup_cache.get(oid) is None
        assert store1.counters.get("stale_descriptor_refreshes") >= 1
        # ...so the next request resolves cleanly to not-found.
        with pytest.raises(ObjectNotFoundError):
            consumer.get_bytes(oid)

    def test_recreated_object_is_retried_transparently(self, cached_cluster):
        cluster = cached_cluster
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"A" * 4096)
        assert consumer.get_bytes(oid) == b"A" * 4096

        window = _blackhole_notifications(cluster)
        producer.delete(oid)
        producer.put_bytes(oid, b"B" * 4096)  # same id, new generation
        cluster.clock.advance(window + 1)
        cluster.chaos.poll()

        # The cached descriptor points at the old incarnation; the validated
        # read detects the mismatch, re-looks-up and retries — one call, the
        # new bytes, no error.
        assert consumer.get_bytes(oid) == b"B" * 4096
        assert cluster.store("node1").counters.get("stale_descriptor_refreshes") >= 1

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
