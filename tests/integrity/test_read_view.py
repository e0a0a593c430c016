"""Integrity checks still guard the zero-copy read: a handle whose home
extent was retired, recreated, quarantined or corrupted after the Get must
fail typed (or retry transparently) through ``read_view`` exactly as the
copying reads do — the view is handed out only after every check passed."""

from __future__ import annotations

import pytest

from repro.common.config import testing_config as make_testing_config
from repro.common.errors import ObjectCorruptedError, StaleDescriptorError
from repro.common.units import MiB
from repro.core import Cluster


def make_cluster(**store_overrides) -> Cluster:
    return Cluster(
        make_testing_config(capacity_bytes=32 * MiB, seed=99).with_store(
            **store_overrides
        ),
        n_nodes=2,
        check_remote_uniqueness=False,
    )


@pytest.fixture
def held():
    """(cluster, oid, node1's handle on an object homed at node0). Usage
    sharing is off, so the Get takes no home-side pin and the home can
    retire the extent under the handle."""
    cluster = make_cluster()
    oid = cluster.new_object_id()
    cluster.client("node0").put_bytes(oid, b"A" * 4096)
    [buffer] = cluster.store("node1").get_buffers([oid])
    return cluster, oid, buffer


def test_retired_extent_refreshes_then_fails_typed(held):
    cluster, oid, buffer = held
    cluster.store("node0").delete_object(oid)
    with pytest.raises(StaleDescriptorError):
        buffer.read_view()
    assert cluster.store("node1").counters.get("stale_descriptor_refreshes") == 1


def test_recreated_object_is_retried_transparently(held):
    cluster, oid, buffer = held
    cluster.store("node0").delete_object(oid)
    cluster.client("node0").put_bytes(oid, b"B" * 4096)  # same id, new generation
    assert buffer.read_view() == b"B" * 4096
    assert cluster.store("node1").counters.get("stale_descriptor_refreshes") == 1


def test_quarantined_object_fails_typed(held):
    cluster, oid, buffer = held
    cluster.store("node0").quarantine_object(oid)
    with pytest.raises(ObjectCorruptedError, match="quarantined"):
        buffer.read_view()


def test_checksum_is_verified_over_the_view():
    cluster = make_cluster(verify_checksum_on_read=True, checksum_ns_per_byte=0.05)
    oid = cluster.new_object_id()
    cluster.client("node0").put_bytes(oid, b"C" * 4096)
    client = cluster.client("node1")
    buffer = client.get([oid])[0]
    assert buffer.read_view() == b"C" * 4096
    home = cluster.store("node0")
    offset = home.lookup_descriptor(oid)["offset"]
    cluster.node("node0").endpoint.exposed.write(offset + 9, b"c")  # bit rot
    with pytest.raises(ObjectCorruptedError, match="checksum"):
        buffer.read_view()
    client.release(oid)
