"""``PlasmaBuffer.read_view``: the timed zero-copy read.

One view-returning read path serves every source; ``read_all`` and
``read_into`` are copies of that view. So whichever of the three a reader
calls, the simulated clock, every counter and every span must come out the
same — only the host-side copy differs.
"""

from __future__ import annotations

import pytest

from repro.common.config import testing_config as make_testing_config
from repro.common.errors import ObjectStoreError
from repro.common.units import MiB
from repro.core import Cluster
from repro.plasma.buffer import LocalBufferSource, RemoteBufferSource
from tests.conftest import cluster_fingerprint

PAYLOAD = bytes(range(256)) * 64


def make_cluster(**store_overrides) -> Cluster:
    config = make_testing_config(capacity_bytes=32 * MiB, seed=99)
    if store_overrides:
        config = config.with_store(**store_overrides)
    return Cluster(config, n_nodes=2, check_remote_uniqueness=False, tracing=True)


def read_with(cluster: Cluster, reader: str, how: str) -> tuple[bytes, type]:
    """Put on node0, read on *reader* with *how*; (bytes, source type)."""
    oid = cluster.new_object_id()
    cluster.client("node0").put_bytes(oid, PAYLOAD)
    client = cluster.client(reader)
    buffer = client.get([oid])[0]
    try:
        if how == "read_into":
            out = bytearray(len(PAYLOAD))
            buffer.read_into(out)
            data = bytes(out)
        else:
            data = bytes(getattr(buffer, how)())
    finally:
        client.release(oid)
    return data, type(buffer._source)  # noqa: SLF001 — which path ran


SOURCES = {
    "local": ("node0", {}, LocalBufferSource, True),
    "remote-validated": ("node1", {}, RemoteBufferSource, True),
    "remote-checksummed": (
        "node1",
        {"verify_checksum_on_read": True, "checksum_ns_per_byte": 0.05},
        RemoteBufferSource,
        True,
    ),
    "remote-unvalidated": (
        "node1",
        {"verify_remote_reads": False},
        RemoteBufferSource,
        False,
    ),
}


@pytest.mark.parametrize("name", SOURCES)
@pytest.mark.parametrize("how", ["read_all", "read_into"])
def test_copying_reads_cost_exactly_what_the_view_costs(name, how):
    reader, overrides, source_type, validated = SOURCES[name]
    by_view, by_copy = make_cluster(**overrides), make_cluster(**overrides)
    viewed, seen = read_with(by_view, reader, "read_view")
    copied, _ = read_with(by_copy, reader, how)
    assert seen is source_type
    assert viewed == copied == PAYLOAD
    assert cluster_fingerprint(by_view) == cluster_fingerprint(by_copy)
    # The read was really timed, and validated exactly when configured.
    link = by_view.fabric.links()[0].counters
    if reader == "node0":
        assert by_view.node("node0").endpoint.counters.get("local_reads") == 1
    else:
        header = by_view.store("node0").header_size if validated else 0
        assert link.get("read_bytes") == len(PAYLOAD) + header


@pytest.mark.parametrize("reader", ["node0", "node1"])
def test_view_is_read_only_and_copies_nothing(cluster, reader):
    oid = cluster.new_object_id()
    cluster.client("node0").put_bytes(oid, PAYLOAD)
    client = cluster.client(reader)
    buffer = client.get([oid])[0]
    view = buffer.read_view()
    assert view.readonly and view.nbytes == len(PAYLOAD)
    with pytest.raises(TypeError):
        view[0] = 0
    # Zero-copy: the window is the home extent itself, not a snapshot.
    assert view.obj is buffer.view().obj
    client.release(oid)
    with pytest.raises(ObjectStoreError, match="released"):
        buffer.read_view()


def test_read_view_is_timed_like_figure_7(cluster):
    oid = cluster.new_object_id()
    cluster.client("node0").put_bytes(oid, PAYLOAD)
    client = cluster.client("node1")
    buffer = client.get([oid])[0]
    before = cluster.clock.now_ns
    buffer.view()  # the untimed window stays untimed
    assert cluster.clock.now_ns == before
    buffer.read_view()
    assert cluster.clock.now_ns > before
    client.release(oid)


def test_fig3b_stale_snapshot_is_observed_through_read_view(cluster):
    """The home CPU keeps observing its cached bytes after a remote write
    (Fig 3b); the view path materialises exactly that case."""
    home = cluster.store("node0")
    oid = cluster.new_object_id()
    cluster.client("node0").put_bytes(oid, b"HOME" * 256)  # cached by the write
    offset = home.lookup_descriptor(oid)["offset"]
    window = cluster.store("node1").peer("node0").remote_region
    assert window.write(offset, b"PEER" * 256) == 1024
    client = cluster.client("node0")
    buffer = client.get([oid])[0]
    observed = buffer.read_view()
    assert observed == b"HOME" * 256 and observed.readonly
    assert bytes(buffer.view()) == b"PEER" * 256  # DRAM moved on
    endpoint = cluster.node("node0").endpoint
    assert endpoint.counters.get("stale_bytes_observed") == 1024
    endpoint.invalidate_exposed(offset, 1024)
    assert buffer.read_view() == b"PEER" * 256
    client.release(oid)
