"""The zero-copy read through the tier plane: a miss streams the home
extent in place and offers that view to the hot cache, which keeps it
without copying; a hit serves the cache's entry in place — at exactly the
simulated cost of the copying reads, which are copies of the same view."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import ClusterConfig, PlacementConfig, SpanConfig, TierConfig
from repro.core.cluster import Cluster
from repro.tier.source import TierBufferSource
from tests.conftest import cluster_fingerprint
from tests.tier.test_fastpath import generation_of, holder_of, oid, remote_reader

PAYLOAD = bytes(range(256)) * 256


def make_cluster() -> Cluster:
    return Cluster(
        ClusterConfig(
            placement=PlacementConfig(), tier=TierConfig(), tracing=SpanConfig()
        ).with_store(lookup_cache=True),
        3,
    )


def read(client, buffer, how: str) -> bytes:
    try:
        return bytes(getattr(buffer, how)())
    finally:
        client.release(buffer.object_id)


def drive(cluster: Cluster, how: str) -> list[tuple[type, bytes]]:
    """Tier miss (fills the cache), tier hit on a handle resolved before
    the fill, then a tier hit on a handle resolved after it."""
    cluster.client("node0").put_bytes(oid(1), PAYLOAD)
    client = cluster.client(remote_reader(cluster, oid(1)))
    missed, hit = client.get([oid(1)])[0], client.get([oid(1)])[0]
    out = [(type(b._source), bytes(getattr(b, how)())) for b in (missed, hit)]  # noqa: SLF001
    client.release(oid(1))
    client.release(oid(1))
    served = client.get([oid(1)])[0]
    out.append((type(served._source), read(client, served, how)))  # noqa: SLF001
    return out


def test_copying_reads_cost_exactly_what_the_view_costs():
    by_view, by_copy = make_cluster(), make_cluster()
    viewed, copied = drive(by_view, "read_view"), drive(by_copy, "read_all")
    assert [source for source, _ in viewed] == [
        TierBufferSource,
        TierBufferSource,
        TierBufferSource,
    ]
    assert viewed == copied
    assert all(data == PAYLOAD for _, data in viewed)
    assert cluster_fingerprint(by_view) == cluster_fingerprint(by_copy)
    cache = by_view.tier_agent(remote_reader(by_view, oid(1))).cache
    assert (cache.misses, cache.admissions, cache.hits) == (1, 1, 2)


@pytest.fixture()
def seeded():
    """(cluster, reader client, reader's cache) after one remote read of
    oid(1) has filled the reader's hot cache."""
    cluster = make_cluster()
    cluster.client("node0").put_bytes(oid(1), PAYLOAD)
    reader = remote_reader(cluster, oid(1))
    client = cluster.client(reader)
    read(client, client.get([oid(1)])[0], "read_view")
    return cluster, client, cluster.tier_agent(reader).cache


def test_admitted_payload_shows_what_the_home_extent_holds(seeded):
    """The admitted entry is the home extent's view: overwrite the home
    bytes under a header that still vouches for them and a cached read
    returns the new bytes, exactly as the fabric read would."""
    cluster, client, cache = seeded
    home = cluster.store(holder_of(cluster, oid(1)))
    offset = home.lookup_descriptor(oid(1))["offset"]
    cluster.node(home.node).endpoint.exposed.write(offset, b"\xff" * len(PAYLOAD))
    hits = cache.hits
    assert read(client, client.get([oid(1)])[0], "read_view") == b"\xff" * len(PAYLOAD)
    assert cache.hits == hits + 1


def test_cache_served_view_is_read_only_and_in_place(seeded):
    cluster, client, cache = seeded
    buffer = client.get([oid(1)])[0]
    view = buffer.read_view()
    assert view.readonly
    entry = cache.lookup(oid(1), generation_of(cluster, oid(1)))
    assert np.shares_memory(np.frombuffer(view, np.uint8), np.frombuffer(entry, np.uint8))
    assert bytes(view) == PAYLOAD
    client.release(oid(1))
