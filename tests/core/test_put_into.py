"""``put_into`` against the copying put body it replaced.

A put now opens the new extent's window — local memory, or the ring home's
memory through a fabric write window — and lets the producer fill it in
place. The simulated charges did not move: for a fixed seed, ``put_into``
with a copying writer must leave the cluster in exactly the state the old
``put_bytes`` body (``tests/core/_reference_put.py``) leaves it in — same
clock, same link/endpoint/channel counters, same cache residency and Fig 3b
stale snapshots, same headers and the same bytes at rest.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.common.config import PlacementConfig
from repro.common.config import testing_config as make_config
from repro.common.errors import ObjectNotSealedError
from repro.common.units import KiB, MiB
from repro.core import Cluster
from repro.core.store import DisaggregatedStore
from repro.memory.layout import ObjectHeader
from repro.plasma.client import copy_writer
from tests.conftest import WINDOW_PUT_MIN_BYTES, oid_homed_at
from tests.core import _reference_put as reference

SIZES = (3000, 64 * KiB + 5, 200_000, 4096)
# The copying body streamed every forwarded payload through the fabric; a
# forwarded put does that only from the RPC cost model's crossover up, so
# the forwarded comparisons run the same shapes shifted above it.
FORWARDED_SIZES = tuple(WINDOW_PUT_MIN_BYTES + size for size in SIZES)


def make_cluster(*, placement: bool) -> Cluster:
    cfg = make_config(capacity_bytes=32 * MiB, seed=99)
    if placement:
        cfg = replace(cfg, placement=PlacementConfig())
    nodes = 3 if placement else 2
    return Cluster(cfg.with_store(check_remote_uniqueness=False), nodes)


def payload(i: int, size: int) -> bytes:
    return bytes((i * 37 + k * 11) % 253 for k in range(size))


def state(cluster: Cluster) -> dict:
    """Everything a put may touch, in comparable form."""
    out = {"now_ns": cluster.clock.now_ns}
    for link in cluster.fabric.links():
        out[f"link:{link!r}"] = link.counters.snapshot()
    for name in cluster.node_names():
        endpoint = cluster.node(name).endpoint
        cache = endpoint.cache
        store = cluster.store(name)
        out[name] = {
            "endpoint": endpoint.counters.snapshot(),
            "resident": [(iv.start, iv.stop) for iv in cache._resident],
            "lru": list(cache._lru),
            "stale": {start: bytes(old) for start, old in cache._stale.items()},
            "store": store.counters.snapshot(),
            "channels": {
                peer: store.peer(peer).stub.channel.counters.snapshot()
                for peer in store.peers()
            },
            "remote_regions": {
                peer: store.peer(peer).remote_region.counters.snapshot()
                for peer in store.peers()
            },
            "memory": hashlib.sha256(
                endpoint.memory.view(0, endpoint.memory.capacity)
            ).hexdigest(),
            "entries": sorted(
                (
                    entry.object_id.binary(),
                    entry.is_sealed,
                    entry.payload_crc,
                    entry.generation,
                    ObjectHeader.unpack(
                        store.region.view(entry.allocation.offset, entry.header_size)
                    ),
                    bytes(store.region.view(entry.payload_offset, entry.data_size)),
                )
                for entry in store.table
            ),
        }
    return out


def put_new(client, oid, data, replicas=1):
    client.put_into(oid, *copy_writer(data), replicas=replicas)


def put_old(client, oid, data, replicas=1):
    reference.put_bytes(client, oid, data, replicas=replicas)


def drive_local(put) -> Cluster:
    """Local creates, a replicated one, an overwritten extent and a read
    that left the next put's range cache-resident."""
    cluster = make_cluster(placement=False)
    producer = cluster.client("node0")
    oids = [cluster.new_object_id() for _ in SIZES]
    for i, (oid, size) in enumerate(zip(oids, SIZES)):
        put(producer, oid, payload(i, size), replicas=1 + i % 2)
    producer.get_bytes(oids[0])
    producer.delete(oids[0])
    put(producer, cluster.new_object_id(), payload(9, SIZES[0]))
    return cluster


def drive_forwarded(put) -> Cluster:
    """Creates routed to a ring home over the fabric (some replicated), and
    one that lands locally because this node is the home."""
    cluster = make_cluster(placement=True)
    producer = cluster.client("node1")
    for i, size in enumerate(FORWARDED_SIZES):
        oid = oid_homed_at(cluster, "node0")
        put(producer, oid, payload(i, size), replicas=1 + i % 2)
    put(producer, oid_homed_at(cluster, "node1"), payload(7, 5000))
    assert producer.counters.puts_forwarded == len(SIZES)
    return cluster


@pytest.mark.parametrize("driver", [drive_local, drive_forwarded])
def test_blocking_put_matches_the_copying_body(driver):
    assert state(driver(put_new)) == state(driver(put_old))


def drive_tasks(form) -> Cluster:
    """The task form, spawned on the loop: forwarded and local creates,
    replicas pulled in 64 KiB chunks."""
    cluster = make_cluster(placement=True)
    loop = cluster.loop
    producer = cluster.client("node1")
    homes = ["node0", "node1", "node2", "node0"]
    for i, (home, size) in enumerate(zip(homes, FORWARDED_SIZES)):
        oid = oid_homed_at(cluster, home)
        loop.run_until_complete(
            loop.spawn(form(producer, oid, payload(i, size), 1 + i % 2))
        )
    assert loop.pending() == 0
    return cluster


def test_task_put_matches_the_copying_body():
    def new(client, oid, data, replicas):
        return client.put_into_task(oid, *copy_writer(data), replicas=replicas)

    def old(client, oid, data, replicas):
        return reference.put_bytes_task(client, oid, data, replicas=replicas)

    assert state(drive_tasks(new)) == state(drive_tasks(old))


def test_forwarded_put_snapshots_the_home_cache_before_the_fill(monkeypatch):
    """The home CPU caches the target range between PlacedCreate and the
    fabric write, so the write leaves it stale (Fig 3b). The snapshot must
    hold the bytes from *before* the writer filled the window."""
    placed_create = DisaggregatedStore.placed_create
    placed_seal = DisaggregatedStore.placed_seal
    observed = []

    def create_then_cache(self, object_id, data_size, metadata=b""):
        offset = placed_create(self, object_id, data_size, metadata)
        self.endpoint.local_read(self.endpoint.exposed.absolute(offset), data_size)
        return offset

    def observe_then_seal(self, object_id, replicas=1):
        entry = self.table.lookup(object_id)
        start = self.endpoint.exposed.absolute(entry.payload_offset)
        view = self.endpoint.cache.observed_view(start, entry.data_size)
        observed.append(bytes(view))
        placed_seal(self, object_id, replicas)

    monkeypatch.setattr(DisaggregatedStore, "placed_create", create_then_cache)
    monkeypatch.setattr(DisaggregatedStore, "placed_seal", observe_then_seal)

    size = WINDOW_PUT_MIN_BYTES + 8000

    def drive(put):
        cluster = make_cluster(placement=True)
        put(cluster.client("node1"), oid_homed_at(cluster, "node0"), payload(3, size))
        return cluster

    new, old = drive(put_new), drive(put_old)
    assert new.node("node0").endpoint.counters.stale_bytes_created == size
    assert state(new) == state(old)
    # Fresh extent: the home kept observing zeros while DRAM held the fill.
    assert observed == [bytes(size)] * 2


def test_a_short_writer_leaves_what_a_short_write_leaves():
    """The view is the whole extent: a writer that fills only a prefix
    leaves the rest as it was, exactly like a ``buffer.write`` of the
    prefix — same bytes at rest, same sealed checksum."""

    def at_rest(put):
        cluster = make_cluster(placement=False)
        client = cluster.client("node0")
        oid = cluster.new_object_id()
        put(client, oid)
        store = cluster.store("node0")
        entry = store.table.lookup(oid)
        return entry.payload_crc, bytes(
            store.region.view(entry.payload_offset, entry.data_size)
        )

    def short_writer(client, oid):
        def write(view):
            view[:1000] = b"a" * 1000

        client.put_into(oid, 4096, write)

    def short_write(client, oid):
        buffer = client.create(oid, 4096)
        buffer.write(b"a" * 1000)
        client.seal(oid)
        client.release(oid)

    crc, data = at_rest(short_writer)
    assert (crc, data) == at_rest(short_write)
    assert data == b"a" * 1000 + bytes(3096)


def test_a_raising_writer_leaves_the_extent_unsealed():
    """There is no abort path: a writer that raises (here a source of the
    wrong length) surfaces its error with the object created, unsealed and
    held — where a ``buffer.write`` that raised left it."""
    cluster = make_cluster(placement=False)
    client = cluster.client("node0")
    oid = cluster.new_object_id()

    def wrong_length(view):
        view[:] = b"short"

    with pytest.raises(ValueError):
        client.put_into(oid, 4096, wrong_length)
    assert client.held_ids() == [oid]
    with pytest.raises(ObjectNotSealedError):
        client.store.get_sealed_entry(oid)
