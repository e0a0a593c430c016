"""A forwarded put below the RPC cost model's crossover is one ``PlacedPut``.

The writer fills a buffer on its own node and the create carries it; the
home creates, writes locally, seals and replicates in that one call. From
the crossover (``size * per_byte_ns >= round_trip_ns``) up the put keeps
the fabric write window between ``PlacedCreate`` and ``PlacedSeal``. Every
test runs under both drivers, inline and as an event-loop task.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import PlacementConfig
from repro.common.config import testing_config as make_config
from repro.common.errors import ObjectExistsError, ObjectUnavailableError
from repro.common.units import KiB, MiB
from repro.core import Cluster
from repro.memory.layout import ObjectHeader
from repro.rpc.channel import Channel
from tests.conftest import WINDOW_PUT_MIN_BYTES, Driver, oid_homed_at

MODES = ["sync", "async"]
MS = 1_000_000


def make_cluster(mode: str, **rpc):
    """A placed three-node cluster and the driver *mode* names."""
    cfg = make_config(capacity_bytes=32 * MiB, seed=99)
    cfg = replace(cfg, rpc=replace(cfg.rpc, **rpc), placement=PlacementConfig())
    cluster = Cluster(cfg.with_store(check_remote_uniqueness=False), 3)
    return cluster, Driver(cluster, mode)


def payload(size: int) -> bytes:
    return bytes(range(251)) * (size // 251) + bytes(size % 251)


def methods(rpc_log) -> list[str]:
    return [method for _, method, _ in rpc_log]


def window_bytes(cluster: Cluster, writer: str, home: str) -> int:
    """Bytes the writer streamed into *home*'s memory over the fabric."""
    return cluster.store(writer).peer(home).remote_region.counters.write_bytes


def at_rest(cluster: Cluster, node: str, oid) -> tuple:
    """The home's entry, in-region header, CRC, generation and bytes."""
    store = cluster.store(node)
    entry = store.table.lookup(oid)
    return (
        entry.is_sealed,
        entry.data_size,
        entry.metadata,
        entry.payload_crc,
        entry.generation,
        ObjectHeader.unpack(store.region.view(entry.allocation.offset, entry.header_size)),
        bytes(store.region.view(entry.payload_offset, entry.data_size)),
    )


def sealed_copies(cluster: Cluster, oid) -> list[str]:
    return [
        name
        for name in cluster.node_names()
        if (entry := cluster.store(name).table.lookup(oid)) is not None
        and entry.is_sealed
    ]


@pytest.mark.parametrize("mode", MODES)
def test_a_small_put_is_one_call_and_no_window(mode, rpc_log):
    cluster, run = make_cluster(mode)
    rpc_log.clear()  # the topology pushes of the build
    oid = oid_homed_at(cluster, "node0")
    run.put_bytes(cluster.client("node1"), oid, payload(4 * KiB))
    assert methods(rpc_log) == ["PlacedPut"]
    assert window_bytes(cluster, "node1", "node0") == 0
    assert run.get_bytes(cluster.client("node2"), oid) == payload(4 * KiB)


@pytest.mark.parametrize("mode", MODES)
def test_a_put_from_the_crossover_up_keeps_the_window(mode, rpc_log):
    cluster, run = make_cluster(mode)
    rpc_log.clear()  # the topology pushes of the build
    channel = cluster.store("node1").peer("node0").stub.channel
    assert channel.inline_is_cheaper(WINDOW_PUT_MIN_BYTES - 1)
    assert not channel.inline_is_cheaper(WINDOW_PUT_MIN_BYTES)
    oid = oid_homed_at(cluster, "node0")
    run.put_bytes(cluster.client("node1"), oid, payload(WINDOW_PUT_MIN_BYTES))
    assert methods(rpc_log) == ["PlacedCreate", "PlacedSeal"]
    assert window_bytes(cluster, "node1", "node0") == WINDOW_PUT_MIN_BYTES


@pytest.mark.parametrize("mode", MODES)
def test_the_home_holds_what_the_window_path_leaves(mode, monkeypatch):
    def put(inline: bool) -> tuple:
        cluster, run = make_cluster(mode)
        oid = oid_homed_at(cluster, "node0")
        with monkeypatch.context() as patch:
            if not inline:
                patch.setattr(Channel, "inline_is_cheaper", lambda self, n: False)
            run.put_bytes(cluster.client("node1"), oid, payload(3000), b"meta")
        return at_rest(cluster, "node0", oid)

    assert put(inline=True) == put(inline=False)


@pytest.mark.parametrize("mode", MODES)
def test_replicas_ride_the_one_call(mode, rpc_log):
    cluster, run = make_cluster(mode)
    rpc_log.clear()  # the topology pushes of the build
    oid = oid_homed_at(cluster, "node0")
    run.put_bytes(cluster.client("node1"), oid, payload(2 * KiB), replicas=2)
    assert methods(rpc_log) == ["PlacedPut", "Replicate"]
    [holder] = cluster.store("node0").replica_locations(oid)
    assert cluster.store(holder).is_replica(oid)
    assert sorted(sealed_copies(cluster, oid)) == sorted(["node0", holder])


@pytest.mark.parametrize("mode", MODES)
def test_an_existing_id_at_the_home_is_refused(mode):
    cluster, run = make_cluster(mode)
    oid = oid_homed_at(cluster, "node0")
    run.put_bytes(cluster.client("node2"), oid, payload(100))
    with pytest.raises(ObjectExistsError):
        run.put_bytes(cluster.client("node1"), oid, payload(100))
    assert cluster.store("node1").table.lookup(oid) is None


@pytest.mark.parametrize("mode", MODES)
def test_an_unavailable_home_falls_back_to_a_local_create(mode):
    cluster, run = make_cluster(mode)
    oid = oid_homed_at(cluster, "node0")
    cluster.node("node0").server.shutdown()
    writer = cluster.client("node1")
    run.put_bytes(writer, oid, payload(1 * KiB))
    assert writer.counters.puts_forward_fallback == 1
    assert cluster.store("node1").counters.placed_creates_fallback == 1
    assert sealed_copies(cluster, oid) == ["node1"]
    assert run.get_bytes(writer, oid) == payload(1 * KiB)


@pytest.mark.parametrize("mode", MODES)
def test_a_deadline_after_dispatch_leaves_one_copy(mode, rpc_log):
    """2 ms covers the request leg (1.15 ms without jitter) but not the
    round trip (2.3 ms): the home sealed the object, the writer cannot
    know, so it raises instead of creating a second copy."""
    cluster, run = make_cluster(mode, jitter_sigma=0.0, default_deadline_ns=2 * MS)
    rpc_log.clear()  # the topology pushes of the build
    oid = oid_homed_at(cluster, "node0")
    with pytest.raises(ObjectUnavailableError) as caught:
        run.put_bytes(cluster.client("node1"), oid, payload(1 * KiB))
    assert caught.value.unreachable_peers == ("node0",)
    assert methods(rpc_log) == ["PlacedPut"]
    assert sealed_copies(cluster, oid) == ["node0"]
    assert cluster.store("node1").counters.placed_creates_fallback == 0


@pytest.mark.parametrize("mode", MODES)
def test_a_raising_writer_sends_nothing_and_allocates_nothing(mode, rpc_log):
    cluster, run = make_cluster(mode)
    rpc_log.clear()  # the topology pushes of the build
    home = cluster.store("node0")
    used = home.allocator.used_bytes
    oid = oid_homed_at(cluster, "node0")

    def wrong_length(view):
        view[:] = b"short"

    with pytest.raises(ValueError):
        run.put_into(cluster.client("node1"), oid, 4 * KiB, wrong_length)
    assert rpc_log == []
    assert home.table.lookup(oid) is None
    assert home.allocator.used_bytes == used
    assert cluster.client("node1").held_ids() == []
