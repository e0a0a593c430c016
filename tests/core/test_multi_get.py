"""multi_get, run inline or as an event-loop task.

Covers the client-visible face of the async RPC core: batched multi-object
operations under both drivers, the caller picking the driver per call,
coalesced lookups on the wire, and the inline/task equivalence of results.
"""

from dataclasses import replace

import pytest

from repro.common.config import testing_config as small_cluster_config
from repro.common.errors import ObjectNotFoundError, StaleDescriptorError
from repro.common.units import MiB
from repro.core import Cluster
from repro.plasma.buffer import PlasmaBuffer
from repro.workload import Scenario
from tests.conftest import Driver
from tests.workload.conftest import mini_obj


def make_cluster(mode: str = "sync", *, n_nodes: int = 2, **cfg_over):
    """A cluster and the driver *mode* names."""
    cfg = small_cluster_config(capacity_bytes=32 * MiB, seed=99)
    if cfg_over:
        cfg = replace(cfg, rpc=replace(cfg.rpc, **cfg_over))
    cluster = Cluster(
        cfg.with_store(check_remote_uniqueness=False),
        n_nodes,
    )
    return cluster, Driver(cluster, mode)


def seed_objects(cluster, run, n: int = 6):
    """Spread *n* objects across the first two nodes; returns (ids, payloads)."""
    p0 = cluster.client("node0")
    p1 = cluster.client("node1")
    ids = cluster.new_object_ids(n)
    payloads = [bytes([i]) * (64 + i) for i in range(n)]
    for i, (oid, payload) in enumerate(zip(ids, payloads)):
        run.put_bytes(p0 if i % 2 == 0 else p1, oid, payload)
    return ids, payloads


class TestSyncMultiGet:
    def test_returns_payloads_in_order(self):
        cluster, run = make_cluster("sync")
        ids, payloads = seed_objects(cluster, run)
        out = run.multi_get(cluster.client("node0"), ids)
        assert out == payloads

    def test_missing_positions_come_back_none(self):
        cluster, run = make_cluster("sync")
        ids, payloads = seed_objects(cluster, run, 2)
        ghost = cluster.new_object_id()
        out = run.multi_get(cluster.client("node1"), [ids[0], ghost, ids[1]])
        assert out == [payloads[0], None, payloads[1]]

    def test_allow_missing_false_raises(self):
        cluster, run = make_cluster("sync")
        with pytest.raises(ObjectNotFoundError):
            run.multi_get(cluster.client("node0"),
                [cluster.new_object_id()], allow_missing=False
            )

    def test_no_references_left_held(self):
        cluster, run = make_cluster("sync")
        ids, _ = seed_objects(cluster, run)
        client = cluster.client("node1")
        run.multi_get(client, ids)
        assert client.held_ids() == []

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_duplicate_ids_in_one_call(self, mode):
        # Found by the simtest concurrency profile: duplicate ids resolve
        # to one shared buffer handle, and releasing the first slot's
        # reference must not invalidate the second slot's read.
        cluster, run = make_cluster(mode)
        ids, payloads = seed_objects(cluster, run, 2)
        client = cluster.client("node1")
        out = run.multi_get(client, [ids[0], ids[1], ids[0], ids[0]])
        assert out == [payloads[0], payloads[1], payloads[0], payloads[0]]
        assert client.held_ids() == []


@pytest.mark.parametrize("mode", ["sync", "async"])
@pytest.mark.parametrize("reader", ["node0", "node1"], ids=["local", "remote"])
def test_a_failed_read_releases_every_reference(monkeypatch, mode, reader):
    """The read of the second of three objects raises: every reference the
    Get took still comes back, the third's included — a leaked local one
    would pin the object and make its delete raise ObjectInUseError."""
    cluster, run = make_cluster(mode)
    ids = cluster.new_object_ids(3)
    for i, oid in enumerate(ids):
        run.put_bytes(cluster.client("node0"), oid, bytes([i]) * 64)
    read_view = PlasmaBuffer.read_view
    reads = []

    def second_read_fails(buffer):
        reads.append(buffer.object_id)
        if len(reads) == 2:
            raise StaleDescriptorError("injected: the home retired the extent")
        return read_view(buffer)

    monkeypatch.setattr(PlasmaBuffer, "read_view", second_read_fails)
    client = cluster.client(reader)
    with pytest.raises(StaleDescriptorError):
        run.multi_get(client, ids)
    assert reads == ids[:2]
    assert client.held_ids() == []
    run.delete(cluster.store("node0"), ids[2])
    assert not cluster.store("node0").contains(ids[2])


class TestRpcModeSwitch:
    """The caller picks inline or task, per call; the cluster keeps no mode."""

    def test_default_mode_is_sync(self):
        """The facade runs its body inline: nothing runs on the loop."""
        cluster, run = make_cluster()
        ids, payloads = seed_objects(cluster, run)
        assert cluster.client("node0").multi_get(ids) == payloads
        assert cluster.loop.events_run == 0

    def test_flip_to_async_and_back(self):
        """One cluster serves a task-driven call and then an inline one."""
        cluster, run = make_cluster()
        ids, payloads = seed_objects(cluster, run)
        client = cluster.client("node0")
        assert Driver(cluster, "async").multi_get(client, ids) == payloads
        ran = cluster.loop.events_run
        assert ran > 0
        assert client.multi_get(ids) == payloads
        assert cluster.loop.events_run == ran
        assert cluster.loop.pending() == 0

    def test_unknown_mode_rejected(self):
        """The one place a mode is named, a scenario's rpc block, refuses
        a mode it does not know."""
        with pytest.raises(ValueError, match="unknown rpc mode"):
            Scenario.from_obj(mini_obj(rpc={"mode": "turbo"}))


class TestAsyncMultiGet:
    def test_matches_sync_results(self):
        sync_cluster, sync_run = make_cluster("sync")
        ids_s, _ = seed_objects(sync_cluster, sync_run)
        expected = sync_run.multi_get(sync_cluster.client("node0"), ids_s)

        async_cluster, async_run = make_cluster("async")
        ids_a, _ = seed_objects(async_cluster, async_run)
        got = async_run.multi_get(async_cluster.client("node0"), ids_a)
        assert got == expected

    def test_remote_lookups_coalesce_into_one_wire_batch(self):
        cluster, run = make_cluster("async", batch_window_ns=100_000.0)
        p1 = cluster.client("node1")
        ids = cluster.new_object_ids(8)
        for oid in ids:
            run.put_bytes(p1, oid, b"far away")
        consumer = cluster.client("node0")
        before = cluster.store("node0").counters.lookup_rpcs
        out = run.multi_get(consumer, ids)
        assert all(o == b"far away" for o in out)
        assert cluster.store("node0").counters.lookup_rpcs - before == 1
        channel = cluster.node("node0").channels["node1"]
        assert channel.aio_counters["batches_sent"] >= 1

    def test_async_delete_then_multi_get_sees_none(self):
        cluster, run = make_cluster("async")
        ids, payloads = seed_objects(cluster, run, 4)
        owner = cluster.client("node0")
        run.delete(owner.store, ids[0])  # node0-homed object
        out = run.multi_get(cluster.client("node1"), ids)
        assert out == [None] + payloads[1:]

    def test_run_twice_is_deterministic(self):
        def once():
            cluster, run = make_cluster("async", batch_window_ns=50_000.0)
            ids, _ = seed_objects(cluster, run)
            out = run.multi_get(cluster.client("node0"), ids)
            return out, cluster.clock.now_ns

        assert once() == once()
