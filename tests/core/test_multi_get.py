"""multi_get and the cluster rpc_mode switch.

Covers the client-visible face of the async RPC core: batched multi-object
operations in both modes, mode-flip validation, coalesced lookups on the
wire, and the sync/async equivalence of results.
"""

from dataclasses import replace

import pytest

from repro.common.config import testing_config as small_cluster_config
from repro.common.errors import ObjectNotFoundError
from repro.common.units import MiB
from repro.core import Cluster


def make_cluster(mode: str = "sync", *, n_nodes: int = 2, **cfg_over) -> Cluster:
    cfg = small_cluster_config(capacity_bytes=32 * MiB, seed=99)
    if cfg_over:
        cfg = replace(cfg, rpc=replace(cfg.rpc, **cfg_over))
    cluster = Cluster(
        cfg.with_store(check_remote_uniqueness=False),
        n_nodes,
    )
    if mode != "sync":
        cluster.set_rpc_mode(mode)
    return cluster


def seed_objects(cluster, n: int = 6):
    """Spread *n* objects across the first two nodes; returns (ids, payloads)."""
    p0 = cluster.client("node0")
    p1 = cluster.client("node1")
    ids = cluster.new_object_ids(n)
    payloads = [bytes([i]) * (64 + i) for i in range(n)]
    for i, (oid, payload) in enumerate(zip(ids, payloads)):
        (p0 if i % 2 == 0 else p1).put_bytes(oid, payload)
    return ids, payloads


class TestSyncMultiGet:
    def test_returns_payloads_in_order(self):
        cluster = make_cluster("sync")
        ids, payloads = seed_objects(cluster)
        out = cluster.client("node0").multi_get(ids)
        assert out == payloads

    def test_missing_positions_come_back_none(self):
        cluster = make_cluster("sync")
        ids, payloads = seed_objects(cluster, 2)
        ghost = cluster.new_object_id()
        out = cluster.client("node1").multi_get([ids[0], ghost, ids[1]])
        assert out == [payloads[0], None, payloads[1]]

    def test_allow_missing_false_raises(self):
        cluster = make_cluster("sync")
        with pytest.raises(ObjectNotFoundError):
            cluster.client("node0").multi_get(
                [cluster.new_object_id()], allow_missing=False
            )

    def test_no_references_left_held(self):
        cluster = make_cluster("sync")
        ids, _ = seed_objects(cluster)
        client = cluster.client("node1")
        client.multi_get(ids)
        assert client.held_ids() == []

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_duplicate_ids_in_one_call(self, mode):
        # Found by the simtest concurrency profile: duplicate ids resolve
        # to one shared buffer handle, and releasing the first slot's
        # reference must not invalidate the second slot's read.
        cluster = make_cluster(mode)
        ids, payloads = seed_objects(cluster, 2)
        client = cluster.client("node1")
        out = client.multi_get([ids[0], ids[1], ids[0], ids[0]])
        assert out == [payloads[0], payloads[1], payloads[0], payloads[0]]
        assert client.held_ids() == []


class TestRpcModeSwitch:
    def test_default_mode_is_sync(self):
        assert make_cluster().rpc_mode == "sync"

    def test_flip_to_async_and_back(self):
        cluster = make_cluster()
        cluster.set_rpc_mode("async")
        assert cluster.rpc_mode == "async"
        assert cluster.store("node0").rpc_async
        cluster.set_rpc_mode("sync")
        assert not cluster.store("node0").rpc_async

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_cluster().set_rpc_mode("turbo")


class TestAsyncMultiGet:
    def test_matches_sync_results(self):
        sync_cluster = make_cluster("sync")
        ids_s, _ = seed_objects(sync_cluster)
        expected = sync_cluster.client("node0").multi_get(ids_s)

        async_cluster = make_cluster("async")
        ids_a, _ = seed_objects(async_cluster)
        got = async_cluster.client("node0").multi_get(ids_a)
        assert got == expected

    def test_remote_lookups_coalesce_into_one_wire_batch(self):
        cluster = make_cluster("async", batch_window_ns=100_000.0)
        p1 = cluster.client("node1")
        ids = cluster.new_object_ids(8)
        for oid in ids:
            p1.put_bytes(oid, b"far away")
        consumer = cluster.client("node0")
        before = cluster.store("node0").counters.get("lookup_rpcs")
        out = consumer.multi_get(ids)
        assert all(o == b"far away" for o in out)
        assert cluster.store("node0").counters.get("lookup_rpcs") - before == 1
        channel = cluster.node("node0").channels["node1"]
        assert channel.aio_counters["batches_sent"] >= 1

    def test_async_delete_then_multi_get_sees_none(self):
        cluster = make_cluster("async")
        ids, payloads = seed_objects(cluster, 4)
        owner = cluster.client("node0")
        owner.delete(ids[0])  # node0-homed object
        out = cluster.client("node1").multi_get(ids)
        assert out == [None] + payloads[1:]

    def test_run_twice_is_deterministic(self):
        def run():
            cluster = make_cluster("async", batch_window_ns=50_000.0)
            ids, _ = seed_objects(cluster)
            out = cluster.client("node0").multi_get(ids)
            return out, cluster.clock.now_ns

        assert run() == run()
