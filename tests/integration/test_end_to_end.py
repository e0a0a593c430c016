"""End-to-end scenarios exercising the whole stack through the public API."""

import numpy as np
import pytest

from repro import Cluster, ObjectID, ScaleOutCluster
from repro.common.config import testing_config as make_testing_config
from repro.common.units import MiB


@pytest.fixture
def cfg():
    return make_testing_config(capacity_bytes=48 * MiB, seed=2022)


class TestProducerConsumerPipeline:
    def test_notification_driven_pipeline(self, cfg):
        """Producer commits partitions; a consumer on another node discovers
        them via seal notifications and reduces them."""
        cluster = Cluster(cfg.with_store(check_remote_uniqueness=False))
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        feed = cluster.store("node0").subscribe()

        expected_total = 0
        for i in range(10):
            data = np.full(1000, i, dtype=np.uint8)
            expected_total += int(data.sum())
            producer.put_bytes(ObjectID.from_name(f"part/{i}"), data)

        total = 0
        consumed = 0
        while consumed < 10:
            note = feed.pop()
            assert note is not None
            payload = consumer.get_bytes(note.object_id)
            total += int(np.frombuffer(payload, dtype=np.uint8).sum())
            consumed += 1
        assert total == expected_total

    def test_numpy_arrays_roundtrip_via_views(self, cfg):
        cluster = Cluster(cfg.with_store(check_remote_uniqueness=False))
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        matrix = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        oid = cluster.new_object_id()
        producer.put_bytes(oid, matrix.tobytes())
        buf = consumer.get_one(oid)
        # Zero-copy: interpret the remote buffer view directly.
        remote_matrix = np.frombuffer(buf.view(), dtype=np.float64).reshape(64, 64)
        assert np.array_equal(remote_matrix, matrix)
        consumer.release(oid)


class TestWideDependency:
    def test_shuffle_style_exchange(self, cfg):
        """Every node produces a partition; every node consumes all
        partitions (the wide-dependency pattern of §V-B)."""
        cluster = Cluster(cfg.with_store(check_remote_uniqueness=False), 3)
        clients = {n: cluster.client(n) for n in cluster.node_names()}
        for i, name in enumerate(cluster.node_names()):
            clients[name].put_bytes(
                ObjectID.from_name(f"shuffle/{name}"),
                np.full(10_000, i, dtype=np.uint8),
            )
        for name, client in clients.items():
            gathered = []
            for src in cluster.node_names():
                data = client.get_bytes(ObjectID.from_name(f"shuffle/{src}"))
                gathered.append(np.frombuffer(data, dtype=np.uint8))
            stacked = np.concatenate(gathered)
            assert stacked.sum() == 10_000 * (0 + 1 + 2)

    def test_remote_traffic_never_touches_lan(self, cfg):
        """In the disaggregated design, payloads move over the fabric; the
        LAN carries only RPC metadata (which our RPC model accounts
        separately), unlike the scale-out baseline."""
        cluster = Cluster(cfg.with_store(check_remote_uniqueness=False))
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, bytes(4 * MiB))
        c.get_bytes(oid)
        link = cluster.fabric.link_between("node0", "node1")
        assert link.counters.get("read_bytes") >= 4 * MiB


class TestDisaggregationVsScaleOut:
    def test_disaggregated_beats_scaleout_on_first_touch(self, cfg):
        """The headline comparison: one-shot remote consumption of a large
        object is several times faster via the fabric than via LAN copy."""
        size = 16 * MiB

        dis = Cluster(cfg.with_store(check_remote_uniqueness=False))
        p, c = dis.client("node0"), dis.client("node1")
        oid = dis.new_object_id()
        p.put_bytes(oid, bytes(size))
        t0 = dis.clock.now_ns
        c.get_bytes(oid)
        dis_ns = dis.clock.now_ns - t0

        so = ScaleOutCluster(cfg)
        p2, c2 = so.client("node0"), so.client("node1")
        oid2 = so.new_object_id()
        p2.put_bytes(oid2, bytes(size))
        t0 = so.clock.now_ns
        c2.get_bytes(oid2)
        so_ns = so.clock.now_ns - t0

        assert dis_ns < so_ns / 2  # fabric >> LAN for bulk first touch

    def test_scaleout_replica_wins_on_rereads(self, cfg):
        """Honest flip side: after replication, the baseline reads locally;
        disaggregation keeps paying the fabric on every read."""
        size = 16 * MiB
        reads = 5

        dis = Cluster(cfg.with_store(check_remote_uniqueness=False))
        p, c = dis.client("node0"), dis.client("node1")
        oid = dis.new_object_id()
        p.put_bytes(oid, bytes(size))
        c.get_bytes(oid)  # warm (lookup amortised? no cache -> still RPC)
        t0 = dis.clock.now_ns
        for _ in range(reads):
            c.get_bytes(oid)
        dis_ns = dis.clock.now_ns - t0

        so = ScaleOutCluster(cfg)
        p2, c2 = so.client("node0"), so.client("node1")
        oid2 = so.new_object_id()
        p2.put_bytes(oid2, bytes(size))
        c2.get_bytes(oid2)  # replicate once
        t0 = so.clock.now_ns
        for _ in range(reads):
            c2.get_bytes(oid2)
        so_ns = so.clock.now_ns - t0

        assert so_ns < dis_ns  # replica locality wins on repeats


class TestCapacityStory:
    def test_remote_consumption_does_not_consume_local_capacity(self, cfg):
        cluster = Cluster(cfg.with_store(check_remote_uniqueness=False))
        p = cluster.client("node0")
        c = cluster.client("node1")
        ids = cluster.new_object_ids(8)
        for oid in ids:
            p.put_bytes(oid, bytes(MiB))
        used_before = cluster.store("node1").used_bytes
        for oid in ids:
            c.get_bytes(oid)
        assert cluster.store("node1").used_bytes == used_before

    def test_scaleout_consumes_local_capacity(self, cfg):
        so = ScaleOutCluster(cfg)
        p = so.client("node0")
        c = so.client("node1")
        ids = so.new_object_ids(8)
        for oid in ids:
            p.put_bytes(oid, bytes(MiB))
        used_before = so.store("node1").used_bytes
        for oid in ids:
            c.get_bytes(oid)
        assert so.store("node1").used_bytes >= used_before + 8 * MiB
