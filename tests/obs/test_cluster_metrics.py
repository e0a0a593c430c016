"""Integration tests: Cluster(metrics=True) produces a merged scrape that
covers every instrumented subsystem."""

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import ObjectStoreError
from repro.core.cluster import Cluster
from repro.obs.export import Telemetry

MiB = 1024 * 1024


def _run_workload(cluster: Cluster) -> None:
    producer = cluster.client("node0")
    consumer = cluster.client("node1")
    oids = cluster.new_object_ids(6)
    for i, oid in enumerate(oids):
        producer.put_bytes(oid, bytes([i % 251]) * 8192)
    for oid in oids:
        [buf] = consumer.get([oid])
        buf.read_all()
        consumer.release(oid)
    cluster.health_tick()


class TestClusterMetrics:
    def test_scrape_covers_subsystems(self):
        cluster = Cluster(
            ClusterConfig(metrics=True).with_store(
                check_remote_uniqueness=False, lookup_cache=True
            ),
        )
        _run_workload(cluster)
        scrape = cluster.metrics().prometheus()
        prefixes = {
            line.split("{")[0].removeprefix("repro_").split("_")[0]
            for line in scrape.splitlines()
            if line and not line.startswith("#")
        }
        for subsystem in (
            "plasma", "rpc", "thymesisflow", "allocator", "ipc", "health", "cache",
        ):
            assert subsystem in prefixes, f"missing {subsystem}: {sorted(prefixes)}"

    def test_latency_quantiles_present(self):
        cluster = Cluster(
            ClusterConfig(metrics=True).with_store(check_remote_uniqueness=False),
        )
        _run_workload(cluster)
        scrape = cluster.metrics().prometheus()
        for family in (
            "repro_plasma_get_latency_ns",
            "repro_plasma_create_latency_ns",
            "repro_rpc_client_latency_ns",
            "repro_rpc_server_latency_ns",
            "repro_thymesisflow_read_latency_ns",
        ):
            assert f'{family}{{' in scrape, family
        assert 'quantile="0.95"' in scrape

    def test_metrics_returns_telemetry(self):
        cluster = Cluster(
            ClusterConfig(metrics=True).with_store(check_remote_uniqueness=False),
        )
        telemetry = cluster.metrics()
        assert isinstance(telemetry, Telemetry)
        assert set(telemetry.snapshot()) == {"node0", "node1", "fabric"}
        assert cluster.registry("node0").node == "node0"

    def test_metrics_requires_flag(self):
        cluster = Cluster(ClusterConfig().with_store(check_remote_uniqueness=False))
        with pytest.raises(ObjectStoreError, match="metrics=True"):
            cluster.metrics()

    def test_fabric_registry_owns_link_latency(self):
        cluster = Cluster(
            ClusterConfig(metrics=True).with_store(check_remote_uniqueness=False),
        )
        _run_workload(cluster)
        fabric = cluster.registry("fabric")
        names = {f["name"] for f in fabric.collect()}
        assert "thymesisflow_read_latency_ns" in names

    def test_gauges_sample_live_state(self):
        cluster = Cluster(
            ClusterConfig(metrics=True).with_store(
                check_remote_uniqueness=False, lookup_cache=True
            ),
        )
        _run_workload(cluster)
        snap = cluster.registry("node0").snapshot()
        by_name = {f["name"]: f for f in snap["families"]}
        util = by_name["allocator_utilization"]["series"][0]["value"]
        assert util > 0.0
        assert "cache_entries" in by_name

    def test_recover_node_rebinds_store_metrics(self):
        """After crash+recover, the fresh store's counters are scraped under
        the same families — the dead store's group is replaced."""
        cluster = Cluster(
            ClusterConfig(metrics=True).with_store(check_remote_uniqueness=False),
            3,
        )
        _run_workload(cluster)
        # recover_node models a store-process restart over the surviving
        # region; no explicit crash step is needed to exercise the rebind.
        cluster.recover_node("node0")
        producer = cluster.client("node0")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"y" * 4096)
        snap = cluster.registry("node0").snapshot()
        by_name = {f["name"]: f for f in snap["families"]}
        creates = sum(
            s["value"] for s in by_name["plasma_objects_created"]["series"]
        )
        # Only the post-recovery create is visible: rebind replaced the
        # pre-crash group rather than double-counting.
        assert creates == 1.0

    def test_disabled_cluster_has_no_registries(self):
        cluster = Cluster(ClusterConfig().with_store(check_remote_uniqueness=False))
        store = cluster.store("node0")
        assert store._m_create is None
        assert store._m_seal is None
