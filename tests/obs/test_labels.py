"""group_by_label: slicing metrics by one label."""

from repro.common.config import ClusterConfig
from repro.core import Cluster
from repro.obs import MetricsRegistry, group_by_label


def _registry(node: str) -> MetricsRegistry:
    registry = MetricsRegistry(node=node)
    ops = registry.counter("ops_total", "ops", labels=("tenant", "kind"))
    ops.labels(tenant="a", kind="read").set_function(lambda: 3)
    ops.labels(tenant="b", kind="read").set_function(lambda: 1)
    lat = registry.histogram("latency_ns", "latency", labels=("tenant",))
    lat.labels(tenant="a").observe(100)
    lat.labels(tenant="a").observe(300)
    inflight = registry.gauge("inflight", "gauge", labels=("tenant",))
    inflight.labels(tenant="b").set_function(lambda: 2)
    registry.counter("untagged_total", "no labels").labels().set_function(
        lambda: 9
    )
    return registry


class TestGroupByLabel:
    def test_counters_sum_per_label_value(self):
        grouped = group_by_label([_registry("n0")], "tenant")
        assert grouped["a"]["counters"]["ops_total"] == 3
        assert grouped["b"]["counters"]["ops_total"] == 1
        assert grouped["b"]["gauges"]["inflight"] == 2

    def test_series_without_the_label_are_skipped(self):
        grouped = group_by_label([_registry("n0")], "tenant")
        for slot in grouped.values():
            assert "untagged_total" not in slot["counters"]

    def test_histograms_merge_with_exact_quantiles(self):
        grouped = group_by_label([_registry("n0")], "tenant")
        hist = grouped["a"]["histograms"]["latency_ns"]
        assert hist["count"] == 2
        assert hist["sum"] == 400
        assert hist["max"] == 300
        assert hist["quantiles"]["0.5"] <= 300

    def test_aggregates_across_registries(self):
        grouped = group_by_label([_registry("n0"), _registry("n1")], "tenant")
        assert grouped["a"]["counters"]["ops_total"] == 6
        assert grouped["a"]["histograms"]["latency_ns"]["count"] == 4

    def test_unknown_label_gives_empty_result(self):
        assert group_by_label([_registry("n0")], "zone") == {}


class TestGroupByLabelOverACluster:
    def test_slices_every_node_registry_by_store(self):
        """The cluster-wide slicing the workload plane relies on: one
        group_by_label over every node's registry."""
        cluster = Cluster(ClusterConfig(metrics=True))
        oid = cluster.new_object_id()
        cluster.client("node0").put_bytes(oid, b"x" * 64)
        cluster.client("node1").get_bytes(oid)
        grouped = group_by_label(
            [cluster.registry(name) for name in cluster.node_names()], "store"
        )
        assert set(grouped) == {"node0", "node1"}
        assert grouped["node0"]["counters"]["plasma_objects_sealed"] == 1
        assert grouped["node1"]["counters"]["plasma_gets_remote"] == 1
        assert grouped["node1"]["histograms"]["plasma_get_latency_ns"]["count"] == 1
