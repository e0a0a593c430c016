"""The top-level package surface: everything README/examples rely on."""

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_headline_types_present(self):
        assert repro.Cluster
        assert repro.ScaleOutCluster
        assert repro.DistributedDataset
        assert repro.ObjectID
        assert callable(repro.put_array) and callable(repro.get_table)

    def test_error_hierarchy(self):
        assert issubclass(repro.ObjectStoreError, repro.ReproError)
        assert issubclass(repro.ObjectNotFoundError, repro.ObjectStoreError)
        assert issubclass(repro.OutOfMemoryError, repro.ReproError)


class TestObsSurface:
    def test_obs_exports_are_exactly_these(self):
        """One tracer, no inert stand-ins: call sites branch on ``None``."""
        import repro.obs

        assert sorted(repro.obs.__all__) == sorted(
            [
                "BASE_COMPONENTS", "COMPONENTS", "CorrelationContext",
                "Counter", "CounterGroup", "FlightRecorder", "Gauge",
                "Histogram", "MetricFamily", "MetricsRegistry", "QUANTILES",
                "SpanConfig", "SpanRecord", "SpanSink", "Telemetry",
                "group_by_label", "render_prometheus",
            ]
        )

    def test_cluster_takes_no_tracer(self):
        import dataclasses
        import inspect

        params = inspect.signature(repro.Cluster.__init__).parameters
        assert "tracer" not in params
        fields = {f.name for f in dataclasses.fields(repro.ClusterConfig)}
        assert "tracing" in fields and "tracer" not in fields
        for gone in ("tracer", "attach_tracer", "attach_spans"):
            assert not hasattr(repro.Cluster, gone), gone


class TestConstructionSurface:
    def test_cluster_builds_from_config_nodes_and_fault_plan_only(self):
        import inspect

        assert list(inspect.signature(repro.Cluster).parameters) == [
            "config", "nodes", "fault_plan",
        ]
        assert list(inspect.signature(repro.ScaleOutCluster).parameters) == [
            "config", "nodes",
        ]

    def test_store_takes_no_feature_keyword(self):
        import inspect

        from repro.core.store import DisaggregatedStore

        params = inspect.signature(DisaggregatedStore.__init__).parameters
        assert not {
            "check_remote_uniqueness", "share_usage", "enable_lookup_cache",
            "lookup_cache_entries", "notify_deletions", "placement", "tiering",
            "tracing", "metrics",
        } & set(params)


class TestRpcSurface:
    def test_one_channel_class_serves_both_modes(self):
        """``Channel`` runs blocking and task calls; there is no async twin."""
        import repro.rpc
        import repro.rpc.aio

        for module in (repro.rpc, repro.rpc.aio):
            assert "AsyncChannel" not in module.__all__
            assert not hasattr(module, "AsyncChannel")
        for name in ("unary_call", "stream_call", "unary_task", "batched_call"):
            assert callable(getattr(repro.rpc.Channel, name)), name


class TestReadmeQuickstart:
    def test_readme_snippet_verbatim(self):
        """The exact code from README.md §Quickstart must work."""
        from repro import Cluster

        cluster = Cluster()
        producer = cluster.client("node0")
        consumer = cluster.client("node1")

        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"hello, disaggregated world")

        assert consumer.get_bytes(oid) == b"hello, disaggregated world"

    def test_module_docstring_snippet(self):
        """And the snippet in the package docstring."""
        assert "Cluster" in (repro.__doc__ or "")

    def test_default_cluster_is_paper_shaped(self):
        cluster = repro.Cluster()
        assert len(cluster.node_names()) == 2  # the paper's 2-node system
        for name in cluster.node_names():
            store = cluster.store(name)
            assert store.config.allocator == "first_fit"  # paper's allocator
            assert store.sharing == "rpc"  # paper's sharing choice


class TestSubpackageDocs:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.common",
            "repro.memory",
            "repro.allocator",
            "repro.network",
            "repro.rpc",
            "repro.thymesisflow",
            "repro.plasma",
            "repro.chaos",
            "repro.obs",
            "repro.core",
            "repro.baseline",
            "repro.columnar",
            "repro.dataset",
            "repro.bench",
            "repro.placement",
            "repro.simtest",
            "repro.workload",
        ],
    )
    def test_every_subpackage_documents_itself(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 100, (
            f"{module_name} lacks a substantive docstring"
        )
        for name in getattr(module, "__all__", []):
            assert getattr(module, name, None) is not None, (
                f"{module_name}.{name} in __all__ but missing"
            )
