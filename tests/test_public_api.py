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
                "Histogram", "MetricFamily", "MetricsRegistry",
                "NullMetricsRegistry", "NULL_REGISTRY", "QUANTILES",
                "SpanConfig", "SpanRecord", "SpanSink", "Telemetry",
                "group_by_label", "render_prometheus",
            ]
        )

    def test_cluster_takes_no_tracer(self):
        import inspect

        params = inspect.signature(repro.Cluster.__init__).parameters
        assert "tracer" not in params and "tracing" in params
        for gone in ("tracer", "attach_tracer", "attach_spans"):
            assert not hasattr(repro.Cluster, gone), gone


class TestReadmeQuickstart:
    def test_readme_snippet_verbatim(self):
        """The exact code from README.md §Quickstart must work."""
        from repro import Cluster

        cluster = Cluster(n_nodes=2)
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
