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
                "CounterGroup", "FlightRecorder", "Gauge",
                "Histogram", "MetricFamily", "MetricsRegistry", "QUANTILES",
                "SpanConfig", "SpanRecord", "SpanSink", "Telemetry",
                "render_prometheus",
            ]
        )

    @pytest.mark.parametrize("owner,name", [
        ("CounterGroup", "inc"), ("CounterGroup", "get"),
        ("CounterGroup", "values"), ("Gauge", "set"),
        ("Gauge", "inc"),
    ])
    def test_registry_stores_no_counter_or_gauge_value(self, owner, name):
        """A counter is an int attribute its component increments in place;
        the registry reads counters and gauges at scrape, never stores them."""
        import repro.obs

        assert not hasattr(getattr(repro.obs, owner), name), f"{owner}.{name}"

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


class TestSharingSurface:
    def test_cluster_config_fields_are_exactly_these(self):
        """One metadata path: no ring-transport sub-config, no sharing
        strategy, no directory sizing."""
        import dataclasses

        assert [f.name for f in dataclasses.fields(repro.ClusterConfig)] == [
            "seed", "local_memory", "fabric", "ipc", "rpc", "lan", "store",
            "health", "chaos", "overload", "placement", "tier", "tracing",
            "metrics",
        ]

    def test_sharing_modes_are_gone(self):
        import repro.common.config

        assert not hasattr(repro.common.config, "SHARING_MODES")

    def test_core_exports_are_exactly_these(self):
        import repro.core

        assert sorted(repro.core.__all__) == [
            "BreakerState", "CircuitBreaker", "Cluster", "ClusterNode",
            "DisaggregatedClient", "DisaggregatedStore", "HealthMonitor",
            "PeerHandle", "RemoteObjectRecord", "StoreService",
        ]

    @pytest.mark.parametrize("module", ["repro.core.ring", "repro.core.dmsg"])
    def test_ring_transport_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_directory_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.sharing")

    def test_lookup_cache_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.lookup_cache")

    @pytest.mark.parametrize("owner,name", [
        ("DisaggregatedStore", "sharing"),
        ("DisaggregatedStore", "directory"),
        ("DisaggregatedStore", "attach_directory"),
        ("DisaggregatedStore", "attach_hashmap_reader"),
        ("Cluster", "sharing"),
        ("ClusterNode", "directory"),
    ])
    def test_directory_wiring_is_gone(self, owner, name):
        import repro.core

        assert not hasattr(getattr(repro.core, owner), name)


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


class TestReachedSurface:
    """What no entry point the system runs ever executed is gone."""

    def test_rpc_aio_exports_are_exactly_these(self):
        import repro.rpc.aio

        assert sorted(repro.rpc.aio.__all__) == [
            "BATCHABLE_METHODS", "CoalescingBuffer", "EventLoop",
            "EventLoopError", "Future", "Sleep", "Task", "TaskAttribution",
        ]

    def test_tier_exports_are_exactly_these(self):
        import repro.tier

        assert sorted(repro.tier.__all__) == [
            "FrequencySketch", "HeatTracker", "HotObjectCache", "TierAgent",
            "TierBufferSource", "TierEngine", "TierTickReport",
        ]

    @pytest.mark.parametrize("module,owner,name", [
        ("repro.core.client", "DisaggregatedClient", "subscribe_remote"),
        ("repro.core.client", "DisaggregatedClient", "multi_put"),
        ("repro.core.client", "DisaggregatedClient", "multi_put_task"),
        ("repro.core.client", "DisaggregatedClient", "tier_stats"),
        ("repro.core.client", "DisaggregatedClient", "delete_task"),
        ("repro.core.service", "StoreService", "Subscribe"),
        ("repro.core.service", "StoreService", "PollNotifications"),
        ("repro.core.service", "StoreService", "Stats"),
        ("repro.core.store", "DisaggregatedStore", "create_subscription"),
        ("repro.core.store", "DisaggregatedStore", "poll_subscription"),
        ("repro.plasma.notifications", "NotificationQueue", "drain"),
        ("repro.tier.engine", "TierEngine", "run_until_converged"),
        ("repro.obs.export", "Telemetry", "merged"),
        ("repro.obs.export", "Telemetry", "by_label"),
        ("repro.obs.export", "Telemetry", "nodes"),
        ("repro.obs.export", "Telemetry", "registry"),
        ("repro.obs.correlation", "CorrelationContext", "operation"),
        ("repro.obs.correlation", "CorrelationContext", "resumed"),
        ("repro.common.stats", None, "RunningStats"),
        ("repro.core.client", None, "RemoteSubscription"),
        ("repro.tier.engine", None, "TierConvergenceReport"),
        ("repro.rpc.aio", None, "stream_pull_task"),
        ("repro.rpc.aio", None, "stream_pull"),
        ("repro.core.client", "DisaggregatedClient", "put_bytes_task"),
        ("repro.thymesisflow.aperture", "RemoteRegion", "write"),
        ("repro.workload.runner", None, "payload_for"),
        # Headers are packed from fields (memory.layout.pack_header), never
        # from a decoded ObjectHeader.
        ("repro.memory.layout", "ObjectHeader", "pack"),
        # One remote-holder contract: no usage sharing, no pin at the home,
        # one reference count per object.
        ("repro.common.config", "StoreConfig", "share_usage"),
        ("repro.core.service", "StoreService", "AddRef"),
        ("repro.core.service", "StoreService", "ReleaseRef"),
        ("repro.core.store", "DisaggregatedStore", "share_usage"),
        ("repro.core.store", "DisaggregatedStore", "_pin_at_home_task"),
        ("repro.core.remote", "RemoteObjectRecord", "pinned_at_home"),
        ("repro.plasma.entry", "ObjectEntry", "remote_ref_count"),
        ("repro.plasma.entry", "ObjectEntry", "total_refs"),
        # One hedge per Lookup (the async stagger race): no quantile hedge
        # on the blocking sweep, in the config, the channel or a scenario.
        ("repro.common.config", "RpcConfig", "hedge_quantile"),
        ("repro.common.config", "RpcConfig", "hedge_min_samples"),
        ("repro.rpc.channel", "Channel", "hedge_delay_ns"),
        ("repro.workload.scenario", "OverloadSpec", "hedge_quantile"),
        ("repro.workload.scenario", "OverloadSpec", "hedge_min_samples"),
        # Config, field by field: a cache hit is charged as a local DRAM
        # read, and a rebalancer tick is a constant.
        ("repro.common.config", "TierConfig", "cache_hit_latency_ns"),
        ("repro.common.config", "TierConfig", "cache_hit_bandwidth_bps"),
        ("repro.common.config", "TierConfig", "cache_hit_jitter_sigma"),
        ("repro.common.config", "PlacementConfig", "rebalance_tick_interval_ns"),
        ("repro.core.remote", "PeerHandle", "__post_init__"),
        # One read path for cached remote objects: every remote Get
        # resolves, and its TierBufferSource probes the hot cache per read.
        ("repro.tier", None, "CachedBufferSource"),
        ("repro.tier.source", None, "CachedBufferSource"),
        ("repro.tier.agent", "TierAgent", "serve_cached"),
        ("repro.tier.agent", "TierAgent", "note_served"),
        ("repro.tier.agent", "TierAgent", "release_served"),
        ("repro.tier.cache", "HotObjectCache", "lookup_any"),
        ("repro.core.store", "DisaggregatedStore", "_cache_served_buffer"),
        # One record per measured op: the BENCH folds its latency and
        # attribution tables from per-(kind, tenant) cells; the workload
        # plane keeps no metrics registry.
        ("repro.obs", None, "group_by_label"),
        ("repro.obs.export", None, "group_by_label"),
        ("repro.workload.admission", "AdmissionController", "attach_metrics"),
        ("repro.workload.runner", "WorkloadResult", "registry"),
        ("repro.workload.report", None, "_tenant_latency_block"),
        # One descriptor table per node: the home header vouches for a
        # cached record, and a record whose home left is looked up again.
        ("repro.core", None, "LookupCache"),
        ("repro.core.remote", "DescriptorTable", "set_epoch"),
        ("repro.core.remote", "DescriptorTable", "invalidate_node"),
        ("repro.core.remote", "DescriptorTable", "epoch"),
        ("repro.core.remote", "DescriptorTable", "clear"),
        # The caller picks inline or task: no RPC mode in the config, the
        # cluster or a store, and every store facade runs its body inline.
        ("repro.common.config", "RpcConfig", "mode"),
        ("repro.core.cluster", "Cluster", "rpc_mode"),
        ("repro.core.cluster", "Cluster", "set_rpc_mode"),
        ("repro.core.store", "DisaggregatedStore", "set_rpc_async"),
        ("repro.core.store", "DisaggregatedStore", "rpc_async"),
        ("repro.core.store", "DisaggregatedStore", "_facade_loop"),
        ("repro.rpc.aio.loop", "EventLoop", "driving"),
        # One way to export a count: a CounterGroup bound to the registry.
        ("repro.obs", None, "Counter"),
        ("repro.obs.metrics", None, "Counter"),
        ("repro.obs.metrics", "MetricsRegistry", "counter"),
    ])
    def test_unreached_name_is_gone(self, module, owner, name):
        import importlib

        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        assert not hasattr(target, name), f"{module}.{owner or ''}.{name}"

    def test_store_keeps_no_rpc_mode(self):
        """A store holds the loop its task forms gather on, and no flag."""
        import inspect

        from repro.core.store import DisaggregatedStore

        params = inspect.signature(DisaggregatedStore.attach_aio).parameters
        assert list(params) == ["self", "loop"]
        store = repro.Cluster().store("node0")
        assert not hasattr(store, "_rpc_async")


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
        from repro.allocator import FirstFitAllocator

        cluster = repro.Cluster()
        assert len(cluster.node_names()) == 2  # the paper's 2-node system
        for name in cluster.node_names():
            store = cluster.store(name)
            assert type(store.allocator) is FirstFitAllocator  # paper's allocator
            # The paper's sharing choice: one RPC channel to every peer.
            assert sorted(cluster.node(name).channels) == store.peers()


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
