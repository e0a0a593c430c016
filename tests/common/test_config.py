"""Configuration defaults and validation."""

import dataclasses

import pytest

from repro.common.config import (
    ClusterConfig,
    FabricLinkConfig,
    LocalMemoryConfig,
    PlacementConfig,
    RpcConfig,
    SpanConfig,
    StoreConfig,
    TierConfig,
)
from repro.common.config import testing_config as make_testing_config
from repro.common.units import GiB, MiB


class TestCalibratedDefaults:
    """The defaults ARE the paper's numbers; breaking them silently would
    invalidate every regenerated figure."""

    def test_local_read_bandwidth_is_paper_plateau(self):
        assert LocalMemoryConfig().read_bandwidth_bps == pytest.approx(6.5 * GiB)

    def test_fabric_read_bandwidth_is_paper_plateau(self):
        assert FabricLinkConfig().read_bandwidth_bps == pytest.approx(5.75 * GiB)

    def test_remote_penalty_matches_paper_11_5_percent(self):
        local = LocalMemoryConfig().read_bandwidth_bps
        remote = FabricLinkConfig().read_bandwidth_bps
        assert (local - remote) / local == pytest.approx(0.115, abs=0.01)

    def test_ipc_fit_reproduces_fig6_local_anchors(self):
        cfg = ClusterConfig().ipc
        t1000 = cfg.request_overhead_ns + 1000 * cfg.per_object_ns
        t10 = cfg.request_overhead_ns + 10 * cfg.per_object_ns
        assert t1000 / 1e6 == pytest.approx(1.885, rel=0.03)
        assert t10 / 1e6 == pytest.approx(0.075, rel=0.05)

    def test_rpc_round_trip_is_millisecond_order(self):
        assert 1e6 < ClusterConfig().rpc.round_trip_ns < 5e6


class TestValidation:
    def test_default_config_validates(self):
        ClusterConfig().validate()

    def test_bad_allocator_rejected(self):
        # Every store is first-fit: the selector is gone, any value refused.
        with pytest.raises(TypeError, match="allocator"):
            ClusterConfig().with_store(allocator="slab")

    def test_bad_alignment_rejected(self):
        with pytest.raises(TypeError, match="alignment"):
            ClusterConfig().with_store(alignment=48)

    def test_zero_capacity_rejected(self):
        cfg = ClusterConfig().with_store(capacity_bytes=0)
        with pytest.raises(ValueError, match="capacity"):
            cfg.validate()

    def test_disaggregated_fraction_bounds(self):
        # The whole store region is disaggregated; the fraction is gone.
        with pytest.raises(TypeError, match="disaggregated_fraction"):
            dataclasses.replace(ClusterConfig(), disaggregated_fraction=0.5)

    def test_negative_bandwidth_rejected(self):
        bad = dataclasses.replace(
            ClusterConfig(),
            lan=dataclasses.replace(ClusterConfig().lan, bandwidth_bps=-1),
        )
        with pytest.raises(ValueError, match="bandwidth"):
            bad.validate()


class TestHelpers:
    def test_with_seed(self):
        assert ClusterConfig().with_seed(7).seed == 7

    def test_with_store_overrides(self):
        cfg = ClusterConfig().with_store(capacity_bytes=MiB, eviction_policy="fifo")
        assert cfg.store.capacity_bytes == MiB
        assert cfg.store.eviction_policy == "fifo"

    def test_testing_config_is_small_and_valid(self):
        cfg = make_testing_config()
        cfg.validate()
        assert cfg.store.capacity_bytes <= 64 * MiB

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ClusterConfig().seed = 1  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            StoreConfig().capacity_bytes = 128  # type: ignore[misc]


#: Fields no run, scenario, PERF workload, golden or benchmark ever set to
#: anything but the default: each is now a constant at its one reader.
DELETED_FIELDS = [
    (StoreConfig, "allocator", "buddy"),
    (StoreConfig, "alignment", 128),
    (StoreConfig, "eviction_batch_fraction", 0.5),
    (ClusterConfig, "disaggregated_fraction", 0.5),
    (RpcConfig, "stream_chunk_bytes", 1024),
    (PlacementConfig, "vnodes", 16),
    (PlacementConfig, "capacity_high_watermark", 0.9),
    (PlacementConfig, "min_capacity_factor", 0.1),
    (TierConfig, "sketch_width", 1024),
    (TierConfig, "sketch_depth", 2),
    (TierConfig, "heat_sample_rate", 0.5),
    (TierConfig, "demote_watermark", 0.9),
    (TierConfig, "demote_target", 0.5),
    (SpanConfig, "flight_capacity", 64),
]


@pytest.mark.parametrize(
    "cls,name,value", DELETED_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in DELETED_FIELDS],
)
def test_deleted_field_is_refused(cls, name, value):
    assert name not in {f.name for f in dataclasses.fields(cls)}
    with pytest.raises(TypeError, match=name):
        cls(**{name: value})
