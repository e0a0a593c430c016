"""One description per cluster: ``Cluster(config, nodes, *, fault_plan)``.

Every switch lives on :class:`ClusterConfig`; a feature plane is on iff its
sub-config is present. These tests pin (a) that the old constructor
keywords are gone, (b) that every inconsistent combination is refused by
``ClusterConfig.validate`` naming the field, and (c) that each committed
scenario's ``_config_for`` builds exactly the planes its blocks ask for
(the scenario's ``rpc.mode`` picks how the runner drives ops, not a
cluster mode).
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.baseline import ScaleOutCluster
from repro.common.config import ClusterConfig, PlacementConfig, RpcConfig
from repro.common.config import testing_config as make_config
from repro.core import Cluster
from repro.core.store import DisaggregatedStore
from repro.workload import load_scenario
from repro.workload.runner import _config_for, _runs_as_tasks

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = sorted(
    [*(ROOT / "benchmarks" / "scenarios").glob("*.json"),
     *(ROOT / "benchmarks" / "perf" / "workloads").glob("*.json")]
)

CLUSTER_KEYWORDS = (
    "n_nodes", "node_names", "share_usage", "enable_lookup_cache",
    "check_remote_uniqueness", "sharing", "directory_buckets", "tracing",
    "metrics", "placement", "node_weights", "tiering",
)
STORE_KEYWORDS = (
    "check_remote_uniqueness", "share_usage", "enable_lookup_cache",
    "lookup_cache_entries", "notify_deletions", "sharing",
    "region_offset_in_exposed",
)


def _store_with(small_config, **kwargs):
    store = Cluster(small_config).store("node0")
    return DisaggregatedStore(
        store.name, store.endpoint, store.region, store.config, store.clock, **kwargs
    )


@pytest.mark.parametrize(
    "build, keyword",
    [(lambda cfg, **kw: Cluster(cfg, **kw), kw) for kw in CLUSTER_KEYWORDS]
    + [(lambda cfg, **kw: ScaleOutCluster(cfg, **kw), "n_nodes")]
    + [(_store_with, kw) for kw in STORE_KEYWORDS],
    ids=[f"Cluster-{kw}" for kw in CLUSTER_KEYWORDS]
    + ["ScaleOutCluster-n_nodes"]
    + [f"DisaggregatedStore-{kw}" for kw in STORE_KEYWORDS],
)
def test_removed_keyword_is_a_type_error(small_config, build, keyword):
    with pytest.raises(TypeError, match=keyword):
        build(small_config, **{keyword: True})


PLACED = replace(make_config(seed=1), placement=PlacementConfig())

REJECTIONS = {
    "weights-unknown-node": (
        replace(PLACED, placement=PlacementConfig(weights={"node9": 2.0})),
        2, ValueError, r"placement\.weights.*node9",
    ),
    "weights-zero": (
        replace(PLACED, placement=PlacementConfig(weights={"node0": 0.0})),
        2, ValueError, r"placement\.weights\['node0'\]",
    ),
    "weights-negative": (
        replace(PLACED, placement=PlacementConfig(weights={"node1": -1.0})),
        2, ValueError, r"placement\.weights\['node1'\]",
    ),
    "duplicate-node-names": (
        make_config(seed=1), ["x", "x"], ValueError,
        r"nodes: node names must be unique",
    ),
    "single-node": (make_config(seed=1), 1, ValueError, r"nodes: a cluster needs >= 2"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_config_rejects_inconsistent_combination(case):
    config, nodes, error, match = REJECTIONS[case]
    names = [f"node{i}" for i in range(nodes)] if isinstance(nodes, int) else nodes
    with pytest.raises(error, match=match):
        config.validate(names)
    with pytest.raises(error, match=match):
        Cluster(config, nodes)


def test_dmsg_sub_config_is_gone():
    with pytest.raises(TypeError, match="dmsg"):
        ClusterConfig(dmsg=None)


@pytest.mark.parametrize("field", ["sharing", "directory_buckets"])
def test_directory_fields_are_gone(field):
    """RPC lookups are the one metadata path: there is no strategy to pick
    and no fabric-resident directory to size."""
    with pytest.raises(TypeError, match=field):
        ClusterConfig(**{field: None})


def test_rpc_config_has_no_mode():
    """The caller picks inline or task; the cluster has no RPC mode."""
    with pytest.raises(TypeError, match="mode"):
        RpcConfig(mode="async")


def test_scale_out_cluster_shares_the_node_checks(small_config):
    with pytest.raises(ValueError, match="nodes: a cluster needs >= 2"):
        ScaleOutCluster(small_config, 1)
    assert ScaleOutCluster(small_config, ["a", "b"]).node_names() == ["a", "b"]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_scenario_planes_match_its_blocks(path):
    scenario = load_scenario(path)
    shape = scenario.cluster
    weights = shape.node_weights()
    cluster = Cluster(_config_for(scenario, scenario.seed), list(weights))
    tiering = scenario.tiering is not None
    is_async = scenario.rpc is not None and scenario.rpc.mode == "async"
    traced = scenario.tracing is not None and scenario.tracing.enabled

    assert cluster.placement_enabled is shape.placement
    assert cluster.tiering_enabled is tiering
    assert all((cluster.tier_agent(n) is not None) is tiering for n in weights)
    assert (cluster.tier_engine is not None) is (tiering and shape.placement)
    assert (cluster.spans is not None) is (traced and not is_async)
    assert _runs_as_tasks(scenario) is is_async
    if scenario.rpc is not None:
        rpc, spec = cluster.config.rpc, scenario.rpc
        assert (rpc.batch_window_ns, rpc.max_batch, rpc.hedge_stagger_ns) == (
            spec.batch_window_ns, spec.max_batch, spec.hedge_stagger_ns
        )
    for name in weights:
        store = cluster.store(name)
        assert store.lookup_cache is not None
        assert store.config.check_remote_uniqueness is False
    if shape.placement:
        ring = {n: m.weight for n, m in cluster.membership.view().members.items()}
        heterogeneous = any(w != 1.0 for w in weights.values())
        assert (ring == weights) if heterogeneous else set(ring.values()) == {1.0}
        assert (cluster.config.placement.weights is not None) is heterogeneous
