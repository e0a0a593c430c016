"""The aliasing hot cache against the copying cache it replaced.

Each tiered workload runs twice per seed: once with the cache that keeps
the validated fabric view of the home extent (served only after the home
header vouches for it), once with the reference cache that copied every
admission. Every served payload, every cache counter and every simulated
observable must match. A leak guard checks that the kept views tie no
node's memory to anything once the run is dropped.
"""

from __future__ import annotations

import gc
import weakref
import zlib
from pathlib import Path

import pytest

import repro.tier.agent as tier_agent
from repro.tier.cache import HotObjectCache
from repro.workload import ScenarioRunner, load_scenario
from tests.conftest import cluster_fingerprint
from tests.tier._reference_cache import ReferenceHotObjectCache

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = {
    "zipfian-tiered": ROOT / "benchmarks" / "scenarios" / "zipfian-tiered.json",
    "large-tiered": ROOT / "benchmarks" / "perf" / "workloads" / "large-tiered.json",
}
SEEDS = (2022, 4242)
COUNTERS = (
    "hits",
    "misses",
    "admissions",
    "rejections",
    "evictions",
    "invalidations",
    "bytes_avoided",
)


def recording(base: type) -> type:
    """*base* with every served payload logged as (oid, generation, crc)."""

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.served: list[tuple[bytes, int, int]] = []

        def lookup(self, object_id, generation):
            payload = super().lookup(object_id, generation)
            if payload is not None:
                self.served.append(
                    (object_id.binary(), generation, zlib.crc32(payload))
                )
            return payload

    return Recording


def run(path: Path, seed: int, cache_type: type, monkeypatch) -> dict:
    """One scenario run with *cache_type* as every node's hot cache; what
    the comparison needs, so the cluster itself is not kept alive."""
    gc.collect()  # the previous run's cluster, before this one is built
    monkeypatch.setattr(tier_agent, "HotObjectCache", recording(cache_type))
    runner = ScenarioRunner(load_scenario(path), seed)
    runner.run()
    cluster = runner.cluster
    caches = [cluster.tier_agent(n).cache for n in sorted(cluster.node_names())]
    return {
        "fingerprint": cluster_fingerprint(cluster),
        "served": [cache.served for cache in caches],
        "counters": [[getattr(cache, k) for k in COUNTERS] for cache in caches],
        "used_bytes": [cache.used_bytes for cache in caches],
        "admissions": sum(cache.admissions for cache in caches),
        "all_views": all(
            isinstance(payload, memoryview) and payload.readonly
            for cache in caches
            for payload, _ in cache._entries.values()  # noqa: SLF001
        ),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_aliasing_cache_serves_what_the_copying_cache_served(
    workload, seed, monkeypatch
):
    path = WORKLOADS[workload]
    reference = run(path, seed, ReferenceHotObjectCache, monkeypatch)
    aliasing = run(path, seed, HotObjectCache, monkeypatch)
    assert aliasing["admissions"] > 0
    for key in ("served", "counters", "used_bytes", "fingerprint"):
        assert aliasing[key] == reference[key], key
    if workload == "large-tiered":
        # Admission and every serve touch no payload byte: each entry is
        # still the read-only view its validated fabric read returned.
        assert aliasing["all_views"]
        if seed == 2022:
            assert aliasing["admissions"] == 519


def test_dropped_run_releases_every_host_memory():
    """Nothing outside the cluster keeps a node's memory: once the runner
    is dropped every node's HostMemory is collectable."""
    runner = ScenarioRunner(load_scenario(WORKLOADS["large-tiered"]), 2022)
    runner.run()
    cluster = runner.cluster
    names = sorted(cluster.node_names())
    assert sum(len(cluster.tier_agent(n).cache) for n in names) > 0
    memories = [weakref.ref(cluster.node(n).endpoint.memory) for n in names]
    del runner, cluster
    gc.collect()
    assert [ref() for ref in memories] == [None] * len(names)
