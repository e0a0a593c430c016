"""E7 — remote-lookup caching (paper §V-B future work, implemented).

"A caching mechanism for previously requested remote objects ... would
increase the performance of repeated requests for identifiers."

Measures repeated remote gets with and without the cache, and the cost of
keeping it coherent (NotifyDeleted invalidations on delete/evict).
"""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig
from repro.common.units import KB, MiB
from repro.core import Cluster


def cfg():
    return ClusterConfig().with_store(capacity_bytes=64 * MiB)


def _repeated_requests(cluster, rounds: int, n_objects: int) -> float:
    producer = cluster.client("node0")
    consumer = cluster.client("node1")
    ids = cluster.new_object_ids(n_objects)
    for oid in ids:
        producer.put_bytes(oid, bytes(10 * KB))
    t0 = cluster.clock.now_ns
    for _ in range(rounds):
        bufs = consumer.get(ids)
        for buf in bufs:
            buf.charge_sequential_read()
        for oid in ids:
            consumer.release(oid)
    return (cluster.clock.now_ns - t0) / 1e6


def test_cache_accelerates_repeated_requests(benchmark):
    def run():
        cold_cluster = Cluster(cfg().with_store(check_remote_uniqueness=False))
        cold = _repeated_requests(cold_cluster, rounds=10, n_objects=20)
        cold_rpcs = cold_cluster.store("node1").counters.lookup_rpcs
        warm_cluster = Cluster(
            cfg().with_store(lookup_cache=True, check_remote_uniqueness=False),
        )
        warm = _repeated_requests(warm_cluster, rounds=10, n_objects=20)
        warm_rpcs = warm_cluster.store("node1").counters.lookup_rpcs
        hit_rate = warm_cluster.store("node1").lookup_cache.hit_rate
        return cold, warm, hit_rate, cold_rpcs, warm_rpcs

    cold, warm, hit_rate, cold_rpcs, warm_rpcs = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print(
        f"\n10 rounds x 20 remote objects: no-cache {cold:.2f} ms "
        f"({cold_rpcs} lookup RPCs), cache {warm:.2f} ms ({warm_rpcs} RPCs, "
        f"{cold / warm:.1f}x, hit rate {hit_rate:.0%})"
    )
    # 9 of 10 rounds skip the gRPC round trip entirely; the residual cost
    # is IPC per get/release, which caching cannot remove.
    assert cold_rpcs == 10
    assert warm_rpcs == 1
    assert warm < cold / 1.8
    assert hit_rate > 0.8


def test_invalidation_keeps_cache_coherent(benchmark):
    """Deletions must push invalidations; the benchmark measures that the
    coherency traffic (one NotifyDeleted per delete) stays proportional."""

    def run():
        cluster = Cluster(
            cfg().with_store(lookup_cache=True, check_remote_uniqueness=False),
        )
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        ids = cluster.new_object_ids(20)
        for oid in ids:
            producer.put_bytes(oid, bytes(1000))
        for oid in ids:
            consumer.get_one(oid)
            consumer.release(oid)
        # Delete half: caches must drop exactly those entries.
        for oid in ids[:10]:
            producer.delete(oid)
        cache = cluster.store("node1").lookup_cache
        notifications = cluster.store("node0").counters.delete_notifications
        return len(cache), cache.invalidations, notifications

    remaining, invalidations, notifications = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print(
        f"\ncache entries left: {remaining}, invalidations: {invalidations}, "
        f"notify RPCs: {notifications}"
    )
    assert remaining == 10
    assert invalidations == 10
    assert notifications == 10


def test_zipf_hit_rates_with_bounded_cache(benchmark):
    """Realistic access skew: under Zipf(1.1) popularity, even a cache far
    smaller than the object population absorbs most lookups; under uniform
    access the same cache thrashes. Paper §V-B: the caching win "is
    dependent on system usage" — this quantifies that dependence."""
    from repro.workload.popularity import uniform_access_sequence, zipf_access_sequence
    from repro.common.rng import DeterministicRng

    N_OBJECTS = 400
    N_ACCESSES = 2000
    CACHE_ENTRIES = 40  # 10 % of the population

    def run_pattern(pattern: str) -> float:
        cluster = Cluster(
            cfg().with_store(lookup_cache=True, check_remote_uniqueness=False),
        )
        # Bound the node's descriptor table to force replacement.
        store = cluster.store("node1")
        from repro.core.remote import DescriptorTable

        store._remote_records = DescriptorTable(CACHE_ENTRIES)  # noqa: SLF001
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        ids = cluster.new_object_ids(N_OBJECTS)
        for oid in ids:
            producer.put_bytes(oid, bytes(1000))
        rng = DeterministicRng(99).spawn(pattern)
        if pattern == "zipf":
            sequence = zipf_access_sequence(rng, N_OBJECTS, N_ACCESSES)
        else:
            sequence = uniform_access_sequence(rng, N_OBJECTS, N_ACCESSES)
        for index in sequence:
            oid = ids[int(index)]
            consumer.get_one(oid)
            consumer.release(oid)
        return store.lookup_cache.hit_rate

    rates = benchmark.pedantic(
        lambda: {p: run_pattern(p) for p in ("zipf", "uniform")},
        rounds=1,
        iterations=1,
    )
    print(
        f"\nlookup-cache hit rate, {CACHE_ENTRIES}-entry cache over "
        f"{N_OBJECTS} objects: zipf={rates['zipf']:.0%}, "
        f"uniform={rates['uniform']:.0%}"
    )
    assert rates["zipf"] > 0.45
    assert rates["zipf"] > rates["uniform"] + 0.25


def test_cached_lookup_wall_clock(benchmark):
    """Real wall-time of a cache-hit remote get (no RPC dispatch at all)."""
    cluster = Cluster(
        cfg().with_store(lookup_cache=True, check_remote_uniqueness=False),
    )
    producer = cluster.client("node0")
    consumer = cluster.client("node1")
    oid = cluster.new_object_id()
    producer.put_bytes(oid, bytes(1000))
    consumer.get_one(oid)
    consumer.release(oid)

    def op():
        buf = consumer.get_one(oid)
        consumer.release(oid)
        return buf

    assert benchmark(op).is_remote
