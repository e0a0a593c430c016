"""E11 — crossover sweeps: when does replication beat disaggregation, and
when does a forwarded put's payload ride its RPC?

The paper's introduction argues against the scale-out approach (Fig 1a)
because it burns LAN bandwidth and duplicates data; the honest counterpoint
is that a replica serves *repeat* reads at local speed. This sweep measures
both systems end-to-end as the re-read count grows and locates the
crossover — the quantitative boundary of the paper's argument.

The same question on the write side: a put routed to its ring home can
carry the payload in one ``PlacedPut`` (every byte pays the RPC's per-byte
cost) or take the fabric write window between ``PlacedCreate`` and
``PlacedSeal`` (one more round trip). The store picks by the cost model,
``size * per_byte_ns < round_trip_ns``; the size sweep below measures both
paths and checks that the pick is the cheaper one.
"""

from __future__ import annotations

import statistics
from dataclasses import replace

import pytest

from repro.bench.sweep import object_size_sweep, reread_crossover
from repro.common.config import ClusterConfig, PlacementConfig
from repro.common.units import KB, KiB, MiB
from repro.core import Cluster
from repro.plasma.client import copy_writer
from repro.rpc.channel import Channel


def test_reread_crossover(benchmark):
    result = benchmark.pedantic(
        lambda: reread_crossover(object_size=16 * MiB, max_rereads=120, step=10),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.format())

    first = result.points[0]
    last = result.points[-1]
    # First touch: disaggregation wins decisively (fabric vs LAN copy).
    assert first.disaggregated_ms < first.scale_out_ms / 2
    # Far past the crossover: the local replica wins.
    assert last.scale_out_ms < last.disaggregated_ms
    # And the crossover exists strictly between the endpoints.
    assert result.crossover_rereads is not None
    assert 1 < result.crossover_rereads <= 120


def test_crossover_scales_with_fabric_penalty(benchmark):
    """The crossover point is governed by (LAN copy cost) / (per-read
    fabric penalty); both scale linearly with object size, so the crossover
    k* should be roughly size-independent."""

    def run():
        small = reread_crossover(object_size=4 * MiB, max_rereads=120, step=10)
        large = reread_crossover(object_size=32 * MiB, max_rereads=120, step=10)
        return small.crossover_rereads, large.crossover_rereads

    k_small, k_large = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ncrossover k*: 4 MiB -> {k_small}, 32 MiB -> {k_large}")
    assert k_small is not None and k_large is not None
    assert abs(k_small - k_large) <= 30  # same order, as the model predicts


def test_object_size_sweep(benchmark):
    """Continuous size axis: retrieval latency falls with object count,
    throughput rises to the plateaus — the trends behind Figs 6 and 7."""
    # Budget above the 64 MiB cache model so large-object reads are
    # DRAM-streaming (the Fig 7 plateau), not cache hits.
    sizes = [10 * KB, 100 * KB, 1000 * KB, 10_000 * KB]

    points = benchmark.pedantic(
        lambda: object_size_sweep(sizes, objects_budget_bytes=96 * MiB),
        rounds=1,
        iterations=1,
    )
    print("\nobject-size sweep (96 MiB total per point):")
    print(f"{'size kB':>8} {'loc ret ms':>11} {'rem ret ms':>11} "
          f"{'loc GiB/s':>10} {'rem GiB/s':>10}")
    for p in points:
        print(
            f"{p.object_size // KB:>8} {p.local_retrieve_ms:>11.3f} "
            f"{p.remote_retrieve_ms:>11.3f} {p.local_read_gibps:>10.2f} "
            f"{p.remote_read_gibps:>10.2f}"
        )
    # Retrieval latency tracks object count (falls as size grows).
    loc = [p.local_retrieve_ms for p in points]
    assert loc == sorted(loc, reverse=True)
    # Remote retrieval floors at the gRPC round trip.
    assert all(p.remote_retrieve_ms > 1.5 for p in points)
    # Throughput approaches the plateaus for large objects.
    big = points[-1]
    assert big.local_read_gibps == pytest.approx(6.5, rel=0.08)
    assert big.remote_read_gibps == pytest.approx(5.75, rel=0.08)
    # Local beats remote everywhere.
    for p in points:
        assert p.local_read_gibps > p.remote_read_gibps


PUT_SIZES = (4, 16, 64, 128, 192, 224, 256, 288, 320, 384, 512, 768, 1024)  # KiB
PUTS_PER_POINT = 9


def forwarded_put_ns(size: int, inline: bool, monkeypatch) -> float:
    """Median simulated latency of a client put of *size* bytes that the
    ring forwards to another node, forced down one path."""
    cfg = replace(ClusterConfig(seed=11), placement=PlacementConfig())
    cfg = cfg.with_store(capacity_bytes=32 * MiB, check_remote_uniqueness=False)
    cluster = Cluster(cfg, 2)
    ring, writer = cluster.placement_ring(), cluster.client("node1")
    size_, write = copy_writer(bytes(size))
    samples = []
    with monkeypatch.context() as patch:
        patch.setattr(Channel, "inline_is_cheaper", lambda self, n: inline)
        while len(samples) < PUTS_PER_POINT:
            oid = cluster.new_object_id()
            if ring.home(oid) != "node0":
                continue
            start = cluster.clock.now_ns
            writer.put_into(oid, size_, write)
            samples.append(cluster.clock.now_ns - start)
    return statistics.median(samples)


def test_forwarded_put_picks_the_cheaper_path(benchmark, monkeypatch):
    """At every grid point at least 25 % away from the model's crossover
    the path the store picks measures faster than the other one."""
    rpc = ClusterConfig().rpc
    model = rpc.round_trip_ns / rpc.per_byte_ns

    def run():
        return [
            (
                kib * KiB,
                forwarded_put_ns(kib * KiB, True, monkeypatch),
                forwarded_put_ns(kib * KiB, False, monkeypatch),
            )
            for kib in PUT_SIZES
        ]

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nforwarded put, model crossover {model / 1000:.0f} kB:")
    print(f"{'size KiB':>9} {'inline ms':>10} {'window ms':>10} {'picked':>8}")
    measured = None
    previous = None
    for size, inline_ns, window_ns in points:
        picked = "inline" if size * rpc.per_byte_ns < rpc.round_trip_ns else "window"
        print(
            f"{size // KiB:>9} {inline_ns / 1e6:>10.3f} {window_ns / 1e6:>10.3f} "
            f"{picked:>8}"
        )
        gap = inline_ns - window_ns
        if previous is not None and measured is None and previous[1] < 0 <= gap:
            # Linear interpolation between the last grid point where inline
            # was cheaper and the first where it was not.
            (lo, lo_gap), hi = previous, size
            measured = lo + (hi - lo) * -lo_gap / (gap - lo_gap)
        previous = (size, gap)
        if abs(size - model) >= 0.25 * model:
            cheaper = "inline" if inline_ns < window_ns else "window"
            assert picked == cheaper, (size, inline_ns, window_ns)
    assert measured is not None
    print(f"measured crossover ≈ {measured / 1000:.0f} kB")
