"""E-placement — drain convergence under a byte-budgeted rebalancer.

A 4-node placement cluster holds 1000 x 8 KiB objects routed by the
consistent-hash ring. ``drain_node("node1")`` excludes the node from the
ring; the rebalancer then migrates its primaries home a budgeted number
of bytes per simulated tick. The experiment asserts the PR's elasticity
contract:

* convergence — the drained store ends empty and *zero* bytes remain
  misplaced anywhere;
* availability — after every single tick, every one of the 1000 objects
  is readable (migration never leaves a window where neither the source
  nor the destination serves the object);
* pacing — no tick moves more than the configured byte budget, so the
  drain takes multiple ticks of simulated time;
* determinism — replaying the same seed yields an identical tick count,
  identical final simulated timestamp, and identical store counters.
"""

from __future__ import annotations

from repro.common.config import ClusterConfig, PlacementConfig
from repro.common.units import KiB, MiB
from repro.core import Cluster

NUM_OBJECTS = 1000
OBJECT_SIZE = 8 * KiB
BYTES_PER_TICK = 256 * KiB
SEED = 1337

PATTERN = b"rebalance/"
PAYLOAD = (PATTERN * (OBJECT_SIZE // len(PATTERN) + 1))[:OBJECT_SIZE]


def build_cluster(seed: int) -> Cluster:
    placement = PlacementConfig(rebalance_bytes_per_tick=BYTES_PER_TICK)
    config = ClusterConfig(seed=seed, placement=placement).with_store(
        capacity_bytes=64 * MiB
    )
    return Cluster(config, 4)


def run_drain(seed: int) -> dict:
    """Load, drain node1, tick to convergence with reads between ticks."""
    cluster = build_cluster(seed)
    ids = cluster.new_object_ids(NUM_OBJECTS)
    cluster.client("node0").put_batch([(oid, PAYLOAD) for oid in ids])
    drained_before = cluster.store("node1").object_count()
    assert drained_before > 0, "the ring should have homed objects on node1"

    cluster.drain_node("node1")
    readers = [cluster.client(name) for name in ("node0", "node2", "node3")]
    ticks = 0
    max_tick_bytes = 0
    while (
        cluster.rebalancer.misplaced_bytes() > 0
        or cluster.rebalancer.deferred_retires() > 0
    ):
        report = cluster.rebalancer.tick()
        ticks += 1
        max_tick_bytes = max(max_tick_bytes, report.moved_bytes)
        # Full availability sweep between ticks: every object, from a
        # reader that is *not* the draining node.
        reader = readers[ticks % len(readers)]
        for oid in ids:
            assert bytes(reader.get_bytes(oid)) == PAYLOAD
        assert ticks <= 10_000, "rebalancer failed to converge"

    return {
        "ticks": ticks,
        "drained_before": drained_before,
        "drained_after": cluster.store("node1").object_count(),
        "misplaced_after": cluster.rebalancer.misplaced_bytes(),
        "max_tick_bytes": max_tick_bytes,
        "final_t_ns": cluster.clock.now_ns,
        "epoch": cluster.membership.epoch,
        "counters": {
            name: sorted(cluster.store(name).counters.snapshot().items())
            for name in cluster.node_names()
        },
        "engine": sorted(
            cluster.migration_engine.counters.snapshot().items()
        ),
    }


def test_drain_converges_with_no_read_outage():
    result = run_drain(SEED)
    assert result["drained_after"] == 0
    assert result["misplaced_after"] == 0
    # The byte budget paces the drain across several simulated ticks.
    assert result["max_tick_bytes"] <= BYTES_PER_TICK + OBJECT_SIZE
    assert result["ticks"] > 1
    print(
        f"\ndrain: {result['drained_before']} objects off node1 in "
        f"{result['ticks']} tick(s), zero misplaced bytes, "
        f"{NUM_OBJECTS} objects readable after every tick "
        f"(final t={result['final_t_ns'] / 1e6:.1f} ms, "
        f"epoch={result['epoch']})"
    )


def test_same_seed_replays_to_identical_timestamp():
    a = run_drain(SEED)
    b = run_drain(SEED)
    assert a["final_t_ns"] == b["final_t_ns"]
    assert a == b
