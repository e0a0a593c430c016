"""E-chaos — resilience under a deterministic node crash.

A Table I spec-4 style workload (100 x 1000 kB objects, homed on node1,
read from node0) runs while a seeded :class:`FaultPlan` kills node1's
store process mid-run. The experiment asserts the PR's resilience
contract:

* ``replicas=1`` — reads of dead-node objects fail *typed* and *bounded*:
  :class:`ObjectUnavailableError` within the configured deadline.
* ``replicas=2`` — every read still succeeds, served by lookup failover
  to the replica holder.
* The per-peer circuit breaker caps the post-crash lookup cost: once
  open, a failed lookup costs less than one RPC round trip.
* The whole scenario is deterministic: replaying the same seed yields an
  identical fault timeline, outcome counts, and store counters.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench import spec_by_index
from repro.chaos import FaultPlan, NodeCrash
from repro.common.config import ClusterConfig
from repro.common.errors import ObjectUnavailableError
from repro.common.units import MiB
from repro.core import Cluster

CRASH_AT_NS = 5_000_000  # node1 dies 5 ms into the run
DEADLINE_NS = 20_000_000.0  # 20 ms per-call budget
SPEC = spec_by_index(4)  # 100 objects x 1000 kB


def build_cluster(seed: int, n_nodes: int) -> Cluster:
    config = ClusterConfig(seed=seed).with_store(capacity_bytes=512 * MiB)
    config = replace(
        config, rpc=replace(config.rpc, default_deadline_ns=DEADLINE_NS)
    )
    plan = FaultPlan([NodeCrash(at_ns=CRASH_AT_NS, node="node1")])
    return Cluster(config, n_nodes, fault_plan=plan)


def run_scenario(seed: int, replicas: int, n_nodes: int = 3) -> dict:
    """Produce on node1, crash it, read everything from node0."""
    cluster = build_cluster(seed, n_nodes)
    producer = cluster.client("node1")
    reader = cluster.client("node0")
    pattern = b"resilience!"
    payload = (pattern * (SPEC.object_size_bytes // len(pattern) + 1))[
        : SPEC.object_size_bytes
    ]
    ids = cluster.new_object_ids(SPEC.num_objects)
    producer.put_batch([(oid, payload) for oid in ids], replicas=replicas)

    # Let the fault plan fire (polled on the next health tick / RPC).
    cluster.clock.advance(max(0, CRASH_AT_NS - cluster.clock.now_ns))
    cluster.health_tick()
    assert cluster.chaos is not None
    assert cluster.chaos.node_crashed("node1")

    ok = unavailable = 0
    lookup_costs_ns: list[float] = []
    for oid in ids:
        t0 = cluster.clock.now_ns
        try:
            data = reader.get_bytes(oid)
            assert len(data) == SPEC.object_size_bytes
            ok += 1
        except ObjectUnavailableError as exc:
            assert "node1" in exc.unreachable_peers
            unavailable += 1
        lookup_costs_ns.append(cluster.clock.now_ns - t0)
    return {
        "timeline": tuple(cluster.chaos.timeline()),
        "ok": ok,
        "unavailable": unavailable,
        "lookup_costs_ns": lookup_costs_ns,
        "reader_counters": cluster.store("node0").counters.snapshot(),
        "round_trip_ns": cluster.config.rpc.round_trip_ns,
    }


def test_replicated_objects_survive_the_crash():
    result = run_scenario(seed=21, replicas=2)
    assert result["ok"] == SPEC.num_objects
    assert result["unavailable"] == 0
    print(
        f"\nreplicas=2: {result['ok']}/{SPEC.num_objects} reads served "
        "via failover after the home store crashed"
    )


def test_single_copy_objects_fail_typed_and_bounded():
    result = run_scenario(seed=21, replicas=1)
    assert result["ok"] == 0
    assert result["unavailable"] == SPEC.num_objects
    # Every failed read was bounded by the per-call deadline (plus the
    # fabric/IPC overhead around the lookup itself, well under one extra
    # round trip).
    bound = DEADLINE_NS + result["round_trip_ns"]
    worst = max(result["lookup_costs_ns"])
    assert worst <= bound, f"worst failed read {worst / 1e6:.3f} ms"
    print(
        f"\nreplicas=1: {result['unavailable']} typed failures, worst "
        f"{worst / 1e6:.3f} ms (deadline {DEADLINE_NS / 1e6:.0f} ms)"
    )


def test_breaker_caps_post_crash_lookup_cost():
    # Two nodes: the reader's only peer is the dead one, so the whole
    # post-crash lookup cost is the cost of talking to a corpse.
    result = run_scenario(seed=21, replicas=1, n_nodes=2)
    costs = result["lookup_costs_ns"]
    # Early lookups pay retries up to the deadline; once the breaker
    # opens, a failed lookup costs less than a single RPC round trip.
    assert costs[0] > result["round_trip_ns"]
    tail = costs[len(costs) // 2 :]
    assert max(tail) < result["round_trip_ns"], (
        f"breaker did not cap lookup cost: {max(tail) / 1e6:.3f} ms vs "
        f"round trip {result['round_trip_ns'] / 1e6:.3f} ms"
    )
    print(
        f"\nbreaker: first failed lookup {costs[0] / 1e6:.3f} ms, "
        f"steady-state {max(tail) / 1e3:.1f} us "
        f"(round trip {result['round_trip_ns'] / 1e6:.3f} ms)"
    )


def test_scenario_is_deterministic():
    a = run_scenario(seed=21, replicas=2)
    b = run_scenario(seed=21, replicas=2)
    assert a["timeline"] == b["timeline"]
    assert (a["ok"], a["unavailable"]) == (b["ok"], b["unavailable"])
    assert a["reader_counters"] == b["reader_counters"]
    assert a["lookup_costs_ns"] == b["lookup_costs_ns"]
