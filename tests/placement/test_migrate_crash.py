"""Crash-mid-migration: the prepare/commit split keeps every copy safe.

The destination dies after MigratePrepare (payload pulled, header written
*unsealed*) but before MigrateCommit. The contract:

* the migration reports ``aborted`` — no exception escapes;
* the source copy is still the published one and reads fine;
* the destination's half-copy is invisible (unsealed) and restart
  recovery reclaims it — the scrubber finds no orphan;
* the whole scenario is bit-deterministic: the same seed replays to the
  same simulated timestamps and counters.
"""

from __future__ import annotations

from dataclasses import replace

from repro.chaos import FaultPlan
from repro.chaos.plan import NodeCrash, NodeRestart
from repro.common.config import PlacementConfig
from repro.common.config import testing_config as make_testing_config
from repro.common.units import MiB
from repro.core import Cluster
from repro.scrub import Scrubber

PAYLOAD = b"\x5amid-flight" * 372  # ~4 KiB
SEED = 97


def run_scenario() -> list[str]:
    """One full crash-mid-migration drill; returns its replay fingerprint."""
    trace: list[str] = []
    cluster = Cluster(
        replace(
            make_testing_config(capacity_bytes=32 * MiB, seed=SEED),
            placement=PlacementConfig(),
        ),
        ["node0", "node1", "node2"],
        fault_plan=FaultPlan(),
    )
    ring = cluster.placement_ring()
    oid = next(
        o for o in cluster.new_object_ids(128) if ring.home(o) == "node0"
    )
    cluster.client("node0").put_bytes(oid, PAYLOAD)
    src = cluster.store("node0")
    dst = cluster.store("node1")

    # The destination dies one simulated nanosecond after the migration
    # starts: MigratePrepare (dispatched at t0) lands, the commit attempt
    # finds the server down.
    t0 = cluster.clock.now_ns
    cluster.chaos.inject(NodeCrash(at_ns=t0 + 1, node="node1"))
    result = cluster.migration_engine.migrate(src, "node1", oid)
    trace.append(f"migrate status={result.status} moved={result.bytes_moved}")
    assert result.status == "aborted"
    assert cluster.migration_engine.counters.get("migrations_aborted") == 1

    # Source copy survives, published, readable from a third party.
    assert src.contains(oid)
    assert bytes(cluster.client("node2").get_bytes(oid)) == PAYLOAD
    # The half-pulled destination copy is unsealed: invisible to Lookup.
    assert dst.lookup_descriptor(oid) is None
    trace.append(f"post-crash src_objects={src.object_count()}")

    # Restart the destination process and rebuild its store from headers:
    # the unsealed extent is not a recoverable object, so it is reclaimed.
    cluster.chaos.inject(
        NodeRestart(at_ns=cluster.clock.now_ns + 1, node="node1")
    )
    cluster.clock.advance(2)
    cluster.chaos.poll()
    report = cluster.recover_node("node1")
    recovered_dst = cluster.store("node1")
    trace.append(
        f"recovery recovered={report.recovered} "
        f"quarantined={report.quarantined}"
    )
    assert report.recovered == 0 and report.quarantined == 0
    assert not recovered_dst.contains(oid)
    assert recovered_dst.used_bytes == 0

    # No orphans anywhere: both stores scrub clean.
    for store in (src, recovered_dst):
        scrub = Scrubber(store).run()
        assert scrub.corrupted == 0 and scrub.quarantined == 0
        trace.append(f"scrub {store.name}: {scrub.describe().splitlines()[0]}")

    # A re-driven migration (the rebalancer's retry) now completes.
    retry = cluster.migration_engine.migrate(src, "node1", oid)
    assert retry.status == "migrated"
    assert not src.contains(oid)
    assert bytes(cluster.client("node2").get_bytes(oid)) == PAYLOAD
    trace.append(f"retry status={retry.status} moved={retry.bytes_moved}")

    trace.append(f"final_t={cluster.clock.now_ns}")
    trace.append(f"engine={sorted(cluster.migration_engine.counters.snapshot().items())}")
    for name in cluster.node_names():
        trace.append(
            f"{name} counters={sorted(cluster.store(name).counters.snapshot().items())}"
        )
    return trace


class TestCrashMidMigration:
    def test_source_survives_and_destination_reclaims(self):
        run_scenario()  # all safety asserts live inside

    def test_replay_is_bit_identical(self):
        assert run_scenario() == run_scenario()
