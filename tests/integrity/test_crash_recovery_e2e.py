"""The acceptance drill, end to end and replayed.

One seeded scenario exercises the whole integrity story: a chaos plan
crashes a node mid-workload and flips a bit in its surviving region;
peer reads fail typed (checksum-verified fabric reads catch the flip,
lookups fail over to replicas); the node restarts and rebuilds its table
and free list from the region's headers, recovering the corrupt object
quarantined; the scrubber repairs it from a replica and reconciles the
replication factor. Run twice with the same seed, the event traces are
identical line for line.
"""

from __future__ import annotations

from repro.chaos import BitFlip, FaultPlan, NodeCrash
from repro.common.config import ClusterConfig
from repro.common.errors import ObjectCorruptedError, ObjectUnavailableError
from repro.common.units import MiB
from repro.core import Cluster
from repro.scrub import Scrubber

N_OBJECTS = 6
PAYLOAD = bytes(range(256)) * 16  # 4 KiB, non-trivial CRC


def run_scenario(seed: int) -> list[str]:
    """The full crash -> corrupt -> fail-typed -> recover -> scrub story;
    returns a line-oriented event trace for replay comparison."""
    trace: list[str] = []
    cfg = ClusterConfig(seed=seed).with_store(
        capacity_bytes=32 * MiB, verify_checksum_on_read=True
    )
    cluster = Cluster(
        cfg.with_store(check_remote_uniqueness=False, lookup_cache=True),
        3,
        fault_plan=FaultPlan(),
    )
    producer = cluster.client("node0")
    consumer = cluster.client("node2")
    ids = cluster.new_object_ids(N_OBJECTS)
    for oid in ids:
        producer.put_bytes(oid, PAYLOAD, replicas=2)
    # Warm the consumer's descriptors so post-crash reads take the fabric
    # path (the asymmetry: the region outlives the metadata plane).
    for oid in ids:
        assert consumer.get_bytes(oid) == PAYLOAD

    # The victim must be an object whose replica is NOT on the consumer's
    # node, so the consumer's cached descriptor points at node0 and its
    # outage-time read really crosses the fabric into the corrupt bytes.
    victims = [
        oid
        for oid in ids
        if cluster.store("node0").replica_locations(oid) == ("node1",)
    ]
    assert victims, "replica placement left no node1-replicated object"
    victim = victims[0]
    descriptor = cluster.store("node0").lookup_descriptor(victim)
    fault_ns = cluster.clock.now_ns + 1_000_000
    cluster.chaos.inject(
        NodeCrash(at_ns=fault_ns, node="node0"),
        BitFlip(at_ns=fault_ns, node="node0", offset=descriptor["offset"] + 9, bit=2),
    )
    cluster.clock.advance(2_000_000)
    cluster.chaos.poll()
    trace.extend(cluster.chaos.timeline())

    # Peer reads during the outage fail *typed*, never return garbage:
    # the victim's cached descriptor still reaches its (corrupt) bytes
    # over the fabric, and the checksum-verified read rejects them.
    for oid in ids:
        try:
            data = consumer.get_bytes(oid)
            outcome = "ok" if bytes(data) == PAYLOAD else "GARBAGE"
        except ObjectCorruptedError:
            outcome = "corrupted(typed)"
        except ObjectUnavailableError:
            outcome = "unavailable(typed)"
        trace.append(f"outage read {ids.index(oid)}: {outcome}")
    assert any("corrupted(typed)" in line for line in trace)
    assert not any("GARBAGE" in line for line in trace)

    # Restart: rebuild from headers; the flipped object comes back
    # quarantined instead of silently wrong.
    report = cluster.recover_node("node0")
    trace.append(
        f"recovered={report.recovered} quarantined={report.quarantined} "
        f"candidates={report.candidates}"
    )
    assert report.recovered == N_OBJECTS
    assert report.quarantined == 1

    # Anti-entropy: repair from a replica, reconcile replica book-keeping.
    store = cluster.store("node0")
    scrub = Scrubber(store, replication_target=1).run()
    trace.extend(scrub.describe().splitlines())
    assert scrub.repaired == 1
    assert scrub.quarantined == 0
    assert all(len(store.replica_locations(oid)) == 1 for oid in ids)

    # End state: every object, the ex-victim included, reads correctly
    # from every vantage point.
    reborn = cluster.client("node0", "reborn")
    for oid in ids:
        assert bytes(reborn.get_bytes(oid)) == PAYLOAD
        assert bytes(consumer.get_bytes(oid)) == PAYLOAD
    trace.append("end state verified")
    return trace


class TestCrashRecoveryEndToEnd:
    def test_full_story_and_identical_replay(self):
        first = run_scenario(seed=1234)
        second = run_scenario(seed=1234)
        assert first == second
        assert first[-1] == "end state verified"

    def test_different_seed_still_converges(self):
        trace = run_scenario(seed=77)
        assert trace[-1] == "end state verified"
