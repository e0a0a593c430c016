"""The anti-entropy scrubber: detect, quarantine, repair, re-replicate."""

from __future__ import annotations

import pytest

from repro.common.errors import ObjectCorruptedError, ObjectStoreError
from repro.scrub import Scrubber


def _flip_payload_bit(store, oid, byte_offset=0, bit=0):
    entry = store.table.lookup(oid)
    store.region.view(entry.payload_offset + byte_offset, 1)[0] ^= 1 << bit


class TestScrubber:
    def test_clean_store_scrubs_clean(self, cluster3):
        client = cluster3.client("node0")
        ids = cluster3.new_object_ids(4)
        for oid in ids:
            client.put_bytes(oid, b"ok" * 512)
        report = Scrubber(cluster3.store("node0")).run()
        assert report.scanned == 4
        assert report.ok == 4
        assert report.corrupted == report.repaired == report.quarantined == 0

    def test_bitflip_detected_and_repaired_from_replica(self, cluster3):
        client = cluster3.client("node0")
        oid = cluster3.new_object_id()
        payload = b"precious" * 500
        client.put_bytes(oid, payload, replicas=2)
        store = cluster3.store("node0")
        _flip_payload_bit(store, oid, byte_offset=123, bit=6)
        report = Scrubber(store).run()
        assert report.corrupted == 1
        assert report.repaired == 1
        assert report.quarantined == 0
        entry = store.get_sealed_entry(oid)  # quarantine was lifted
        assert store.verify_object(entry) is None
        assert bytes(store.local_buffer(entry).view()) == payload

    def test_unreplicated_corruption_stays_quarantined(self, cluster3):
        client = cluster3.client("node0")
        oid = cluster3.new_object_id()
        client.put_bytes(oid, b"lonely" * 100)  # single copy
        store = cluster3.store("node0")
        _flip_payload_bit(store, oid)
        report = Scrubber(store).run()
        assert report.corrupted == 1
        assert report.repaired == 0
        assert report.quarantined == 1
        with pytest.raises(ObjectCorruptedError):
            store.get_sealed_entry(oid)
        # A second pass neither crashes nor double-counts repairs.
        again = Scrubber(store).run()
        assert again.corrupted == 1
        assert again.repaired == 0

    def test_corrupt_replica_repairs_from_home(self, cluster3):
        client = cluster3.client("node0")
        oid = cluster3.new_object_id()
        payload = b"homeward" * 256
        client.put_bytes(oid, payload, replicas=2)
        (holder,) = cluster3.store("node0").replica_locations(oid)
        replica_store = cluster3.store(holder)
        _flip_payload_bit(replica_store, oid, byte_offset=3)
        report = Scrubber(replica_store).run()
        assert report.repaired == 1
        entry = replica_store.get_sealed_entry(oid)
        assert bytes(replica_store.local_buffer(entry).view()) == payload

    def test_restores_replication_factor_after_losing_a_replica(self, cluster3):
        client = cluster3.client("node0")
        oid = cluster3.new_object_id()
        client.put_bytes(oid, b"copyme" * 64, replicas=2)
        store = cluster3.store("node0")
        (holder,) = store.replica_locations(oid)
        # The holder loses its copy and the home loses its book-keeping —
        # the double erosion a crash-recover cycle produces.
        cluster3.store(holder).drop_replicas([oid])
        store.record_replicas(oid, ())
        report = Scrubber(store, replication_target=1).run()
        assert report.re_replicated == 1
        assert len(store.replica_locations(oid)) == 1
        new_holder = store.replica_locations(oid)[0]
        assert cluster3.store(new_holder).is_replica(oid)

    def test_cross_check_rediscovers_replicas_after_restart(self, cluster3):
        client = cluster3.client("node0")
        ids = cluster3.new_object_ids(3)
        for oid in ids:
            client.put_bytes(oid, b"re" * 512, replicas=2)
        cluster3.node("node0").server.shutdown()
        cluster3.recover_node("node0")  # replica map is process state: gone
        store = cluster3.store("node0")
        assert all(store.replica_locations(oid) == () for oid in ids)
        report = Scrubber(store, replication_target=1).run()
        # The Lookup cross-check found the surviving copies: no duplicate
        # replicas were pushed, and the map is truthful again.
        assert report.re_replicated == 0
        assert all(len(store.replica_locations(oid)) == 1 for oid in ids)
        assert store.counters.scrub_replicas_rediscovered == 3

    def test_scrub_requires_integrity_headers(self, make_store):
        bare = make_store(integrity_headers=False, verify_remote_reads=False)
        with pytest.raises(ObjectStoreError, match="integrity_headers"):
            Scrubber(bare)

    def test_report_is_deterministic(self, cluster3):
        client = cluster3.client("node0")
        ids = cluster3.new_object_ids(5)
        for oid in ids:
            client.put_bytes(oid, b"det" * 100, replicas=2)
        store = cluster3.store("node0")
        _flip_payload_bit(store, ids[2], byte_offset=1, bit=1)
        first = Scrubber(store, replication_target=1).run()
        assert first.repaired == 1
        # State is healthy now; repeated scrubs converge to identical,
        # all-clean reports.
        second = Scrubber(store, replication_target=1).run()
        third = Scrubber(store, replication_target=1).run()
        assert second == third
        assert second.ok == 5
