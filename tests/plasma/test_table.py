"""ObjectTable: lifecycle, references, LRU candidate ordering, mutex."""

import threading

import pytest

from repro.allocator.base import Allocation
from repro.common.errors import (
    ObjectExistsError,
    ObjectInUseError,
    ObjectNotFoundError,
    ObjectSealedError,
)
from repro.common.ids import ObjectID
from repro.plasma.entry import ObjectEntry, ObjectState
from repro.plasma.table import ObjectTable


def entry(i: int, size: int = 64) -> ObjectEntry:
    return ObjectEntry(
        object_id=ObjectID.from_int(i),
        allocation=Allocation(offset=i * 1024, size=size, padded_size=size),
        data_size=size,
    )


class TestLifecycle:
    def test_insert_get_remove(self):
        t = ObjectTable()
        e = entry(1)
        t.insert(e)
        assert t.get(e.object_id) is e
        assert t.contains(e.object_id)
        t.remove(e.object_id)
        assert not t.contains(e.object_id)

    def test_duplicate_insert_rejected(self):
        t = ObjectTable()
        t.insert(entry(1))
        with pytest.raises(ObjectExistsError):
            t.insert(entry(1))

    def test_get_missing_raises_lookup_returns_none(self):
        t = ObjectTable()
        with pytest.raises(ObjectNotFoundError):
            t.get(ObjectID.from_int(9))
        assert t.lookup(ObjectID.from_int(9)) is None

    def test_seal_transitions_state(self):
        t = ObjectTable()
        e = entry(1)
        t.insert(e)
        assert not e.is_sealed
        t.seal(e.object_id, sealed_at_ns=123)
        assert e.is_sealed
        assert e.sealed_at_ns == 123
        assert e.state is ObjectState.SEALED

    def test_double_seal_rejected(self):
        t = ObjectTable()
        e = entry(1)
        t.insert(e)
        t.seal(e.object_id, 1)
        with pytest.raises(ObjectSealedError):
            t.seal(e.object_id, 2)

    def test_remove_in_use_rejected(self):
        t = ObjectTable()
        e = entry(1)
        t.insert(e)
        t.add_ref(e.object_id)
        with pytest.raises(ObjectInUseError):
            t.remove(e.object_id)
        t.release_ref(e.object_id)
        t.remove(e.object_id)


class TestReferences:
    def test_release_without_ref_rejected(self):
        t = ObjectTable()
        e = entry(1)
        t.insert(e)
        with pytest.raises(ObjectInUseError):
            t.release_ref(e.object_id)
        t.add_ref(e.object_id)
        t.release_ref(e.object_id)
        assert e.ref_count == 0
        with pytest.raises(ObjectInUseError):
            t.release_ref(e.object_id)  # one release per reference

    def test_evictable_requires_sealed_and_unreferenced(self):
        t = ObjectTable()
        e = entry(1)
        t.insert(e)
        assert not e.evictable  # unsealed
        t.seal(e.object_id, 1)
        assert e.evictable
        t.add_ref(e.object_id)
        t.add_ref(e.object_id)
        assert not e.evictable
        t.release_ref(e.object_id)
        assert not e.evictable  # one reference left still pins
        t.release_ref(e.object_id)
        assert e.evictable


class TestLruOrdering:
    def test_candidates_in_lru_order(self):
        t = ObjectTable()
        entries = [entry(i) for i in range(5)]
        for e in entries:
            t.insert(e)
            t.seal(e.object_id, 1)
        # Touch entry 0 so it becomes most recently used.
        t.add_ref(entries[0].object_id)
        t.release_ref(entries[0].object_id)
        cands = t.eviction_candidates()
        assert cands[0] is entries[1]
        assert cands[-1] is entries[0]

    def test_in_use_entries_excluded(self):
        t = ObjectTable()
        entries = [entry(i) for i in range(3)]
        for e in entries:
            t.insert(e)
            t.seal(e.object_id, 1)
        t.add_ref(entries[1].object_id)
        cands = t.eviction_candidates()
        assert entries[1] not in cands
        assert len(cands) == 2


class TestIntrospection:
    def test_len_ids_iter(self):
        t = ObjectTable()
        for i in range(4):
            t.insert(entry(i))
        assert len(t) == 4
        assert len(t.ids()) == 4
        assert sum(1 for _ in t) == 4

    def test_sealed_bytes(self):
        t = ObjectTable()
        a, b = entry(1, 100), entry(2, 200)
        t.insert(a)
        t.insert(b)
        t.seal(a.object_id, 1)
        assert t.sealed_bytes() == 100

    def test_for_each(self):
        t = ObjectTable()
        for i in range(3):
            t.insert(entry(i))
        assert sorted(e.object_id for e in t) == [entry(i).object_id for i in range(3)]


class TestThreadSafety:
    def test_concurrent_inserts_and_refs(self):
        """Hammer the mutex from 8 threads; counts must come out exact."""
        t = ObjectTable()
        base = entry(0)
        t.insert(base)
        t.seal(base.object_id, 1)
        errors = []

        def worker(worker_id: int):
            try:
                for i in range(200):
                    t.add_ref(base.object_id)
                    t.release_ref(base.object_id)
                    oid = ObjectID.from_int(1 + worker_id * 1000 + i)
                    t.insert(
                        ObjectEntry(
                            object_id=oid,
                            allocation=Allocation(offset=0, size=1, padded_size=64),
                            data_size=1,
                        )
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert len(t) == 1 + 8 * 200
        assert base.ref_count == 0
