"""PlasmaStore + PlasmaClient: the full single-node object lifecycle."""

import pytest

from repro.common.errors import (
    ObjectExistsError,
    ObjectNotFoundError,
    ObjectNotSealedError,
    ObjectSealedError,
    ObjectStoreError,
    OutOfMemoryError,
)
from repro.common.ids import ObjectID
from repro.common.units import MiB


def oid(i: int) -> ObjectID:
    return ObjectID.from_int(i)


class TestProducerPath:
    def test_create_write_seal_get(self, client):
        buf = client.create(oid(1), 11)
        buf.write(b"hello world")
        client.seal(oid(1))
        assert client.get_bytes(oid(1)) == b"hello world"

    def test_put_bytes_convenience(self, client):
        client.put_bytes(oid(1), b"payload")
        assert client.get_bytes(oid(1)) == b"payload"

    def test_create_duplicate_rejected(self, client):
        client.create(oid(1), 10)
        with pytest.raises(ObjectExistsError):
            client.create(oid(1), 10)

    def test_zero_size_rejected(self, client):
        with pytest.raises(ValueError):
            client.create(oid(1), 0)

    def test_unsealed_object_not_gettable(self, client, second_client):
        client.create(oid(1), 10)
        with pytest.raises(ObjectNotSealedError):
            second_client.get([oid(1)])

    def test_write_after_seal_rejected(self, client):
        buf = client.create(oid(1), 4)
        buf.write(b"data")
        client.seal(oid(1))
        with pytest.raises(ObjectSealedError):
            buf.write(b"more")

    def test_metadata_stored(self, client, store):
        client.create(oid(1), 8, metadata=b"schema-v1")
        assert store.get_sealed_entry if True else None
        entry = store.table.get(oid(1))
        assert entry.metadata == b"schema-v1"

    def test_partial_writes_at_offsets(self, client):
        buf = client.create(oid(1), 8)
        buf.write(b"abcd", offset=0)
        buf.write(b"efgh", offset=4)
        client.seal(oid(1))
        client.release(oid(1))
        assert client.get_bytes(oid(1)) == b"abcdefgh"

    def test_write_beyond_object_rejected(self, client):
        buf = client.create(oid(1), 8)
        with pytest.raises(ObjectStoreError):
            buf.write(b"123456789")


class TestConsumerPath:
    def test_get_missing_raises(self, client):
        with pytest.raises(ObjectNotFoundError):
            client.get([oid(404)])

    def test_batched_get_returns_in_request_order(self, client):
        for i in (3, 1, 2):
            client.put_bytes(oid(i), bytes([i]) * 4)
        bufs = client.get([oid(2), oid(3), oid(1)])
        assert [b.read_all()[0] for b in bufs] == [2, 3, 1]

    def test_get_charges_single_ipc_request(self, client, clock):
        for i in range(10):
            client.put_bytes(oid(i), b"x")
        before = clock.now_ns
        client.get([oid(i) for i in range(10)])
        elapsed = clock.now_ns - before
        cfg = client._ipc.config  # noqa: SLF001
        assert elapsed == pytest.approx(
            cfg.request_overhead_ns + 10 * cfg.per_object_ns, rel=0.01
        )

    def test_buffers_are_readonly_views(self, client):
        client.put_bytes(oid(1), b"lock")
        buf = client.get_one(oid(1))
        with pytest.raises(TypeError):
            buf.view()[0] = 0  # type: ignore[index]

    def test_two_clients_share_object(self, client, second_client):
        client.put_bytes(oid(1), b"shared")
        b1 = client.get_one(oid(1))
        b2 = second_client.get_one(oid(1))
        assert b1.read_all() == b2.read_all() == b"shared"

    def test_contains(self, client):
        assert not client.contains(oid(5))
        client.put_bytes(oid(5), b"z")
        assert client.contains(oid(5))

    def test_empty_get_is_free(self, client, clock):
        before = clock.now_ns
        assert client.get([]) == []
        assert clock.now_ns == before


class TestReferenceCounting:
    def test_release_without_hold_rejected(self, client):
        client.put_bytes(oid(1), b"a")
        with pytest.raises(ObjectStoreError):
            client.release(oid(1))

    def test_released_buffer_unusable(self, client):
        client.put_bytes(oid(1), b"abc")
        buf = client.get_one(oid(1))
        client.release(oid(1))
        assert buf.is_released
        with pytest.raises(ObjectStoreError):
            buf.read_all()

    def test_multiple_holds_release_lifo(self, client, store):
        client.put_bytes(oid(1), b"x")
        client.get_one(oid(1))
        client.get_one(oid(1))
        entry = store.table.get(oid(1))
        assert entry.ref_count == 2
        client.release(oid(1))
        assert entry.ref_count == 1
        client.release(oid(1))
        assert entry.ref_count == 0

    def test_release_all(self, client, store):
        for i in range(3):
            client.put_bytes(oid(i), b"y")
        client.get([oid(i) for i in range(3)])
        client.release_all()
        assert client.held_ids() == []
        for i in range(3):
            assert store.table.get(oid(i)).ref_count == 0


class TestDeletion:
    def test_delete_sealed_unreferenced(self, client, store):
        client.put_bytes(oid(1), b"gone")
        used = store.used_bytes
        client.delete(oid(1))
        assert not store.contains(oid(1))
        assert store.used_bytes < used

    def test_delete_unsealed_rejected(self, client):
        client.create(oid(1), 4)
        with pytest.raises(ObjectNotSealedError):
            client.delete(oid(1))

    def test_delete_in_use_rejected(self, client):
        client.put_bytes(oid(1), b"pinned")
        client.get_one(oid(1))
        from repro.common.errors import ObjectInUseError

        with pytest.raises(ObjectInUseError):
            client.delete(oid(1))


class TestEvictionUnderPressure:
    def test_lru_eviction_makes_room(self, client, store):
        # Fill the 16 MiB store with 1 MiB objects, then keep inserting.
        n_fit = store.capacity_bytes // MiB
        for i in range(n_fit + 4):
            client.put_bytes(oid(i), bytes(MiB))
        assert store.counters.get("objects_evicted") >= 4
        # Oldest objects went first.
        assert not store.contains(oid(0))
        assert store.contains(oid(n_fit + 3))

    def test_in_use_objects_survive_pressure(self, client, store):
        client.put_bytes(oid(0), bytes(MiB))
        pinned = client.get_one(oid(0))
        for i in range(1, store.capacity_bytes // MiB + 4):
            client.put_bytes(oid(i), bytes(MiB))
        assert store.contains(oid(0))
        assert pinned.read_all() == bytes(MiB)

    def test_oom_when_everything_pinned(self, client, store):
        n_fit = store.capacity_bytes // (4 * MiB)
        for i in range(n_fit):
            client.put_bytes(oid(i), bytes(4 * MiB - 4096))
            client.get_one(oid(i))  # hold a reference
        with pytest.raises(OutOfMemoryError):
            client.create(oid(999), 4 * MiB)

    def test_explicit_evict(self, client, store):
        for i in range(4):
            client.put_bytes(oid(i), bytes(MiB))
        freed = store.evict(2 * MiB)
        assert freed >= 2 * MiB
        assert store.object_count() < 4

    def test_a_finished_round_is_handed_over_whole(self, client, store):
        # The hook a distributed store announces rounds from; the plain
        # store's own is a no-op, so everything above runs unchanged.
        rounds = []

        def announced(victims):
            assert not any(store.contains(v.object_id) for v in victims)
            rounds.append([v.object_id for v in victims])

        store._announce_evicted = announced  # noqa: SLF001
        feed = store.subscribe()
        n_fit = store.capacity_bytes // MiB
        for i in range(n_fit):  # headers: the last one no longer fits
            client.put_bytes(oid(i), bytes(MiB))
        store.evict(MiB)
        evicted = [note.object_id for note in feed.drain() if note.deleted]
        assert len(rounds) == 2 and len(rounds[0]) > 1
        assert rounds[0] + rounds[1] == evicted
        assert evicted[:2] == [oid(0), oid(1)]
        assert store.evict(64 * MiB) and len(rounds) == 3
        store.evict(MiB)  # nothing left to evict: no empty round
        assert len(rounds) == 3


class TestNotifications:
    def test_seal_notifies_subscribers(self, client, store):
        queue = store.subscribe()
        client.put_bytes(oid(1), b"announce")
        notes = queue.drain()
        assert len(notes) == 1
        assert notes[0].object_id == oid(1)
        assert notes[0].data_size == 8
        assert not notes[0].deleted

    def test_delete_notifies_with_flag(self, client, store):
        queue = store.subscribe()
        client.put_bytes(oid(1), b"x")
        client.delete(oid(1))
        notes = queue.drain()
        assert notes[-1].deleted

    def test_eviction_notifies(self, client, store):
        queue = store.subscribe()
        for i in range(store.capacity_bytes // MiB + 2):
            client.put_bytes(oid(i), bytes(MiB))
        assert any(n.deleted for n in queue.drain())

    def test_pop_and_len(self, client, store):
        queue = store.subscribe()
        assert queue.pop() is None
        client.put_bytes(oid(1), b"x")
        assert len(queue) == 1
        assert queue.pop().object_id == oid(1)
        assert not queue


class TestStoreIntrospection:
    def test_describe_all(self, client, store):
        client.put_bytes(oid(1), b"abc")
        client.create(oid(2), 5)
        descs = store.describe_all()
        assert len(descs) == 2
        sealed = {d["object_id"]: d["sealed"] for d in descs}
        assert sealed[oid(1).binary()] is True
        assert sealed[oid(2).binary()] is False

    def test_lookup_descriptor_only_sealed(self, client, store):
        client.create(oid(1), 5)
        assert store.lookup_descriptor(oid(1)) is None
        client.seal(oid(1))
        d = store.lookup_descriptor(oid(1))
        assert d["data_size"] == 5

    def test_repr_mentions_usage(self, client, store):
        client.put_bytes(oid(1), b"abc")
        assert "objects" in repr(store)
        assert repr(client).startswith("PlasmaClient")
