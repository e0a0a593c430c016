"""ObjectID and UniqueIDGenerator behaviour."""

import pytest
from hypothesis import given, strategies as st

from repro.common.ids import ID_NBYTES, ObjectID, UniqueIDGenerator
from repro.common.rng import DeterministicRng


class TestObjectID:
    def test_requires_exactly_20_bytes(self):
        with pytest.raises(ValueError):
            ObjectID(b"short")
        with pytest.raises(ValueError):
            ObjectID(b"x" * 21)
        oid = ObjectID(b"x" * 20)
        assert oid.binary() == b"x" * 20

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            ObjectID("a" * 20)  # type: ignore[arg-type]

    def test_accepts_bytearray_and_memoryview(self):
        raw = bytearray(range(20))
        assert ObjectID(raw).binary() == bytes(raw)
        assert ObjectID(memoryview(raw)).binary() == bytes(raw)

    def test_exact_bytes_are_kept_without_a_copy(self):
        raw = bytes(range(20))
        assert ObjectID(raw).binary() is raw

    def test_bytes_subclass_is_normalised_to_bytes(self):
        class Tagged(bytes):
            pass

        oid = ObjectID(Tagged(range(20)))
        assert type(oid.binary()) is bytes
        assert oid == ObjectID(bytes(range(20)))
        with pytest.raises(ValueError):
            ObjectID(Tagged(b"short"))

    def test_value_semantics_do_not_depend_on_the_source_type(self):
        """An id built from wire ``bytes`` (no copy), a ``bytearray`` or a
        ``memoryview`` is the same key, hashes alike and orders alike."""
        raw = bytes(range(20))
        ids = [ObjectID(raw), ObjectID(bytearray(raw)), ObjectID(memoryview(raw))]
        assert len(set(ids)) == 1
        assert all(hash(i) == hash(raw) for i in ids)
        assert {ids[0]: "v"}[ids[2]] == "v"
        hi = ObjectID(bytearray(b"\xff" * 20))
        assert all(i < hi and i <= hi and not hi < i and not hi <= i for i in ids)
        assert ids[0] <= ids[1] and not ids[0] < ids[1]
        assert ids[0].__lt__(raw) is NotImplemented
        assert ids[0].__eq__(raw) is NotImplemented

    def test_equality_and_hash(self):
        a = ObjectID(bytes(range(20)))
        b = ObjectID(bytes(range(20)))
        c = ObjectID(bytes(reversed(range(20))))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_ordering_is_lexicographic(self):
        lo = ObjectID(b"\x00" * 20)
        hi = ObjectID(b"\x01" + b"\x00" * 19)
        assert lo < hi
        assert lo <= hi
        assert sorted([hi, lo]) == [lo, hi]

    def test_equality_with_other_types_is_not_implemented(self):
        assert ObjectID(b"x" * 20) != b"x" * 20
        assert ObjectID(b"x" * 20) != "x" * 20

    def test_from_name_is_deterministic_sha1(self):
        a = ObjectID.from_name("dataset/partition-7")
        b = ObjectID.from_name("dataset/partition-7")
        c = ObjectID.from_name("dataset/partition-8")
        assert a == b
        assert a != c
        assert len(a.binary()) == ID_NBYTES

    def test_from_int_roundtrips_in_hex(self):
        oid = ObjectID.from_int(0xDEADBEEF)
        assert oid.hex().endswith("deadbeef")
        with pytest.raises(ValueError):
            ObjectID.from_int(-1)

    def test_from_random_is_seed_deterministic(self):
        a = ObjectID.from_random(DeterministicRng(7).spawn("s"))
        b = ObjectID.from_random(DeterministicRng(7).spawn("s"))
        assert a == b

    def test_bytes_dunder_and_repr(self):
        oid = ObjectID(b"\xab" * 20)
        assert bytes(oid) == b"\xab" * 20
        assert "abab" in repr(oid)

    @given(st.binary(min_size=20, max_size=20))
    def test_binary_roundtrip(self, raw: bytes):
        assert ObjectID(raw).binary() == raw


class TestUniqueIDGenerator:
    def test_generates_unique_ids(self, rng):
        gen = UniqueIDGenerator(rng)
        ids = gen.take(500)
        assert len(set(ids)) == 500

    def test_take_and_iter_agree_on_uniqueness(self, rng):
        gen = UniqueIDGenerator(rng)
        seen = set(gen.take(10))
        it = iter(gen)
        for _ in range(10):
            oid = next(it)
            assert oid not in seen
            seen.add(oid)

    def test_streams_with_same_seed_match(self):
        a = UniqueIDGenerator(DeterministicRng(5))
        b = UniqueIDGenerator(DeterministicRng(5))
        assert a.take(20) == b.take(20)
