"""Sealed-object headers: layout, lifecycle, verification, quarantine."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.common.checksum import crc32c
from repro.common.errors import ObjectCorruptedError, ObjectStoreError
from repro.common.ids import ObjectID
from repro.memory.layout import (
    FLAG_QUARANTINED,
    FLAG_SEALED,
    HEADER_MAGIC,
    HEADER_SIZE,
    MAX_METADATA_BYTES,
    ObjectHeader,
    pack_header,
)

from tests.integrity.conftest import put_sealed


class TestHeaderCodec:
    def test_roundtrip_preserves_every_field(self):
        header = ObjectHeader(
            object_id=bytes(range(20)),
            generation=7,
            data_size=4096,
            meta_size=12,
            flags=FLAG_SEALED,
            payload_crc=0xDEADBEEF,
            meta_crc=0x1234,
            sealed_at_s=1_700_000_000,
        )
        raw = pack_header(**asdict(header))
        assert len(raw) == HEADER_SIZE
        assert raw.startswith(HEADER_MAGIC)
        assert ObjectHeader.unpack(raw) == header

    def test_unpack_rejects_corruption(self):
        raw = bytearray(pack_header(b"x" * 20, generation=1, data_size=64))
        assert ObjectHeader.unpack(bytes(raw)) is not None
        for corrupt_at in (0, 10, 30, HEADER_SIZE - 1):
            flipped = bytearray(raw)
            flipped[corrupt_at] ^= 0x40
            assert ObjectHeader.unpack(bytes(flipped)) is None

    def test_extent_covers_header_payload_and_metadata(self):
        header = ObjectHeader(
            object_id=b"x" * 20, generation=1, data_size=100, meta_size=10
        )
        assert header.extent_bytes == HEADER_SIZE + 110


class TestHeaderLifecycle:
    def test_create_writes_unsealed_header_before_payload(self, store):
        oid = ObjectID.from_int(1)
        entry = store.create_object_unchecked(oid, 256)
        assert entry.payload_offset == entry.allocation.offset + HEADER_SIZE
        header = ObjectHeader.unpack(
            store.region.read(entry.allocation.offset, HEADER_SIZE)
        )
        assert header is not None
        assert header.object_id == oid.binary()
        assert not header.sealed
        assert header.generation == entry.generation

    def test_seal_stamps_checksum_then_flag(self, store):
        oid = ObjectID.from_int(2)
        payload = bytes(range(256)) * 4
        entry = put_sealed(store, oid, payload, metadata=b"meta")
        header = ObjectHeader.unpack(
            store.region.read(entry.allocation.offset, HEADER_SIZE)
        )
        assert header.sealed
        assert header.payload_crc == crc32c(payload) == entry.payload_crc
        assert header.meta_size == 4
        # Metadata is persisted in-region right behind the payload.
        assert (
            store.region.read(entry.payload_offset + entry.data_size, 4) == b"meta"
        )

    def test_retire_bumps_generation_and_clears_seal_before_free(self, store):
        oid = ObjectID.from_int(3)
        entry = put_sealed(store, oid, b"z" * 128)
        offset, old_gen = entry.allocation.offset, entry.generation
        store.delete_object(oid)
        header = ObjectHeader.unpack(store.region.read(offset, HEADER_SIZE))
        assert header is not None
        assert not header.sealed  # satellite (a): retired before the free
        assert header.generation > old_gen

    def test_generations_are_monotonic(self, store):
        generations = []
        for i in range(4):
            oid = ObjectID.from_int(10 + i)
            generations.append(put_sealed(store, oid, b"p" * 64).generation)
        assert generations == sorted(generations)
        assert len(set(generations)) == len(generations)

    def test_oversized_metadata_is_rejected(self, store):
        with pytest.raises(ValueError, match="metadata"):
            store.create_object_unchecked(
                ObjectID.from_int(4), 64, b"m" * (MAX_METADATA_BYTES + 1)
            )

    def test_descriptor_carries_integrity_fields(self, store):
        oid = ObjectID.from_int(5)
        entry = put_sealed(store, oid, b"d" * 512)
        descriptor = store.lookup_descriptor(oid)
        assert descriptor["offset"] == entry.payload_offset
        assert descriptor["generation"] == entry.generation
        assert descriptor["header_size"] == HEADER_SIZE
        assert descriptor["payload_crc"] == entry.payload_crc

    def test_headers_off_keeps_legacy_layout(self, make_store):
        store = make_store(integrity_headers=False, verify_remote_reads=False)
        oid = ObjectID.from_int(6)
        entry = put_sealed(store, oid, b"q" * 64)
        assert entry.header_size == 0
        assert entry.payload_offset == entry.allocation.offset


class TestVerifyQuarantineRepair:
    def test_verify_detects_payload_bitflip(self, store):
        oid = ObjectID.from_int(20)
        entry = put_sealed(store, oid, b"v" * 1024)
        assert store.verify_object(entry) is None
        store.region.view(entry.payload_offset + 100, 1)[0] ^= 0x01
        assert store.verify_object(entry) == "payload checksum mismatch"

    def test_verify_detects_metadata_corruption(self, store):
        oid = ObjectID.from_int(21)
        entry = put_sealed(store, oid, b"v" * 64, metadata=b"metadata")
        store.region.view(entry.payload_offset + entry.data_size, 1)[0] ^= 0x01
        assert store.verify_object(entry) == "metadata checksum mismatch"

    def test_verify_detects_smashed_header(self, store):
        oid = ObjectID.from_int(22)
        entry = put_sealed(store, oid, b"v" * 64)
        store.region.view(entry.allocation.offset, 4)[:] = b"JUNK"
        assert "header unreadable" in store.verify_object(entry)

    def test_quarantine_blocks_reads_and_lookups(self, store):
        oid = ObjectID.from_int(23)
        entry = put_sealed(store, oid, b"v" * 64)
        store.quarantine_object(oid)
        with pytest.raises(ObjectCorruptedError):
            store.get_sealed_entry(oid)
        assert store.lookup_descriptor(oid) is None
        header = ObjectHeader.unpack(
            store.region.read(entry.allocation.offset, HEADER_SIZE)
        )
        assert header.flags == FLAG_SEALED | FLAG_QUARANTINED

    def test_repair_restores_payload_and_lifts_quarantine(self, store):
        oid = ObjectID.from_int(24)
        payload = b"good bytes" * 10
        entry = put_sealed(store, oid, payload)
        store.region.view(entry.payload_offset, 4)[:] = b"BAD!"
        store.quarantine_object(oid)
        store.repair_object(oid, payload)
        assert store.verify_object(store.get_sealed_entry(oid)) is None
        buf = store.local_buffer(store.get_sealed_entry(oid))
        assert bytes(buf.view()) == payload

    def test_repair_rejects_wrong_size(self, store):
        oid = ObjectID.from_int(25)
        put_sealed(store, oid, b"v" * 64)
        with pytest.raises(ObjectStoreError, match="repair payload"):
            store.repair_object(oid, b"short")
