"""The CRC wrapper checksums payload views in place, like the bytes they show."""

from __future__ import annotations

from repro.common import checksum


def test_views_and_bytes_checksum_alike():
    payload = bytes(range(256)) * 8
    assert checksum.crc32c(memoryview(payload)) == checksum.crc32c(payload)
    head = checksum.crc32c(memoryview(payload)[:100])
    assert checksum.crc32c(payload[100:], head) == checksum.crc32c(payload)
