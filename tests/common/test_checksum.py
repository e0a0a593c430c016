"""The CRC wrapper must checksum payload views in place, on either
implementation (the hardware wheel is optional, so it is faked here)."""

from __future__ import annotations

import importlib.util
import sys
import types
import zlib

from repro.common import checksum


def load_with_fake_wheel(monkeypatch, seen: list):
    """A private copy of ``repro.common.checksum`` that found a ``crc32c``
    wheel — one that records what it is handed."""

    def fake_hw(data, value=0):
        seen.append(data)
        return zlib.crc32(data, value)

    fake = types.ModuleType("crc32c")
    fake.crc32c = fake_hw
    monkeypatch.setitem(sys.modules, "crc32c", fake)
    spec = importlib.util.spec_from_file_location("checksum_hw", checksum.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.CRC_IMPL == "crc32c"
    return module


def test_hardware_path_takes_contiguous_views_without_copying(monkeypatch):
    seen = []
    hw = load_with_fake_wheel(monkeypatch, seen)
    payload = bytearray(b"0123456789" * 100)
    view = memoryview(payload)[10:510].toreadonly()
    assert hw.crc32c(view) == zlib.crc32(bytes(view))
    assert seen == [view] and seen[0] is view
    # A strided view is the one case the extension cannot take as is.
    strided = memoryview(payload)[::2]
    assert hw.crc32c(strided) == zlib.crc32(bytes(strided))
    assert type(seen[1]) is bytes


def test_views_and_bytes_checksum_alike():
    payload = bytes(range(256)) * 8
    assert checksum.crc32c(memoryview(payload)) == checksum.crc32c(payload)
    assert checksum.payload_crc(memoryview(payload)[:100], payload[100:]) == (
        checksum.crc32c(payload)
    )
