"""Payload checksums for in-region object headers.

The integrity design calls for CRC32C (Castagnoli — the polynomial storage
systems standardised on because commodity CPUs accelerate it). The
simulation uses the hardware-accelerated ``crc32c`` package when the host
has it and otherwise falls back to :func:`zlib.crc32` (IEEE polynomial):
both are 32-bit CRCs with identical burst-error detection strength, and the
choice never crosses the wire — checksums are always computed and verified
against the same node-local implementation, so the fallback changes no
behaviour, only the constant folded into each header.

Checksum *time* is a store-config knob (``checksum_ns_per_byte``), charged
to the simulated clock by callers; computing the real CRC here is untimed
C-speed work, like every other byte movement in the simulation.
"""

from __future__ import annotations

import zlib

try:  # pragma: no cover - exercised only where the wheel is installed
    from crc32c import crc32c as _crc32c_hw

    CRC_IMPL = "crc32c"

    def crc32c(data, value: int = 0) -> int:
        """CRC-32C (Castagnoli) of *data*, seeded with *value*. The
        extension takes any contiguous buffer, so views of object payloads
        are checksummed in place; only a strided view is copied first."""
        if isinstance(data, memoryview) and not data.c_contiguous:
            data = bytes(data)
        return _crc32c_hw(data, value)

except ImportError:  # the container's default path
    CRC_IMPL = "zlib-crc32"

    def crc32c(data, value: int = 0) -> int:
        """CRC-32 fallback (zlib, IEEE polynomial) with the CRC32C calling
        convention; see module docstring for why this is sound here."""
        return zlib.crc32(data, value) & 0xFFFFFFFF


def payload_crc(*chunks) -> int:
    """Checksum a sequence of buffers as one logical byte stream."""
    value = 0
    for chunk in chunks:
        if chunk:
            value = crc32c(chunk, value)
    return value
