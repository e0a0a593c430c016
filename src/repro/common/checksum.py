"""Payload checksums for in-region object headers.

The integrity design calls for CRC32C (Castagnoli — the polynomial storage
systems standardised on because commodity CPUs accelerate it). The
simulation computes the IEEE CRC-32 of :func:`zlib.crc32` under the CRC32C
calling convention instead: both are 32-bit CRCs with identical
burst-error detection strength, and the choice never crosses the wire —
checksums are always computed and verified by this one implementation, so
every header carries the same bytes on every host.

Checksum *time* is a store-config knob (``checksum_ns_per_byte``), charged
to the simulated clock by callers; computing the real CRC here is untimed
C-speed work, like every other byte movement in the simulation.
"""

from __future__ import annotations

import zlib


def crc32c(data, value: int = 0) -> int:
    """CRC-32 (zlib, IEEE polynomial) of *data*, seeded with *value*, with
    the CRC32C calling convention; see the module docstring for why this
    is sound here. Any contiguous buffer is checksummed in place."""
    return zlib.crc32(data, value) & 0xFFFFFFFF
