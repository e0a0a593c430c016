"""In-region sealed-object header layout.

Every object a store places in its (disaggregated, remotely readable)
region is prefixed with one fixed 64-byte header written into the region
itself — the alignment quantum of the paper's first-fit allocator, so
headers never change an extent's padding class. The extent layout is::

    [ header : 64 B ][ payload : data_size ][ metadata : meta_size ]
    ^ allocation.offset                                             ^ padded

Putting the header *in the region* (not in the store's process memory) is
what buys crash safety and remote validation at once:

* a fabric reader holding a descriptor can check magic, object id,
  generation and the seal flag *before* streaming the payload, and verify
  the payload checksum after — a delete/evict/realloc race surfaces as a
  typed error instead of silently reused bytes;
* a restarted store process can rebuild its object table and free list by
  scanning the region, because the region (exposed ThymesisFlow window)
  survives the process.

Wire format (little-endian, 64 bytes)::

    off  size  field
    0    4     magic            b"DOBJ"
    4    2     version          (currently 1)
    6    2     flags            bit0 SEALED, bit1 QUARANTINED
    8    8     generation       u64, store-monotonic; bumped on retire
    16   20    object id        the full 20-byte Plasma id
    36   8     data_size        u64 payload bytes
    44   2     meta_size        u16 metadata bytes (stored after payload)
    46   2     reserved         zero
    48   4     payload crc32c   checksum of the payload bytes
    52   4     metadata crc32c  checksum of the metadata bytes
    56   4     sealed_at_s      u32 coarse seal timestamp (whole sim secs)
    60   4     header crc32c    checksum of bytes [0, 60)

A header is only *trusted* (by recovery scans and validated reads) when its
magic, version and header CRC all check out — a payload byte pattern that
happens to contain the magic is rejected with probability 1 - 2^-32.

A store writes an object's header three times: unsealed at create, sealed
at seal (after the payload CRC), retired at delete/evict (fresh generation,
flags cleared) before the extent is freed. Each write is one
:func:`pack_header` and one region write; the metadata CRC it carries is
computed once, at create. A validated fabric read checks the bytes with
:func:`unpack_header` and builds nothing; the decoded :class:`ObjectHeader`
is for recovery, scrub and tests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.common.checksum import crc32c
from repro.common.ids import ID_NBYTES

HEADER_SIZE = 64
HEADER_MAGIC = b"DOBJ"
HEADER_VERSION = 1

FLAG_SEALED = 0x1
FLAG_QUARANTINED = 0x2

MAX_METADATA_BYTES = 0xFFFF

_HEADER = struct.Struct("<4sHHQ20sQHHIIII")  # all 64 bytes; header crc last
_BODY = struct.Struct("<4sHHQ20sQHHIII")  # bytes [0, 60), what the crc covers
_CRC = struct.Struct("<I")
assert _HEADER.size == HEADER_SIZE and _BODY.size == 60


def pack_header(
    object_id: bytes,
    generation: int,
    data_size: int,
    meta_size: int = 0,
    flags: int = 0,
    payload_crc: int = 0,
    meta_crc: int = 0,
    sealed_at_s: int = 0,
    version: int = HEADER_VERSION,
) -> bytes:
    """The 64 header bytes for these fields: the one packer."""
    if len(object_id) != ID_NBYTES:
        raise ValueError(f"object id must be {ID_NBYTES} bytes")
    if not 0 <= meta_size <= MAX_METADATA_BYTES:
        raise ValueError(
            f"metadata of {meta_size} bytes exceeds the "
            f"{MAX_METADATA_BYTES}-byte header field"
        )
    body = _BODY.pack(
        HEADER_MAGIC, version, flags, generation, object_id, data_size,
        meta_size, 0, payload_crc, meta_crc, sealed_at_s,
    )
    return body + _CRC.pack(crc32c(body))


def unpack_header(raw) -> tuple | None:
    """The one checker: ``(object_id, generation, data_size, meta_size,
    flags, payload_crc, meta_crc, sealed_at_s)`` read from the first 64
    bytes of *raw* (any buffer), or None if they are not a trustworthy
    header (short, wrong magic/version, or header-CRC mismatch)."""
    if len(raw) < HEADER_SIZE:
        return None
    (
        magic, version, flags, generation, object_id, data_size, meta_size,
        _reserved, payload_crc, meta_crc, sealed_at_s, stored_crc,
    ) = _HEADER.unpack_from(raw)
    if (
        magic != HEADER_MAGIC
        or version != HEADER_VERSION
        or crc32c(raw[:60]) != stored_crc
    ):
        return None
    return (
        object_id, generation, data_size, meta_size, flags, payload_crc,
        meta_crc, sealed_at_s,
    )


@dataclass
class ObjectHeader:
    """The decoded form of one in-region header (recovery, scrub, tests).
    The write and validated-read paths never build one: they go through
    :func:`pack_header` and :func:`unpack_header` directly."""

    object_id: bytes  # raw 20 bytes
    generation: int
    data_size: int
    meta_size: int = 0
    flags: int = 0
    payload_crc: int = 0
    meta_crc: int = 0
    sealed_at_s: int = 0
    version: int = HEADER_VERSION

    @property
    def sealed(self) -> bool:
        return bool(self.flags & FLAG_SEALED)

    @property
    def quarantined(self) -> bool:
        return bool(self.flags & FLAG_QUARANTINED)

    @property
    def extent_bytes(self) -> int:
        """Unpadded bytes the extent occupies (header + payload + meta)."""
        return HEADER_SIZE + self.data_size + self.meta_size

    @classmethod
    def unpack(cls, raw) -> "ObjectHeader | None":
        """Decode 64 header bytes; None if :func:`unpack_header` does not
        trust them."""
        fields = unpack_header(raw)
        return None if fields is None else cls(*fields)
