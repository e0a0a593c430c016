"""The in-region header codec and the validated-read checks as they stood
while both went through a decoded :class:`RefHeader`: the oracle
``test_header_differential.py`` holds ``repro.memory.layout.pack_header`` /
``unpack_header`` and ``RemoteBufferSource._validated_view`` to.

Frozen on purpose: it imports only constants and the checksum from
``src/``, so a change to the packer or the checker cannot move the oracle
with it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.common.checksum import crc32c
from repro.common.ids import ID_NBYTES
from repro.memory.layout import (
    FLAG_QUARANTINED,
    FLAG_SEALED,
    HEADER_MAGIC,
    HEADER_SIZE,
    HEADER_VERSION,
    MAX_METADATA_BYTES,
)

_PACK = struct.Struct("<4sHHQ20sQHHIII")  # bytes [0, 60); header crc follows


@dataclass
class RefHeader:
    object_id: bytes
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

    def pack(self) -> bytes:
        if len(self.object_id) != ID_NBYTES:
            raise ValueError(f"object id must be {ID_NBYTES} bytes")
        if not 0 <= self.meta_size <= MAX_METADATA_BYTES:
            raise ValueError(
                f"metadata of {self.meta_size} bytes exceeds the "
                f"{MAX_METADATA_BYTES}-byte header field"
            )
        body = _PACK.pack(
            HEADER_MAGIC,
            self.version,
            self.flags,
            self.generation,
            self.object_id,
            self.data_size,
            self.meta_size,
            0,
            self.payload_crc,
            self.meta_crc,
            self.sealed_at_s,
        )
        return body + struct.pack("<I", crc32c(body))

    @classmethod
    def unpack(cls, raw) -> "RefHeader | None":
        raw = bytes(raw[:HEADER_SIZE])
        if len(raw) < HEADER_SIZE or raw[:4] != HEADER_MAGIC:
            return None
        body, (stored_crc,) = raw[:60], struct.unpack("<I", raw[60:64])
        if crc32c(body) != stored_crc:
            return None
        (
            _magic,
            version,
            flags,
            generation,
            object_id,
            data_size,
            meta_size,
            _reserved,
            payload_crc,
            meta_crc,
            sealed_at_s,
        ) = _PACK.unpack(body)
        if version != HEADER_VERSION:
            return None
        return cls(
            object_id=object_id,
            generation=generation,
            data_size=data_size,
            meta_size=meta_size,
            flags=flags,
            payload_crc=payload_crc,
            meta_crc=meta_crc,
            sealed_at_s=sealed_at_s,
            version=version,
        )


def reference_verdict(
    pre: bytes,
    post: bytes,
    payload: bytes,
    *,
    object_id: bytes,
    generation: int,
    verify_checksum: bool,
) -> str:
    """What a validated full-payload fabric read answered when the header
    read ``pre`` before the stream and ``post`` after it:

    * ``"stale"``: untrusted header, other id, other generation or unsealed
      (``StaleDescriptorError`` before the stream);
    * ``"quarantined"`` (``ObjectCorruptedError`` before the stream);
    * ``"retired-mid-stream"`` (``StaleDescriptorError`` after it);
    * ``"crc-mismatch"`` (``ObjectCorruptedError`` from the payload CRC);
    * ``"trusted"``: the view is returned.
    """
    header = RefHeader.unpack(pre)
    if (
        header is None
        or header.object_id != object_id
        or (generation and header.generation != generation)
        or not header.sealed
    ):
        return "stale"
    if header.quarantined:
        return "quarantined"
    after = RefHeader.unpack(post)
    if after is None or after.generation != header.generation or not after.sealed:
        return "retired-mid-stream"
    if verify_checksum and len(payload) == header.data_size:
        if crc32c(payload) != header.payload_crc:
            return "crc-mismatch"
    return "trusted"
