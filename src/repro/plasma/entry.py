"""Object table entries and lifecycle states."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.allocator.base import Allocation
from repro.common.ids import ObjectID


class ObjectState(enum.Enum):
    """Plasma's object lifecycle.

    CREATED objects are writable by their creator only; SEALED objects are
    immutable and visible to every client ("Sealing an object prompts the
    store to make it immutable, such that race conditions cannot occur",
    paper §II-B).
    """

    CREATED = "created"
    SEALED = "sealed"


@dataclass
class ObjectEntry:
    """Book-keeping for one object resident in a store."""

    object_id: ObjectID
    allocation: Allocation
    data_size: int
    metadata: bytes = b""
    state: ObjectState = ObjectState.CREATED
    ref_count: int = 0
    created_at_ns: int = 0
    sealed_at_ns: int = 0
    last_access_seq: int = 0
    # Store-monotonic integrity generation, stamped into the in-region
    # header at creation and bumped there when the extent is retired. 0
    # means "no header" (integrity_headers disabled): readers then skip
    # generation validation.
    generation: int = 0
    # Offset of the in-region header relative to allocation.offset; the
    # payload starts at allocation.offset + header_size.
    header_size: int = 0
    # Payload CRC32C recorded at seal time (0 until sealed / when headers
    # are disabled).
    payload_crc: int = 0
    # Metadata CRC32C for the header, computed once at create (metadata is
    # immutable after create; 0 when there is none).
    meta_crc: int = 0
    # Set by the scrubber when the payload fails its checksum: every read
    # answers ObjectCorruptedError and lookups stop advertising the object.
    quarantined: bool = False

    @property
    def is_sealed(self) -> bool:
        return self.state is ObjectState.SEALED

    @property
    def evictable(self) -> bool:
        """Only sealed objects nobody references may be evicted — evicting
        an in-use object "would likely corrupt their data" (paper §IV-A2)."""
        return self.is_sealed and self.ref_count == 0

    @property
    def payload_offset(self) -> int:
        """Region-relative offset of the payload bytes (past the header)."""
        return self.allocation.offset + self.header_size

    def describe(self) -> dict:
        """A wire-friendly descriptor (used by RPC lookups).

        ``offset`` is the *payload* offset; fabric readers locate the
        in-region header at ``offset - header_size`` when validating.
        ``generation`` travels with the descriptor so a reader can detect
        that the extent was retired and reused since lookup.
        """
        return {
            "object_id": self.object_id.binary(),
            "offset": self.payload_offset,
            "data_size": self.data_size,
            "metadata": self.metadata,
            "sealed": self.is_sealed,
            "generation": self.generation,
            "header_size": self.header_size,
            "payload_crc": self.payload_crc,
        }
