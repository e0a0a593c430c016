"""Object identifiers.

Apache Arrow Plasma identifies objects with opaque 20-byte ids; clients
usually draw them at random (``ObjectID.from_random``) or derive them from a
content hash. The distributed framework additionally requires ids to be
unique *across all connected stores* (paper §IV-A2), which the store layer
enforces with RPC ``Contains`` checks at creation time — the id type itself
stays a dumb value object.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from repro.common.rng import DeterministicRng

ID_NBYTES = 20


class ObjectID:
    """An immutable, hashable 20-byte object identifier.

    Instances compare by value and order lexicographically by their raw
    bytes, which lets the stores keep ordered id maps.
    """

    __slots__ = ("_data",)

    def __init__(self, data: bytes):
        if type(data) is not bytes:  # ids decoded off the wire already are
            if not isinstance(data, (bytes, bytearray, memoryview)):
                raise TypeError(f"ObjectID requires bytes, got {type(data).__name__}")
            data = bytes(data)
        if len(data) != ID_NBYTES:
            raise ValueError(
                f"ObjectID requires exactly {ID_NBYTES} bytes, got {len(data)}"
            )
        self._data = data

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_random(cls, rng: DeterministicRng) -> "ObjectID":
        """Draw a fresh id from *rng* (deterministic under a fixed seed)."""
        return cls(rng.bytes(ID_NBYTES))

    @classmethod
    def from_name(cls, name: str) -> "ObjectID":
        """Derive an id from a human-readable name (SHA-1, like Plasma docs
        suggest for content-addressed ids)."""
        return cls(hashlib.sha1(name.encode("utf-8")).digest())

    @classmethod
    def from_int(cls, value: int) -> "ObjectID":
        """Build an id from a non-negative integer (useful in tests and
        generated workloads)."""
        if value < 0:
            raise ValueError("ObjectID integers must be non-negative")
        return cls(value.to_bytes(ID_NBYTES, "big"))

    # -- accessors -----------------------------------------------------------

    def binary(self) -> bytes:
        """The raw 20 bytes."""
        return self._data

    def hex(self) -> str:
        """Lower-case hex rendering (40 chars)."""
        return self._data.hex()

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObjectID):
            return self._data == other._data
        return NotImplemented

    def __lt__(self, other: "ObjectID") -> bool:
        if isinstance(other, ObjectID):
            return self._data < other._data
        return NotImplemented

    def __le__(self, other: "ObjectID") -> bool:
        if isinstance(other, ObjectID):
            return self._data <= other._data
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"ObjectID({self._data.hex()[:12]}…)"

    def __bytes__(self) -> bytes:
        return self._data


class UniqueIDGenerator:
    """Yields ids guaranteed unique within this generator.

    Random 20-byte ids collide with negligible probability, but benchmark
    workloads want *certainty* plus determinism, so this generator tracks
    what it has handed out and redraws on (astronomically unlikely) repeats.
    """

    def __init__(self, rng: DeterministicRng):
        self._rng = rng
        self._seen: set[ObjectID] = set()

    def next(self) -> ObjectID:
        while True:
            oid = ObjectID.from_random(self._rng)
            if oid not in self._seen:
                self._seen.add(oid)
                return oid

    def take(self, n: int) -> list[ObjectID]:
        """Generate *n* fresh ids."""
        return [self.next() for _ in range(n)]

    def __iter__(self) -> Iterator[ObjectID]:
        while True:
            yield self.next()
