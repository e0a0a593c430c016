"""Peer handles and remote-object book-keeping."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.ids import ObjectID
from repro.rpc.channel import ServiceStub
from repro.thymesisflow.aperture import RemoteRegion


@dataclass
class PeerHandle:
    """Everything a store needs to use one peer: the RPC stub for metadata
    and the mapped ThymesisFlow window for payload bytes."""

    name: str
    stub: ServiceStub
    remote_region: RemoteRegion


@dataclass
class RemoteObjectRecord:
    """A remote object this store's clients currently reference.

    ``local_refs`` counts handles held by *this node's* clients; when it
    drops to zero the record is dropped. The home never sees it: a held
    handle fails typed once the home retires the extent (header generation).
    """

    object_id: ObjectID
    home: str
    offset: int  # exposed-region offset of the *payload* bytes
    data_size: int
    metadata: bytes = b""
    local_refs: int = 0
    # Integrity fields carried by the descriptor: the home store's
    # generation for this incarnation of the object (0 = unknown: the home
    # runs without headers), the in-region header size (0 = home runs
    # without headers) and the seal-time payload checksum.
    generation: int = 0
    header_size: int = 0
    payload_crc: int = 0

    @classmethod
    def from_descriptor(cls, home: str, descriptor: dict) -> "RemoteObjectRecord":
        return cls(
            object_id=ObjectID(descriptor["object_id"]),
            home=home,
            offset=int(descriptor["offset"]),
            data_size=int(descriptor["data_size"]),
            metadata=bytes(descriptor.get("metadata", b"")),
            generation=int(descriptor.get("generation", 0)),
            header_size=int(descriptor.get("header_size", 0)),
            payload_crc=int(descriptor.get("payload_crc", 0)),
        )
