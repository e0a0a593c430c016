"""A from-scratch reimplementation of the Apache Arrow Plasma object store.

Plasma (paper §II-B) is an in-memory store for immutable objects shared
between processes on one node: producers ``create`` an object, write its
payload, and ``seal`` it; the store makes sealed objects available to every
client as read-only buffers, tracks which objects are in use (reference
counts), and evicts unused sealed objects under memory pressure.

This package reproduces that model:

* :class:`PlasmaStore` — the store process: object table (mutex-guarded,
  as in paper §IV-A2), allocator over a memory region, LRU eviction that
  never touches in-use objects, seal notifications.
* :class:`PlasmaClient` — the client API over the modelled Unix-socket IPC:
  ``create``/``seal``/``get``/``release``/``delete``/``contains`` plus
  ``put_bytes``/``get_bytes`` conveniences.
* :class:`PlasmaBuffer` — the zero-copy, read-only (once sealed) buffer
  handle; reading it is the timed path Figure 7 measures.

The distributed, memory-disaggregated variant — the paper's contribution —
lives in :mod:`repro.core` and builds directly on these classes.
"""

from repro.plasma.entry import ObjectEntry, ObjectState
from repro.plasma.table import ObjectTable
from repro.plasma.buffer import PlasmaBuffer, LocalBufferSource, RemoteBufferSource
from repro.plasma.eviction import (
    EVICTION_POLICIES,
    EvictionDecision,
    EvictionPolicy,
    FifoEvictionPolicy,
    LargestFirstEvictionPolicy,
    LruEvictionPolicy,
    create_eviction_policy,
)
from repro.plasma.store import PlasmaStore
from repro.plasma.client import PlasmaClient
from repro.plasma.notifications import NotificationQueue, SealNotification

__all__ = [
    "ObjectEntry",
    "ObjectState",
    "ObjectTable",
    "PlasmaBuffer",
    "LocalBufferSource",
    "RemoteBufferSource",
    "LruEvictionPolicy",
    "FifoEvictionPolicy",
    "LargestFirstEvictionPolicy",
    "EvictionPolicy",
    "EvictionDecision",
    "EVICTION_POLICIES",
    "create_eviction_policy",
    "PlasmaStore",
    "PlasmaClient",
    "NotificationQueue",
    "SealNotification",
]
