"""The paper's contribution: the memory-disaggregated Plasma framework.

Plasma stores on different nodes are interconnected (Fig 5): each store
allocates its objects inside its node's *exposed* ThymesisFlow region, peers
exchange object metadata over gRPC-style RPC, and a client request for a
remote object is satisfied by (1) an RPC lookup returning the object's
offset/size in the home store's exposed region, then (2) a direct
ThymesisFlow read of the payload — no bulk data ever crosses the LAN.

Public surface:

* :class:`Cluster` — stands up N nodes (fabric, stores, RPC mesh) from one
  :class:`~repro.common.config.ClusterConfig`; the entry point applications
  use.
* :class:`DisaggregatedStore` / :class:`DisaggregatedClient` — the store
  and client; clients are oblivious to object placement ("the distributed
  nature can largely remain hidden to Plasma clients").
* :class:`StoreService` — the RPC service (Lookup/Contains/AddRef/
  ReleaseRef/NotifyDeleted) stores expose to peers.
* Extensions the paper lists as future work, all implemented and
  benchmarked: :class:`LookupCache` (repeated-request caching),
  distributed reference sharing (eviction safety for remote readers),
  multi-node (>2) operation, and :class:`DisaggregatedHashMap` (the
  "shared data structure in disaggregated memory" sharing alternative,
  which replaces only lookups: every peer link stays one
  :class:`~repro.rpc.channel.Channel`).
* Resilience layer (:mod:`repro.core.health`): heartbeat failure
  detection (:class:`HealthMonitor`), per-peer :class:`CircuitBreaker`
  gating every channel, RPC deadlines and exponential-backoff retries,
  plus opt-in object replication for failover reads — pair with
  :mod:`repro.chaos` fault plans to measure degraded-mode behaviour.
"""

from repro.core.service import StoreService
from repro.core.remote import PeerHandle, RemoteObjectRecord
from repro.core.lookup_cache import LookupCache
from repro.core.health import BreakerState, CircuitBreaker, HealthMonitor
from repro.core.store import DisaggregatedStore
from repro.core.client import DisaggregatedClient
from repro.core.cluster import Cluster, ClusterNode
from repro.core.sharing import DisaggregatedHashMap

__all__ = [
    "StoreService",
    "PeerHandle",
    "RemoteObjectRecord",
    "LookupCache",
    "BreakerState",
    "CircuitBreaker",
    "HealthMonitor",
    "DisaggregatedStore",
    "DisaggregatedClient",
    "Cluster",
    "ClusterNode",
    "DisaggregatedHashMap",
]
