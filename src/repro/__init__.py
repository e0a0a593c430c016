"""Memory-disaggregated in-memory object store framework.

A full reproduction of *"Memory-Disaggregated In-Memory Object Store
Framework for Big Data Applications"* (Abrahamse, Hadnagy, Al-Ars; IPDPS
workshops 2022): a distributed variant of the Apache Arrow Plasma object
store whose stores allocate objects in ThymesisFlow disaggregated memory,
share metadata over gRPC-style RPC, and let clients on any node consume any
object — remote payloads travel over the memory fabric, never the LAN.

Quickstart::

    from repro import Cluster

    cluster = Cluster()
    producer = cluster.client("node0")
    consumer = cluster.client("node1")

    oid = cluster.new_object_id()
    producer.put_bytes(oid, b"hello, disaggregated world")
    print(consumer.get_bytes(oid))   # read through ThymesisFlow

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.chaos import FaultPlan
from repro.common.config import (
    ChaosConfig,
    ClusterConfig,
    FabricLinkConfig,
    HealthConfig,
    IpcConfig,
    LanConfig,
    LocalMemoryConfig,
    PlacementConfig,
    RpcConfig,
    StoreConfig,
)
from repro.common.ids import ObjectID
from repro.common.errors import (
    IntegrityError,
    ObjectCorruptedError,
    ObjectExistsError,
    ObjectNotFoundError,
    ObjectStoreError,
    ObjectUnavailableError,
    OutOfMemoryError,
    PlacementError,
    ReproError,
    StaleDescriptorError,
)
from repro.placement import (
    HashRing,
    Membership,
    MigrationEngine,
    NodeStatus,
    Rebalancer,
    TopologyView,
)
from repro.obs import CorrelationContext, MetricsRegistry, Telemetry
from repro.core import Cluster, DisaggregatedClient, DisaggregatedStore
from repro.baseline import ScaleOutCluster
from repro.plasma import PlasmaBuffer, PlasmaClient, PlasmaStore
from repro.scrub import Scrubber, ScrubReport
from repro.columnar import get_array, get_table, put_array, put_table
from repro.dataset import DistributedDataset

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "DisaggregatedClient",
    "DisaggregatedStore",
    "ScaleOutCluster",
    "PlasmaBuffer",
    "PlasmaClient",
    "PlasmaStore",
    "ObjectID",
    "ClusterConfig",
    "StoreConfig",
    "LocalMemoryConfig",
    "FabricLinkConfig",
    "IpcConfig",
    "RpcConfig",
    "LanConfig",
    "HealthConfig",
    "ChaosConfig",
    "PlacementConfig",
    "FaultPlan",
    "MetricsRegistry",
    "Telemetry",
    "CorrelationContext",
    "ReproError",
    "ObjectStoreError",
    "ObjectExistsError",
    "ObjectNotFoundError",
    "ObjectUnavailableError",
    "OutOfMemoryError",
    "IntegrityError",
    "StaleDescriptorError",
    "ObjectCorruptedError",
    "PlacementError",
    "NodeStatus",
    "TopologyView",
    "Membership",
    "HashRing",
    "MigrationEngine",
    "Rebalancer",
    "Scrubber",
    "ScrubReport",
    "put_array",
    "get_array",
    "put_table",
    "get_table",
    "DistributedDataset",
    "__version__",
]
