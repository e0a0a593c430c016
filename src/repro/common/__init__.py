"""Common substrate shared by every subsystem.

This package deliberately has no dependencies on the rest of :mod:`repro`:
it provides the primitives (object identifiers, simulated clock, errors,
configuration, RNG discipline and statistics) that the memory, fabric,
network, RPC and store layers are built from.
"""

from repro.common.clock import SimClock, Stopwatch, NS_PER_S, NS_PER_MS, NS_PER_US
from repro.common.errors import (
    ReproError,
    AllocationError,
    OutOfMemoryError,
    ObjectStoreError,
    ObjectExistsError,
    ObjectNotFoundError,
    ObjectNotSealedError,
    ObjectSealedError,
    ObjectInUseError,
    FabricError,
    ApertureError,
    NetworkError,
    ConnectionClosedError,
    RpcError,
    RpcStatusError,
)
from repro.common.ids import ObjectID, UniqueIDGenerator
from repro.common.rng import DeterministicRng, derive_seed
from repro.common.stats import Distribution
from repro.common.units import (
    KiB,
    MiB,
    GiB,
    KB,
    MB,
    GB,
    format_duration_ns,
    gib_per_s,
)

__all__ = [
    "SimClock",
    "Stopwatch",
    "NS_PER_S",
    "NS_PER_MS",
    "NS_PER_US",
    "ReproError",
    "AllocationError",
    "OutOfMemoryError",
    "ObjectStoreError",
    "ObjectExistsError",
    "ObjectNotFoundError",
    "ObjectNotSealedError",
    "ObjectSealedError",
    "ObjectInUseError",
    "FabricError",
    "ApertureError",
    "NetworkError",
    "ConnectionClosedError",
    "RpcError",
    "RpcStatusError",
    "ObjectID",
    "UniqueIDGenerator",
    "DeterministicRng",
    "derive_seed",
    "Distribution",
    "KiB",
    "MiB",
    "GiB",
    "KB",
    "MB",
    "GB",
    "format_duration_ns",
    "gib_per_s",
]
