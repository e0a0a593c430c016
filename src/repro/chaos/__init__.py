"""Deterministic fault injection for the disaggregated cluster.

Survey work on memory disaggregation names failure resilience of remote
memory as the top open problem for production deployments; the paper's own
prototype assumes both nodes stay up. This package supplies the missing
failure *model*: a :class:`FaultPlan` schedules node crashes, link
partitions, link degradation and RPC blackhole windows against the
cluster's simulated clock, and a :class:`ChaosRuntime` applies them to the
live components (RPC servers, OpenCAPI links, the LAN) as simulated time
passes.

Everything is driven by the same seed discipline as the rest of the
framework, so a chaos run — fault timeline, per-call outcomes, counters —
is exactly reproducible. Pair with :mod:`repro.core.health` (failure
detection, deadlines, circuit breakers) and the store's replication mode to
measure *degraded-mode* behaviour, not just steady state::

    from repro import Cluster
    from repro.chaos import FaultPlan, NodeCrash

    plan = FaultPlan([NodeCrash(at_ns=50_000_000, node="node1")])
    cluster = Cluster(fault_plan=plan)
    # ... run a workload; node1's store dies 50 simulated ms in.
"""

from repro.chaos.plan import (
    BitFlip,
    FaultEvent,
    FaultPlan,
    LinkDegrade,
    LinkHeal,
    LinkPartition,
    LinkRestore,
    NodeCrash,
    NodeRestart,
    OverloadBurst,
    RpcBlackhole,
)
from repro.chaos.runtime import ChaosRuntime

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "NodeCrash",
    "NodeRestart",
    "LinkPartition",
    "LinkHeal",
    "LinkDegrade",
    "LinkRestore",
    "RpcBlackhole",
    "BitFlip",
    "OverloadBurst",
    "ChaosRuntime",
]
