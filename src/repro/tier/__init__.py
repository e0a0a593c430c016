"""Tiered memory: per-node hot-object caching + local/far promotion.

The fabric makes every remote byte ~11.5 % slower and every first touch
~1.1 µs away; ``repro.tier`` closes that gap the way production
memory-disaggregation stacks do (Maruf & Chowdhury, "Memory Disaggregation:
Advances and Open Challenges"):

* :class:`HotObjectCache` — a bounded per-node DRAM byte cache in front of
  fabric reads, admission-filtered by a TinyLFU-style frequency sketch and
  kept coherent by (object id, generation) keying plus the store's existing
  NotifyDeleted / topology-epoch invalidation channels.
* :class:`TierEngine` — a sim-clock, byte-budgeted promotion/demotion
  engine (the Rebalancer's discrete-event idiom) that migrates hot remote
  objects to their readers and cold sealed objects to capacity-rich nodes,
  reusing the two-phase pull-migration machinery.

Everything is seeded and deterministic; with tiering disabled no code on
any hot path changes behaviour (the store branches on a ``None`` agent).
"""

from repro.tier.agent import TierAgent
from repro.tier.cache import FrequencySketch, HotObjectCache
from repro.tier.engine import TierEngine, TierTickReport
from repro.tier.heat import HeatTracker
from repro.tier.source import CachedBufferSource, TierBufferSource

__all__ = [
    "CachedBufferSource",
    "FrequencySketch",
    "HeatTracker",
    "HotObjectCache",
    "TierAgent",
    "TierBufferSource",
    "TierEngine",
    "TierTickReport",
]
