"""Per-node tiering state: one agent per store.

The agent owns everything tiering keeps on a node — the hot-object byte
cache, the two heat trackers (remote reads feed promotion, local reads
protect against demotion), and the local-DRAM cost model a cache hit is
charged with. The store branches on ``self._tier is None`` so a cluster
built without tiering pays nothing, not even an attribute lookup per read.
"""

from __future__ import annotations

from repro.common.clock import SimClock
from repro.common.ids import ObjectID
from repro.common.rng import DeterministicRng
from repro.network.model import TransferModel
from repro.tier.cache import HotObjectCache
from repro.tier.heat import HeatTracker


class TierAgent:
    """One node's view of the tiering plane."""

    def __init__(
        self, node: str, config, local_memory, clock: SimClock, rng: DeterministicRng
    ):
        self.node = node
        self.config = config
        self.cache: HotObjectCache | None = None
        if config.cache_capacity_bytes > 0:
            self.cache = HotObjectCache(
                config.cache_capacity_bytes, seed=rng.spawn("sketch").seed
            )
        self.remote_heat = HeatTracker(
            clock, half_life_ns=config.heat_half_life_ns, rng=rng.spawn("remote-heat")
        )
        self.local_heat = HeatTracker(
            clock, half_life_ns=config.heat_half_life_ns, rng=rng.spawn("local-heat")
        )
        # A cache hit is a local DRAM copy: the endpoint's local-read
        # constants, with its own jitter stream so enabling the cache never
        # perturbs fabric or endpoint draws.
        self.hit_cost = TransferModel(
            local_memory.access_latency_ns,
            local_memory.read_bandwidth_bps,
            local_memory.jitter_sigma,
            rng.spawn("hit-jitter"),
        )

    # -- access notifications (store data path) ----------------------------------

    def note_local_get(self, object_id: ObjectID) -> None:
        self.local_heat.record(object_id)

    def note_remote_get(self, object_id: ObjectID) -> None:
        self.remote_heat.record(object_id)
        if self.cache is not None:
            self.cache.record_access(object_id)

    # -- lifecycle ----------------------------------------------------------------

    def on_promoted_home(self, object_id: ObjectID) -> None:
        """The object now lives on this node; its remote heat is history
        (local accesses keep it warm from here on)."""
        self.remote_heat.forget(object_id)

    def reset(self) -> None:
        """Restart recovery: the store process died, and the cache and heat
        state died with it (they are process DRAM, not exposed memory)."""
        if self.cache is not None:
            self.cache.clear()
        self.remote_heat.clear()
        self.local_heat.clear()

    def stats(self) -> dict:
        """Deterministic snapshot for BENCH artifacts."""
        out = {
            "node": self.node,
            "remote_tracked": len(self.remote_heat),
            "local_tracked": len(self.local_heat),
        }
        if self.cache is not None:
            out["cache"] = {
                "capacity_bytes": self.cache.capacity_bytes,
                "used_bytes": self.cache.used_bytes,
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
                "admissions": self.cache.admissions,
                "rejections": self.cache.rejections,
                "evictions": self.cache.evictions,
                "invalidations": self.cache.invalidations,
                "bytes_avoided": self.cache.bytes_avoided,
            }
        return out
