"""The per-node hot-object byte cache.

A bounded slab of this node's own DRAM holding *payload copies* of remote
objects, so a repeat read of a hot key costs a local-memory copy instead of
a ThymesisFlow stream. Two mechanisms keep it honest:

* **Coherence by generation keying** — entries are keyed by
  ``(object id, generation)``, the same generation the in-region integrity
  header carries (PR 2). Any event that retires an incarnation — delete,
  eviction, migration, quarantine — bumps the generation, so a refreshed
  descriptor simply misses the cache. Explicit invalidation (NotifyDeleted
  pushes, topology-epoch installs, peer disconnects) reclaims the bytes
  eagerly; generation keying is the backstop that makes a *missed*
  invalidation a stale-miss rather than a stale-hit.
* **Admission by frequency** — a TinyLFU-style count-min sketch estimates
  each object's access frequency; under capacity pressure a candidate only
  displaces the LRU victim if the sketch says it is accessed more often.
  One-hit wonders never wash the hot set out of the cache.

All hashing is seeded and process-stable (crc32 over salted ids), so runs
are byte-reproducible.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict

from repro.common.ids import ObjectID
from repro.common.rng import derive_seed


class FrequencySketch:
    """A seeded count-min sketch with 4-bit saturating counters and
    periodic halving (the TinyLFU "reset" that ages history away).

    ``width`` buckets per row, ``depth`` independent rows; the estimate is
    the minimum over rows. Counters saturate at 15; once the total number
    of increments reaches ``10 * width`` every counter is halved, so the
    sketch tracks *recent* frequency, not all-time counts.
    """

    _SATURATION = 15

    def __init__(self, width: int, depth: int, seed: int = 0):
        if width <= 0 or depth <= 0:
            raise ValueError("sketch width and depth must be positive")
        self._width = int(width)
        self._rows = [bytearray(self._width) for _ in range(int(depth))]
        self._salts = [
            derive_seed(seed, f"sketch-row-{i}").to_bytes(8, "big")
            for i in range(int(depth))
        ]
        self._sample_size = 10 * self._width
        self._increments = 0

    def _index(self, key: bytes, row: int) -> int:
        return zlib.crc32(key + self._salts[row]) % self._width

    def increment(self, key: bytes) -> None:
        for row, counters in enumerate(self._rows):
            slot = self._index(key, row)
            if counters[slot] < self._SATURATION:
                counters[slot] += 1
        self._increments += 1
        if self._increments >= self._sample_size:
            self._age()

    def estimate(self, key: bytes) -> int:
        return min(
            counters[self._index(key, row)]
            for row, counters in enumerate(self._rows)
        )

    def _age(self) -> None:
        for counters in self._rows:
            for slot in range(self._width):
                counters[slot] >>= 1
        self._increments //= 2


class HotObjectCache:
    """Bounded byte cache of remote-object payloads, LRU-ordered with
    sketch-gated admission. Not thread-aware by design: each node's store
    serialises its own data path, exactly like the lookup cache."""

    def __init__(
        self,
        capacity_bytes: int,
        *,
        sketch_width: int = 512,
        sketch_depth: int = 4,
        seed: int = 0,
    ):
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self._capacity = int(capacity_bytes)
        self._sketch = FrequencySketch(sketch_width, sketch_depth, seed)
        # (oid bytes, generation) -> (payload bytes, home store name),
        # ordered least- to most-recently used.
        self._entries: OrderedDict[tuple[bytes, int], tuple[bytes, str]] = (
            OrderedDict()
        )
        self._by_oid: dict[bytes, set[int]] = {}
        self._used = 0
        # Counters surfaced through the metrics plane and BENCH artifacts.
        self.hits = 0
        self.misses = 0
        self.admissions = 0
        self.rejections = 0
        self.evictions = 0
        self.invalidations = 0
        self.bytes_avoided = 0
        # Debug hook for the simtest coherence oracle: the (oid, generation,
        # home) of the most recent hit, cleared by the harness after judging.
        self.last_served: tuple[ObjectID, int, str] | None = None

    # -- introspection -----------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, object_id: ObjectID, generation: int) -> bool:
        return (object_id.binary(), generation) in self._entries

    # -- the data path ------------------------------------------------------------

    def record_access(self, object_id: ObjectID) -> None:
        """Feed the admission sketch (called once per remote get, whether
        or not the read later hits)."""
        self._sketch.increment(object_id.binary())

    def lookup(self, object_id: ObjectID, generation: int) -> bytes | None:
        """The cached payload for this exact incarnation, or None. A hit
        refreshes LRU recency and is counted with the fabric bytes it
        avoided; a miss only counts."""
        key = (object_id.binary(), generation)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        payload, home = entry
        self.hits += 1
        self.bytes_avoided += len(payload)
        self.last_served = (object_id, generation, home)
        return payload

    def lookup_any(self, object_id: ObjectID) -> tuple[int, bytes, str] | None:
        """The newest cached incarnation of *object_id* regardless of
        generation: ``(generation, payload, home)`` or None.

        This is the pre-resolution fast path — serving it skips the home's
        AddRef/ReleaseRef round trips entirely, which is only sound while
        delete/evict invalidations are *pushed* to every peer that resolved
        the descriptor (the store gates the call on ``notify_deletions``). A hit counts and
        refreshes recency exactly like :meth:`lookup`; an absent id is NOT
        counted as a miss, because the caller falls through to the
        resolving path whose generation-keyed probe counts it there.
        """
        oid = object_id.binary()
        gens = self._by_oid.get(oid)
        if not gens:
            return None
        generation = max(gens)
        key = (oid, generation)
        payload, home = self._entries[key]
        self._entries.move_to_end(key)
        self.hits += 1
        self.bytes_avoided += len(payload)
        self.last_served = (object_id, generation, home)
        return generation, payload, home

    def offer(
        self, object_id: ObjectID, generation: int, payload, home: str
    ) -> bool:
        """Consider caching *payload* (a full validated fabric read — any
        bytes-like object, typically the read's zero-copy view of home
        memory). It is copied into an owned ``bytes`` only on admission, so
        a rejected offer moves no bytes and a cached entry never aliases
        memory its home can reuse.

        Admission: an oversized payload is refused outright; otherwise LRU
        victims are displaced only while the sketch estimates the candidate
        is accessed at least as often as the victim — else the candidate is
        rejected and the resident hot set survives.
        """
        key = (object_id.binary(), generation)
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        # A newer incarnation supersedes any cached older ones: they can
        # never be the max lookup_any serves again, and an exact-generation
        # probe always asks for the current descriptor's generation — so
        # they are dead bytes. Dropping them first also keeps them from
        # forcing innocent evictions in the victim contest below.
        gens = self._by_oid.get(key[0])
        if gens:
            for old in sorted(g for g in gens if g < generation):
                self._drop((key[0], old))
                self.invalidations += 1
        size = len(payload)
        if size > self._capacity:
            self.rejections += 1
            return False
        candidate_freq = self._sketch.estimate(key[0])
        while self._used + size > self._capacity:
            victim_key, (victim_payload, _) = next(iter(self._entries.items()))
            if candidate_freq < self._sketch.estimate(victim_key[0]):
                self.rejections += 1
                return False
            self._drop(victim_key)
            self.evictions += 1
        self._entries[key] = (bytes(payload), home)
        self._by_oid.setdefault(key[0], set()).add(generation)
        self._used += size
        self.admissions += 1
        return True

    # -- invalidation channels ----------------------------------------------------

    def _drop(self, key: tuple[bytes, int]) -> None:
        payload, _ = self._entries.pop(key)
        self._used -= len(payload)
        gens = self._by_oid.get(key[0])
        if gens is not None:
            gens.discard(key[1])
            if not gens:
                del self._by_oid[key[0]]

    def invalidate(self, object_id: ObjectID) -> int:
        """Drop every cached incarnation of *object_id* (NotifyDeleted
        push, or a read that proved the descriptor stale)."""
        oid = object_id.binary()
        gens = self._by_oid.get(oid)
        if not gens:
            return 0
        dropped = 0
        for generation in sorted(gens):
            self._drop((oid, generation))
            dropped += 1
        self.invalidations += dropped
        return dropped

    def invalidate_home(self, home: str) -> int:
        """Drop every entry whose payload came from *home* (the peer left
        the cluster; nothing it served can be trusted forward)."""
        stale = [key for key, (_, h) in self._entries.items() if h == home]
        for key in stale:
            self._drop(key)
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> int:
        """Full purge (topology-epoch install or local restart recovery)."""
        dropped = len(self._entries)
        self._entries.clear()
        self._by_oid.clear()
        self._used = 0
        self.invalidations += dropped
        return dropped
