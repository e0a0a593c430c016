"""Eviction policy.

Plasma evicts least-recently-used *sealed, unreferenced* objects when an
allocation cannot be satisfied. The paper leans on exactly this behaviour —
"In-use objects will not be evicted, because clients might still be reading
from memory and evicting the objects would likely corrupt their data"
(§IV-A2) — and identifies its distributed blind spot (remote clients' usage
is invisible), which the :mod:`repro.core.refshare` extension closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.ids import ObjectID
from repro.plasma.entry import ObjectEntry
from repro.plasma.table import ObjectTable


@dataclass(frozen=True)
class EvictionDecision:
    """Which objects to evict and how many bytes that frees."""

    victims: list[ObjectEntry] = field(default_factory=list)
    freed_bytes: int = 0

    @property
    def victim_ids(self) -> list[ObjectID]:
        return [v.object_id for v in self.victims]


class EvictionPolicy:
    """Base batch-eviction policy.

    ``batch_fraction`` mirrors Plasma's behaviour of freeing a chunk of
    capacity per round rather than the bare minimum, amortising the scan.
    Subclasses choose the victim *ordering*; the safety rule (only sealed,
    unreferenced objects) is enforced by the table's candidate listing and
    is not a policy decision.
    """

    name = "base"

    def __init__(self, capacity_bytes: int, batch_fraction: float = 0.2):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < batch_fraction <= 1.0:
            raise ValueError("batch_fraction must be in (0, 1]")
        self._capacity = capacity_bytes
        self._batch = batch_fraction

    def order(self, candidates: list[ObjectEntry]) -> list[ObjectEntry]:
        """Victim ordering — override per policy."""
        raise NotImplementedError

    def plan(self, table: ObjectTable, required_bytes: int) -> EvictionDecision:
        """Choose victims freeing at least *required_bytes* (or as close as
        the evictable set allows), rounded up to the batch size."""
        if required_bytes <= 0:
            raise ValueError("required_bytes must be positive")
        target = max(required_bytes, int(self._capacity * self._batch))
        victims: list[ObjectEntry] = []
        freed = 0
        for entry in self.order(table.eviction_candidates()):
            if freed >= target:
                break
            victims.append(entry)
            freed += entry.allocation.padded_size
        # If freed < required_bytes, not enough evictable bytes exist for
        # the request itself; report what is achievable and let the store
        # decide whether to fail the create.
        return EvictionDecision(victims=victims, freed_bytes=freed)


class LruEvictionPolicy(EvictionPolicy):
    """Least-recently-used first — Plasma's policy and the store default."""

    name = "lru"

    def order(self, candidates: list[ObjectEntry]) -> list[ObjectEntry]:
        # eviction_candidates() already yields LRU order.
        return candidates


class FifoEvictionPolicy(EvictionPolicy):
    """Oldest object first, regardless of access recency — cheaper
    book-keeping (no touch tracking needed), worse for hot working sets."""

    name = "fifo"

    def order(self, candidates: list[ObjectEntry]) -> list[ObjectEntry]:
        return sorted(candidates, key=lambda e: (e.created_at_ns, e.object_id))


class LargestFirstEvictionPolicy(EvictionPolicy):
    """Largest object first — frees the target in the fewest evictions,
    sacrificing big objects to keep many small ones resident."""

    name = "largest_first"

    def order(self, candidates: list[ObjectEntry]) -> list[ObjectEntry]:
        return sorted(
            candidates, key=lambda e: (-e.allocation.padded_size, e.object_id)
        )


EVICTION_POLICIES = {
    cls.name: cls
    for cls in (
        LruEvictionPolicy,
        FifoEvictionPolicy,
        LargestFirstEvictionPolicy,
    )
}


def create_eviction_policy(
    name: str, capacity_bytes: int, batch_fraction: float = 0.2
) -> EvictionPolicy:
    """Instantiate a policy by config name ('lru', 'fifo', 'largest_first')."""
    try:
        cls = EVICTION_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown eviction policy {name!r}; choose one of "
            f"{sorted(EVICTION_POLICIES)}"
        ) from None
    return cls(capacity_bytes, batch_fraction)
