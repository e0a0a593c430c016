"""The promotion/demotion engine between local and far tiers.

Replaces evict-to-delete as the answer to capacity pressure: instead of a
cold sealed object dying at its home, the tier engine *demotes* it — a
two-phase pull migration to a capacity-rich remote node — and *promotes*
hot remotely-read objects to the node doing the reading. Decisions come
from the per-node :class:`~repro.tier.heat.HeatTracker`s; execution reuses
the :class:`~repro.placement.migrate.MigrationEngine` unchanged, so every
tier move inherits migration's crash safety and reader-visible atomicity.

Like the Rebalancer, the engine runs as byte-budgeted discrete-event ticks
on the simulated clock. Tier-placed objects are recorded in a registry the
Rebalancer consults: a demoted object is *deliberately* away from its ring
home, and the two engines must not fight over it. Clearing the registry
(`clear_placements`) returns authority to the ring — the simtest harness
does exactly that before its final converge-and-sweep oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.ids import ObjectID
from repro.obs.metrics import CounterGroup
from repro.placement.membership import NodeStatus

# Demote cold objects from nodes above the watermark until they are back at
# the target utilisation; destinations must stay below the watermark after
# absorbing the object.
DEMOTE_WATERMARK = 0.85
DEMOTE_TARGET = 0.70


@dataclass(frozen=True)
class TierTickReport:
    """What one tier-engine tick did."""

    promoted_objects: int
    promoted_bytes: int
    demoted_objects: int
    demoted_bytes: int
    aborted: int
    retired: int


class TierEngine:
    """Heat-driven, byte-budgeted promotion/demotion over the cluster."""

    def __init__(self, cluster, engine, agents: dict, config):
        if config.bytes_per_tick <= 0:
            raise ValueError("bytes_per_tick must be positive")
        if config.tick_interval_ns < 0:
            raise ValueError("tick_interval_ns must be non-negative")
        self._cluster = cluster
        self._engine = engine
        self._agents = agents
        self._cfg = config
        self._bytes_per_tick = int(config.bytes_per_tick)
        self._tick_interval_ns = float(config.tick_interval_ns)
        # Objects the tier engine deliberately placed off their ring home
        # (demotions) or onto a reader (promotions): oid -> intended node.
        self._placed: dict[ObjectID, str] = {}
        self.counters = CounterGroup()

    # -- registry (the Rebalancer consults this) ---------------------------------

    def is_tier_placed(self, object_id: ObjectID) -> bool:
        return object_id in self._placed

    def clear_placements(self) -> int:
        """Hand every tier-placed object back to the ring (the rebalancer
        will re-home them on its next ticks)."""
        cleared = len(self._placed)
        self._placed.clear()
        return cleared

    # -- plan computation ---------------------------------------------------------

    def _view(self):
        return self._cluster.membership.view()

    def _active_names(self) -> list[str]:
        view = self._view()
        return [
            name
            for name in sorted(self._cluster.node_names())
            if name in view.names() and view.status(name) is NodeStatus.ACTIVE
        ]

    def _source_names(self) -> list[str]:
        view = self._view()
        return [
            name
            for name in sorted(self._cluster.node_names())
            if name in view.names()
            and view.status(name) in (NodeStatus.ACTIVE, NodeStatus.DRAINING)
        ]

    def _holder_of(self, object_id: ObjectID) -> tuple[str, int] | None:
        """``(node, data_size)`` of the sealed primary copy, or None."""
        for name in self._source_names():
            store = self._cluster.store(name)
            with store.table.lock:
                entry = store.table.lookup(object_id)
                if entry is None or not entry.is_sealed or entry.quarantined:
                    continue
                size = entry.data_size
            if store.is_replica(object_id):
                continue
            return name, size
        return None

    def _has_room(self, node: str, size: int) -> bool:
        store = self._cluster.store(node)
        limit = DEMOTE_WATERMARK * store.capacity_bytes
        return store.used_bytes + size <= limit

    def promotion_plan(self) -> list[tuple[str, ObjectID, int]]:
        """``(dest_node, object_id, size)`` for every remote object some
        node reads hotly enough to deserve a local copy, hottest first per
        node, nodes in name order."""
        plan: list[tuple[str, ObjectID, int]] = []
        for node in self._active_names():
            agent = self._agents[node]
            for oid, heat in agent.remote_heat.hottest():
                if heat < self._cfg.promote_min_heat:
                    break  # hottest() is sorted; the rest are colder
                holder = self._holder_of(oid)
                if holder is None or holder[0] == node:
                    continue
                if not self._has_room(node, holder[1]):
                    continue
                plan.append((node, oid, holder[1]))
        return plan

    def _demotion_dest(self, source: str, size: int) -> str | None:
        """The ACTIVE node with the most free capacity that can absorb
        *size* bytes without itself crossing the watermark."""
        best: tuple[int, str] | None = None
        for name in self._active_names():
            if name == source:
                continue
            store = self._cluster.store(name)
            free = store.capacity_bytes - store.used_bytes
            if free < size or not self._has_room(name, size):
                continue
            if best is None or (free, name) > (best[0], best[1]):
                # Larger free space wins; name breaks exact ties the same
                # way every run.
                best = (free, name)
        return best[1] if best is not None else None

    def demotion_plan(self) -> list[tuple[str, ObjectID, int]]:
        """``(holder, object_id, size)`` of the coldest sealed unreferenced
        primaries on every node above the demote watermark — enough of
        them to bring the node back to the target utilisation."""
        plan: list[tuple[str, ObjectID, int]] = []
        for node in self._active_names():
            store = self._cluster.store(node)
            cap = store.capacity_bytes
            if store.used_bytes <= DEMOTE_WATERMARK * cap:
                continue
            shed = store.used_bytes - int(DEMOTE_TARGET * cap)
            agent = self._agents[node]
            with store.table.lock:
                candidates = [
                    (entry.object_id, entry.data_size)
                    for entry in store.table
                    if entry.is_sealed
                    and not entry.quarantined
                    and entry.total_refs == 0
                ]
            candidates = [
                (oid, size)
                for oid, size in candidates
                if not store.is_replica(oid)
            ]
            candidates.sort(key=lambda c: (agent.local_heat.heat(c[0]), c[0]))
            taken = 0
            for oid, size in candidates:
                if taken >= shed:
                    break
                plan.append((node, oid, size))
                taken += size
        return plan

    # -- execution ---------------------------------------------------------------

    def _record_placement(self, object_id: ObjectID, dest: str) -> None:
        self._placed[object_id] = dest

    def promote(self, object_id: ObjectID, dest: str):
        """Single targeted promotion (the simtest ``promote`` op); returns
        the MigrationResult, or None when there is nothing to move."""
        holder = self._holder_of(object_id)
        if holder is None or holder[0] == dest:
            return None
        view = self._view()
        if dest not in view.names() or view.status(dest) is not NodeStatus.ACTIVE:
            return None
        result = self._engine.migrate(
            self._cluster.store(holder[0]), dest, object_id, reason="promote"
        )
        if result.moved:
            self._record_placement(object_id, dest)
            self._agents[dest].on_promoted_home(object_id)
            self.counters.inc("promotions")
            self.counters.inc("promotion_bytes", result.bytes_moved)
        else:
            self.counters.inc("tier_aborts")
        return result

    def demote(self, object_id: ObjectID):
        """Single targeted demotion to the most-free node (the simtest
        ``demote`` op); returns the MigrationResult or None."""
        holder = self._holder_of(object_id)
        if holder is None:
            return None
        dest = self._demotion_dest(holder[0], holder[1])
        if dest is None:
            return None
        result = self._engine.migrate(
            self._cluster.store(holder[0]), dest, object_id, reason="demote"
        )
        if result.moved:
            self._record_placement(object_id, dest)
            self.counters.inc("demotions")
            self.counters.inc("demotion_bytes", result.bytes_moved)
        else:
            self.counters.inc("tier_aborts")
        return result

    def _prune_placements(self) -> None:
        """Drop registry entries whose object no longer lives (as a
        primary) where the tier engine put it — deleted, re-migrated, or
        the node left the cluster. The ring regains authority over them."""
        nodes = set(self._cluster.node_names())
        for oid, dest in list(self._placed.items()):
            if dest not in nodes:
                del self._placed[oid]
                continue
            store = self._cluster.store(dest)
            with store.table.lock:
                entry = store.table.lookup(oid)
                gone = entry is None or not entry.is_sealed
            if gone or store.is_replica(oid):
                del self._placed[oid]

    def tick(self) -> TierTickReport:
        """One budgeted promotion+demotion round; advances the sim clock
        once. Promotions spend the byte budget first — serving hot readers
        beats making room."""
        retired = 0
        for name in self._source_names():
            retired += self._cluster.store(name).flush_deferred_retires()
        spent = 0
        promoted = promoted_bytes = demoted = demoted_bytes = aborted = 0
        for dest, oid, size in self.promotion_plan():
            if spent >= self._bytes_per_tick:
                break
            result = self.promote(oid, dest)
            if result is None:
                continue
            if result.moved:
                promoted += 1
                promoted_bytes += result.bytes_moved
                spent += size
            else:
                aborted += 1
        for holder, oid, size in self.demotion_plan():
            if spent >= self._bytes_per_tick:
                break
            result = self.demote(oid)
            if result is None:
                continue
            if result.moved:
                demoted += 1
                demoted_bytes += result.bytes_moved
                spent += size
            else:
                aborted += 1
        self._prune_placements()
        self.counters.inc("ticks")
        if self._tick_interval_ns:
            self._cluster.clock.advance(self._tick_interval_ns)
        return TierTickReport(
            promoted_objects=promoted,
            promoted_bytes=promoted_bytes,
            demoted_objects=demoted,
            demoted_bytes=demoted_bytes,
            aborted=aborted,
            retired=retired,
        )
