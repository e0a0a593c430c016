"""Live migration of sealed objects between disaggregated stores.

The move is a two-phase *pull* driven from the source side:

1. ``MigratePrepare`` — the destination allocates a fresh extent (new,
   higher integrity-header generation; header written *unsealed*) and pulls
   the payload zero-copy over the ThymesisFlow fabric from the source's
   exposed region — bulk bytes never touch the LAN, exactly like
   replication.
2. ``MigrateCommit`` — the destination seals: the payload CRC is computed,
   the seal flag flips in-region, and the descriptor becomes visible to
   Lookup atomically (under the destination's table mutex).

Only after a successful commit does the source retire its copy through the
existing retire-before-free path: the in-region generation is bumped and
the seal flag cleared *before* the extent returns to the allocator, so an
in-flight remote reader holding the old descriptor observes a typed
``StaleDescriptorError``, re-looks-up once, and lands on the new home. A
source copy still referenced by readers is left in place and retired later
(``flush_deferred_retires``) — migration never yanks bytes out from under
a reader.

Crash safety falls out of the phase split: if the destination dies between
prepare and commit, the commit fails UNAVAILABLE, the source keeps its copy
(still the published one), and the destination's half-copied extent has an
*unsealed* header — restart recovery reclaims it as free space and the
scrubber finds no orphan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import RpcStatusError
from repro.common.ids import ObjectID
from repro.obs.metrics import CounterGroup
from repro.rpc.overload import DeadlineBudget
from repro.rpc.status import StatusCode


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of one attempted object move."""

    object_id: ObjectID
    source: str
    dest: str
    status: str  # 'migrated' | 'already_placed' | 'aborted'
    bytes_moved: int = 0
    # False when the source copy is pinned by in-flight readers and its
    # retirement was deferred to a later rebalancer tick.
    source_retired: bool = True
    detail: str = ""

    @property
    def moved(self) -> bool:
        return self.status in ("migrated", "already_placed")


class MigrationEngine:
    """Source-driven executor of the prepare/commit protocol."""

    def __init__(self, clock, *, spans=None):
        self._clock = clock
        self.spans = spans
        self.counters = CounterGroup()
        self._m_latency = None
        self._m_bytes = None

    def attach_metrics(self, registry) -> None:
        registry.register_group(self.counters, "placement")
        self._m_latency = registry.histogram(
            "placement_migration_latency_ns",
            "Simulated wall time of one object migration "
            "(prepare + fabric pull + commit + source retire).",
        ).labels()
        self._m_bytes = registry.histogram(
            "placement_migration_bytes",
            "Payload size of each completed migration.",
        ).labels()

    def migrate(
        self,
        source_store,
        dest_name: str,
        object_id: ObjectID,
        *,
        reason: str = "rebalance",
    ) -> MigrationResult:
        """Move *object_id* from *source_store* to peer *dest_name*.

        Never raises for the expected failure modes (object vanished,
        destination unreachable mid-protocol) — those come back as an
        ``aborted`` result so the rebalancer can retry on a later tick.
        Unexpected RPC statuses still raise. *reason* labels who asked
        (``rebalance``, or the tier engine's ``promote``/``demote``) in the
        span annotation and the per-reason counters.
        """
        if self.spans is not None:
            with self.spans.span(
                "migrate",
                "migrate",
                node=source_store.name,
                dest=dest_name,
                object_id=str(object_id),
                reason=reason,
            ) as sp:
                result = self._migrate_inner(source_store, dest_name, object_id)
                sp.annotate(status=result.status, bytes=result.bytes_moved)
                if result.moved:
                    self.counters.inc(f"migrations_{reason}")
                return result
        result = self._migrate_inner(source_store, dest_name, object_id)
        if result.moved:
            self.counters.inc(f"migrations_{reason}")
        return result

    def _migrate_inner(
        self, source_store, dest_name: str, object_id: ObjectID
    ) -> MigrationResult:
        start_ns = self._clock.now_ns
        source = source_store.name
        descriptor = source_store.migration_descriptor(object_id)
        if descriptor is None:
            # Deleted/evicted/quarantined since the plan was computed.
            self.counters.inc("migrations_aborted")
            return MigrationResult(
                object_id, source, dest_name, "aborted",
                detail="source copy no longer migratable",
            )
        stub = source_store.peer(dest_name).stub
        holders = [
            name
            for name in source_store.replica_locations(object_id)
            if name != dest_name
        ]
        # One deadline budget for the whole pull: the commit gets whatever
        # the prepare (which includes the fabric transfer) left over.
        budget = DeadlineBudget.for_stub(stub, self._clock)
        try:
            prepared = stub.MigratePrepare(
                {
                    "source": source,
                    "object_id": object_id.binary(),
                    "offset": descriptor["offset"],
                    "data_size": descriptor["data_size"],
                    "metadata": descriptor["metadata"],
                    "holders": holders,
                },
                **budget.kwargs(),
            )
            state = prepared.get("state", "prepared")
            if state != "sealed":
                stub.MigrateCommit(
                    {"object_id": object_id.binary()}, **budget.kwargs()
                )
        except RpcStatusError as exc:
            if exc.code in (
                StatusCode.UNAVAILABLE,
                StatusCode.DEADLINE_EXCEEDED,
                StatusCode.RESOURCE_EXHAUSTED,
            ):
                # Destination died, partitioned, or shed us under overload
                # mid-protocol. The source copy stays published; a
                # half-pulled destination extent is unsealed and will be
                # reclaimed by restart recovery.
                self.counters.inc("migrations_aborted")
                return MigrationResult(
                    object_id, source, dest_name, "aborted", detail=str(exc)
                )
            raise
        retired = source_store.retire_migrated(object_id)
        if not retired:
            self.counters.inc("migration_retires_deferred")
        size = int(descriptor["data_size"])
        if state == "sealed":
            # The destination already held a sealed copy (re-driven after a
            # source crash, or it was a replica holder that got promoted):
            # nothing crossed the fabric, but the object is now home.
            self.counters.inc("migrations_already_placed")
            status = "already_placed"
            moved = 0
        else:
            self.counters.inc("migrations_completed")
            self.counters.inc("migration_bytes_moved", size)
            status = "migrated"
            moved = size
            if self._m_bytes is not None:
                self._m_bytes.observe(size)
        if self._m_latency is not None:
            self._m_latency.observe(self._clock.now_ns - start_ns)
        return MigrationResult(
            object_id, source, dest_name, status,
            bytes_moved=moved, source_retired=retired,
        )
