"""Anti-entropy scrubber: background integrity sweeps over a store.

Checksums catch corruption *when somebody reads*; objects nobody touches
can rot silently until the day a failover read needs them. The scrubber
closes that window: it walks the store's sealed objects in deterministic
(sorted-id) order, re-verifies every in-region header and payload checksum
against the seal-time values, and acts on what it finds —

* **corrupt object, intact replica** — quarantine, pull the good bytes
  from a replica holder over the ThymesisFlow fabric, repair in place,
  lift the quarantine;
* **corrupt object, no intact replica** — quarantine and leave it: reads
  answer :class:`~repro.common.errors.ObjectCorruptedError` (typed data
  loss) instead of returning garbage;
* **healthy but under-replicated** — push copies until the replication
  target is met again (the anti-entropy half: crashes and skipped
  replications erode the factor; the scrubber restores it).

A scrub is a pure function of the store's state, so same-state scrubs
produce identical :class:`ScrubReport`\\ s — chaos experiments replay them
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.checksum import crc32c
from repro.common.errors import ObjectStoreError, RpcStatusError


@dataclass(frozen=True)
class ScrubReport:
    """What one scrub pass saw and did."""

    scanned: int = 0
    ok: int = 0
    corrupted: int = 0
    repaired: int = 0
    quarantined: int = 0
    re_replicated: int = 0
    details: tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [
            f"scanned={self.scanned} ok={self.ok} corrupted={self.corrupted} "
            f"repaired={self.repaired} quarantined={self.quarantined} "
            f"re_replicated={self.re_replicated}"
        ]
        lines.extend(f"  {line}" for line in self.details)
        return "\n".join(lines)


class Scrubber:
    """One store's scrub engine; :meth:`run` performs a full pass.

    ``replication_target`` is the number of replica copies each healthy
    home object should have; 0 (the default) disables the re-replication
    half and the scrubber only detects/repairs.
    """

    def __init__(self, store, *, replication_target: int = 0):
        if replication_target < 0:
            raise ValueError("replication_target must be non-negative")
        if not store.header_size:
            raise ObjectStoreError(
                "scrubbing requires integrity_headers: without in-region "
                "headers and seal-time checksums there is nothing to verify"
            )
        self._store = store
        self._replication_target = replication_target

    def run(self) -> ScrubReport:
        store = self._store
        with store.table.lock:
            entries = sorted(
                (entry for entry in store.table if entry.is_sealed),
                key=lambda entry: entry.object_id.binary(),
            )
        scanned = ok = corrupted = repaired = quarantined = re_replicated = 0
        details: list[str] = []
        for entry in entries:
            oid = entry.object_id
            scanned += 1
            reason = None if entry.quarantined else store.verify_object(entry)
            if reason is None and not entry.quarantined:
                ok += 1
                re_replicated += self._top_up_replicas(oid, details)
                continue
            corrupted += 1
            if not entry.quarantined:
                store.quarantine_object(oid)
            details.append(f"{oid!r}: {reason or 'already quarantined'}")
            payload = self._fetch_good_copy(entry)
            if payload is None:
                quarantined += 1
                details.append(f"{oid!r}: no intact replica; left quarantined")
                continue
            store.repair_object(oid, payload)
            repaired += 1
            details.append(f"{oid!r}: repaired from replica")
            re_replicated += self._top_up_replicas(oid, details)
        store.counters.scrub_passes += 1
        store.counters.scrub_scanned += scanned
        store.counters.scrub_corrupted += corrupted
        store.counters.scrub_repaired += repaired
        store.counters.scrub_quarantined += quarantined
        store.counters.scrub_re_replicated += re_replicated
        return ScrubReport(
            scanned=scanned,
            ok=ok,
            corrupted=corrupted,
            repaired=repaired,
            quarantined=quarantined,
            re_replicated=re_replicated,
            details=tuple(details),
        )

    # -- replica cross-check -----------------------------------------------------

    def _known_holders(self, oid) -> tuple[str, ...]:
        """Peers holding copies of our *oid*, cross-checked against reality.

        The home store's replica map is process state: a crash-and-recover
        wipes it while the replicas survive on their holders. When the map
        says nothing, probe every peer with a Lookup and write the
        rediscovered holders back, so repair has sources and re-replication
        never double-places."""
        store = self._store
        recorded = tuple(getattr(store, "replica_locations", lambda _: ())(oid))
        if recorded:
            return recorded
        peers = getattr(store, "peers", lambda: ())()
        actual: list[str] = []
        for name in peers:
            try:
                response = store.peer(name).stub.Lookup(
                    {"object_ids": [oid.binary()]}
                )
            except RpcStatusError:
                continue  # unreachable peer; its copy may resurface later
            if response.get("found", []):
                actual.append(name)
        if actual:
            store.record_replicas(oid, actual)
            store.counters.scrub_replicas_rediscovered += len(actual)
        return tuple(actual)

    # -- repair sourcing ---------------------------------------------------------

    def _fetch_good_copy(self, entry) -> bytes | None:
        """Known-good payload bytes for *entry*, pulled over the fabric from
        a replica holder (or, for a replica, its home store). The seal-time
        CRC arbitrates: a candidate copy that does not match is itself
        corrupt and is skipped."""
        store = self._store
        oid = entry.object_id
        home = getattr(store, "_replicas_of", {}).get(oid)
        # A corrupt *replica* repairs from its home store; a corrupt *home*
        # object repairs from whichever peers hold its replicas.
        sources = [home] if home is not None else list(self._known_holders(oid))
        for name in sources:
            try:
                handle = store.peer(name)
            except ObjectStoreError:
                continue
            try:
                response = handle.stub.Lookup({"object_ids": [oid.binary()]})
            except RpcStatusError:
                continue  # holder unreachable; try the next one
            found = response.get("found", [])
            if not found:
                continue
            descriptor = found[0]
            if int(descriptor.get("data_size", -1)) != entry.data_size:
                continue
            offset = int(descriptor["offset"])
            payload = bytes(handle.remote_region.view(offset, entry.data_size))
            handle.remote_region.charge_read(
                entry.data_size + int(descriptor.get("header_size", 0))
            )
            if crc32c(payload) != entry.payload_crc:
                store.counters.scrub_replica_mismatches += 1
                continue
            return payload
        return None

    # -- replication-factor restoration ------------------------------------------

    def _top_up_replicas(self, oid, details: list[str]) -> int:
        store = self._store
        target = self._replication_target
        if target <= 0:
            return 0
        if getattr(store, "is_replica", lambda _: False)(oid):
            return 0  # the home store owns the replication factor
        made = 0
        while len(self._known_holders(oid)) < target:
            try:
                holder = store.replicate_object(oid)
            except ObjectStoreError:
                break  # no candidate peer left
            if holder is None:
                break  # chosen peer unavailable; degrade, retry next pass
            details.append(f"{oid!r}: re-replicated to {holder}")
            made += 1
        return made
