"""Sequential reference model (oracle) for the simulated cluster.

The model tracks, per object, only what a correct store *must* agree
with regardless of schedule:

* ``LIVE`` — a put completed; the object must be readable with exactly
  the generated payload wherever a read succeeds, and after convergence
  it must be readable from its ring home.
* ``MAYBE`` — a put raised, or capacity pressure evicted the primary
  extent; the object may or may not exist, but if any bytes are ever
  returned they must match the generated payload.
* ``DELETED_CLEAN`` — a delete completed while the cluster was quiet
  (no crashed nodes, no active faults, holder breakers closed, and no
  crash had previously wiped replica bookkeeping for the object). The
  object must never be readable again.
* ``DELETED_DIRTY`` — a delete completed but some fault may have left a
  stray replica whose tombstone could not be delivered. Reads may fail
  or may return the payload, but never wrong bytes.

Payloads are a pure function of ``(obj, size)`` so the oracle never
stores data and traces stay self-contained.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.rng import DeterministicRng, derive_seed

#: Fixed payload namespace — independent of the workload seed so that a
#: trace replayed from a corpus file regenerates identical bytes.
_PAYLOAD_NAMESPACE = 0x51517E57


class ObjState(enum.Enum):
    LIVE = "live"
    MAYBE = "maybe"
    DELETED_CLEAN = "deleted_clean"
    DELETED_DIRTY = "deleted_dirty"


def payload_for(obj: int, size: int) -> bytes:
    """Deterministic payload for object number ``obj``."""

    rng = DeterministicRng(derive_seed(_PAYLOAD_NAMESPACE, "simtest-payload", str(obj)))
    return rng.bytes(size)


def metadata_for(obj: int) -> bytes:
    return f"simtest-obj-{obj}".encode("ascii")


@dataclass
class Model:
    """Oracle state, updated in program order as the harness executes ops."""

    states: dict[int, ObjState] = field(default_factory=dict)
    sizes: dict[int, int] = field(default_factory=dict)
    #: Objects whose replica/holder bookkeeping was wiped by a node crash;
    #: a later delete of these can legitimately leave stray copies behind.
    dirty_delete: set[int] = field(default_factory=set)
    #: Objects that held a replica on a node that crashed: after recovery the
    #: region scan resurrects the replica as an ordinary sealed extent, so the
    #: duplicate-primary invariant must give these objects amnesty.
    amnesty: set[int] = field(default_factory=set)

    def state(self, obj: int) -> ObjState | None:
        return self.states.get(obj)

    def size(self, obj: int) -> int:
        return self.sizes[obj]

    def record_put_ok(self, obj: int, size: int) -> None:
        self.states[obj] = ObjState.LIVE
        self.sizes[obj] = size

    def record_put_failed(self, obj: int, size: int) -> None:
        self.states[obj] = ObjState.MAYBE
        self.sizes[obj] = size

    def record_evicted(self, obj: int) -> None:
        self.states[obj] = ObjState.MAYBE

    def record_deleted(self, obj: int, *, clean: bool) -> None:
        self.states[obj] = ObjState.DELETED_CLEAN if clean else ObjState.DELETED_DIRTY

    def mark_crash_exposure(self, objs: set[int]) -> None:
        """A node holding extents for ``objs`` crashed: future deletes of
        these objects are dirty and duplicate primaries are excused."""

        self.dirty_delete |= objs
        self.amnesty |= objs

    def live_objects(self) -> list[int]:
        return sorted(o for o, s in self.states.items() if s is ObjState.LIVE)

    def objects(self) -> list[int]:
        return sorted(self.states)
