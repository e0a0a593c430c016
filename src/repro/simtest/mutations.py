"""Known-bug mutations for harness self-checks.

A mutation is a reversible monkey-patch that plants a realistic bug in
the store. The self-check mode (``python -m repro simtest --self-check``)
runs the sweep with a mutation applied and asserts the harness catches
it and shrinks it — proving the oracle actually has teeth, not just
that the happy path is green.
"""

from __future__ import annotations

import contextlib
from typing import Iterator


@contextlib.contextmanager
def _skip_retire() -> Iterator[None]:
    """Plant the pre-PR2 bug: free an extent without retiring its header.

    The sealed header (generation + seal flag + CRC) is left intact in
    region memory, so a crash + region-scan recovery resurrects deleted
    objects — exactly what retire-before-free exists to prevent.
    """

    from repro.plasma.store import PlasmaStore

    original = PlasmaStore._retire_header

    def skip(self, entry):  # noqa: ANN001 - matches patched signature
        return None

    PlasmaStore._retire_header = skip
    try:
        yield
    finally:
        PlasmaStore._retire_header = original


@contextlib.contextmanager
def _skip_replica_retire() -> Iterator[None]:
    """Plant the replica variant: DropReplica frees without retiring."""

    from repro.core.store import DisaggregatedStore

    original = DisaggregatedStore.drop_replicas

    def drop_without_retire(self, object_ids):  # noqa: ANN001
        dropped = 0
        for oid in object_ids:
            if oid not in self._replicas_of:
                continue
            with self.table.lock:
                entry = self.table.lookup(oid)
                if entry is None:
                    del self._replicas_of[oid]
                    continue
                if entry.total_refs > 0:
                    continue
                self.table.remove(oid)
                self._allocator.free(entry.allocation.offset)
            del self._replicas_of[oid]
            self._notify(oid, entry.data_size, deleted=True)
            self.counters.replicas_dropped += 1
            dropped += 1
        return dropped

    DisaggregatedStore.drop_replicas = drop_without_retire
    try:
        yield
    finally:
        DisaggregatedStore.drop_replicas = original


@contextlib.contextmanager
def _skip_alias_copy_out() -> Iterator[None]:
    """Plant the aliasing hot-cache bug: home memory changes without first
    copying out the cache entries that still view it.

    A reader that missed a delete's invalidation then serves whatever a
    later put wrote into the reused extent instead of the bytes it
    admitted.
    """

    from repro.memory.host import HostMemory

    original = HostMemory.copy_out

    def skip(self, offset, size):  # noqa: ANN001 - matches patched signature
        return None

    HostMemory.copy_out = skip
    try:
        yield
    finally:
        HostMemory.copy_out = original


MUTATIONS = {
    "skip_retire": _skip_retire,
    "skip_replica_retire": _skip_replica_retire,
    "skip_alias_copy_out": _skip_alias_copy_out,
}

#: The workload profile a mutation's self-check sweeps when it is not the
#: default one: the schedule that exposes it is too rare to draw there.
SELF_CHECK_PROFILES = {"skip_alias_copy_out": "tier-hazards"}


@contextlib.contextmanager
def apply(name: str | None) -> Iterator[None]:
    """Apply mutation ``name`` for the duration of the context (None = no-op)."""

    if name is None:
        yield
        return
    if name not in MUTATIONS:
        raise ValueError(f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}")
    with MUTATIONS[name]():
        yield
