"""Allocator interface and shared free-list machinery.

Allocators manage an abstract offset space ``[0, capacity)``; the store
composes an allocator with a :class:`~repro.memory.host.MemoryRegion` to
place real bytes. Keeping allocators memory-agnostic makes them unit-testable
in isolation and lets the ablation benchmarks replay identical traces
through each strategy.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.common.errors import AllocationError, OutOfMemoryError


@dataclass(frozen=True)
class Allocation:
    """A live allocation: *size* is what the caller asked for,
    *padded_size* what the allocator reserved (alignment / block rounding)."""

    offset: int
    size: int
    padded_size: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size <= 0 or self.padded_size < self.size:
            raise ValueError(f"invalid allocation {self!r}")

    @property
    def end(self) -> int:
        return self.offset + self.padded_size


@dataclass(frozen=True)
class AllocatorStats:
    """Point-in-time allocator statistics."""

    capacity: int
    used_bytes: int
    free_bytes: int
    largest_free: int
    num_allocations: int
    num_free_blocks: int
    total_allocs: int
    total_frees: int
    failed_allocs: int

    @property
    def utilization(self) -> float:
        return self.used_bytes / self.capacity if self.capacity else 0.0

    @property
    def external_fragmentation(self) -> float:
        """1 - largest_free/total_free: 0 when all free space is one run."""
        if self.free_bytes == 0:
            return 0.0
        return 1.0 - self.largest_free / self.free_bytes


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to a multiple of *alignment* (a power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)


class FreeList:
    """Free blocks indexed two ways: by offset (for coalescing) and by
    ``(size, offset)`` (for logarithmic fit lookup — the paper's "ordered
    map ... of the sizes of available regions").

    Both indexes are sorted lists maintained with :mod:`bisect`; operations
    are O(log n) search + O(n) worst-case list shuffle, which measures as
    effectively logarithmic at the block counts the store produces.
    """

    def __init__(self) -> None:
        self._by_offset: list[tuple[int, int]] = []  # (offset, size)
        self._by_size: list[tuple[int, int]] = []  # (size, offset)

    def __len__(self) -> int:
        return len(self._by_offset)

    def __iter__(self):
        return iter(self._by_offset)

    @property
    def total_bytes(self) -> int:
        return sum(size for _, size in self._by_offset)

    @property
    def largest(self) -> int:
        return self._by_size[-1][0] if self._by_size else 0

    def insert(self, offset: int, size: int) -> None:
        bisect.insort(self._by_offset, (offset, size))
        bisect.insort(self._by_size, (size, offset))

    def _remove(self, offset: int, size: int) -> None:
        i = bisect.bisect_left(self._by_offset, (offset, size))
        if i >= len(self._by_offset) or self._by_offset[i] != (offset, size):
            raise AllocationError(f"free block ({offset}, {size}) not found")
        del self._by_offset[i]
        j = bisect.bisect_left(self._by_size, (size, offset))
        del self._by_size[j]

    def insert_coalescing(self, offset: int, size: int) -> None:
        """Insert a block, merging with adjacent free neighbours."""
        i = bisect.bisect_left(self._by_offset, (offset, 0))
        # Merge with successor.
        if i < len(self._by_offset):
            nxt_off, nxt_size = self._by_offset[i]
            if nxt_off < offset + size:
                raise AllocationError(
                    f"double free or overlap: [{offset},{offset+size}) vs "
                    f"free block [{nxt_off},{nxt_off+nxt_size})"
                )
            if nxt_off == offset + size:
                self._remove(nxt_off, nxt_size)
                size += nxt_size
        # Merge with predecessor.
        if i > 0:
            prev_off, prev_size = self._by_offset[i - 1]
            if prev_off + prev_size > offset:
                raise AllocationError(
                    f"double free or overlap: [{offset},{offset+size}) vs "
                    f"free block [{prev_off},{prev_off+prev_size})"
                )
            if prev_off + prev_size == offset:
                self._remove(prev_off, prev_size)
                offset = prev_off
                size += prev_size
        self.insert(offset, size)

    def take_fit(self, size: int) -> tuple[int, int] | None:
        """Remove and return the block the paper's strategy picks: the entry
        found by logarithmic lookup in the size-ordered map — the *smallest*
        block that can accommodate the request (ties broken by lowest
        offset). Returns ``(offset, block_size)`` or ``None``."""
        i = bisect.bisect_left(self._by_size, (size, -1))
        if i >= len(self._by_size):
            return None
        block_size, offset = self._by_size[i]
        self._remove(offset, block_size)
        return offset, block_size

    def blocks(self) -> list[tuple[int, int]]:
        return list(self._by_offset)


class Allocator(ABC):
    """Abstract allocator over ``[0, capacity)``."""

    def __init__(self, capacity: int, alignment: int = 64):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a positive power of two")
        self._capacity = capacity
        self._alignment = alignment
        self._live: dict[int, Allocation] = {}
        self._used_bytes = 0
        self._total_allocs = 0
        self._total_frees = 0
        self._failed_allocs = 0

    # -- abstract core ---------------------------------------------------------

    @abstractmethod
    def _do_allocate(self, padded_size: int) -> tuple[int, int]:
        """Reserve *padded_size* bytes; return ``(offset, reserved_size)``.
        Raise :class:`OutOfMemoryError` on failure."""

    @abstractmethod
    def _do_free(self, alloc: Allocation) -> None:
        """Return a reservation to the free pool."""

    @property
    @abstractmethod
    def largest_free(self) -> int:
        """Size of the largest contiguous free run."""

    @property
    @abstractmethod
    def num_free_blocks(self) -> int:
        ...

    # -- public API --------------------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        """Allocate *size* bytes (padded to the configured alignment)."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        padded = align_up(size, self._alignment)
        try:
            offset, reserved = self._do_allocate(padded)
        except OutOfMemoryError:
            self._failed_allocs += 1
            raise
        alloc = Allocation(offset=offset, size=size, padded_size=reserved)
        self._live[offset] = alloc
        self._used_bytes += reserved
        self._total_allocs += 1
        return alloc

    def free(self, offset: int) -> None:
        """Free the allocation starting at *offset*."""
        alloc = self._live.pop(offset, None)
        if alloc is None:
            raise AllocationError(f"no live allocation at offset {offset}")
        self._do_free(alloc)
        self._used_bytes -= alloc.padded_size
        self._total_frees += 1

    def reserve(self, offset: int, size: int) -> Allocation:
        """Claim the specific range ``[offset, offset + align_up(size))`` out
        of the free pool — the restart-recovery primitive: a region scan
        finds surviving extents at fixed offsets and re-registers them.

        Raises :class:`AllocationError` if the range is not entirely free.
        Subclasses that cannot support placement raise NotImplementedError.
        """
        if size <= 0:
            raise AllocationError(f"reservation size must be positive, got {size}")
        if offset % self._alignment:
            raise AllocationError(
                f"reservation offset {offset} not {self._alignment}-byte aligned"
            )
        padded = align_up(size, self._alignment)
        if offset + padded > self._capacity:
            raise AllocationError(
                f"reservation [{offset}, {offset + padded}) exceeds capacity "
                f"{self._capacity}"
            )
        self._do_reserve(offset, padded)
        alloc = Allocation(offset=offset, size=size, padded_size=padded)
        self._live[offset] = alloc
        self._used_bytes += padded
        self._total_allocs += 1
        return alloc

    def _do_reserve(self, offset: int, padded_size: int) -> None:
        """Carve ``[offset, offset + padded_size)`` out of the free pool.
        Raise :class:`AllocationError` if any part is not free."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support placed reservations"
        )

    # -- introspection --------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def alignment(self) -> int:
        return self._alignment

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self._capacity - self._used_bytes

    @property
    def num_allocations(self) -> int:
        return len(self._live)

    def live_allocations(self) -> list[Allocation]:
        return sorted(self._live.values(), key=lambda a: a.offset)

    def stats(self) -> AllocatorStats:
        return AllocatorStats(
            capacity=self._capacity,
            used_bytes=self._used_bytes,
            free_bytes=self.free_bytes,
            largest_free=self.largest_free,
            num_allocations=len(self._live),
            num_free_blocks=self.num_free_blocks,
            total_allocs=self._total_allocs,
            total_frees=self._total_frees,
            failed_allocs=self._failed_allocs,
        )

    def audit(self) -> None:
        """Verify structural invariants; raises AssertionError on violation.

        Checks that live allocations are disjoint, in bounds, and that
        used + free accounting matches capacity (subclasses may reserve
        rounding slack, so free-pool bytes must be >= capacity - used only
        for exact-accounting allocators; each subclass refines this).
        """
        prev_end = 0
        for alloc in self.live_allocations():
            assert alloc.offset >= prev_end, f"overlap at {alloc}"
            assert alloc.end <= self._capacity, f"out of bounds: {alloc}"
            prev_end = alloc.end
        assert 0 <= self._used_bytes <= self._capacity
