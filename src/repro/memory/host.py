"""Physical memory of a simulated node.

:class:`HostMemory` owns a real ``bytearray``; every object the stores serve
lives in one of these. :class:`MemoryRegion` is a bounds-checked window into
a host memory — the unit handed to allocators ("the memory-mapped local
disaggregated memory region" of paper §IV-A1) and to object buffers.

All access is via ``memoryview`` so reads are zero-copy where the consumer
allows it, mirroring how real Plasma hands clients read-only views of shared
memory rather than copies. A view shows the memory as it is now: a consumer
that keeps one (the tier plane's hot cache) relies on the object's in-region
header, not on the bytes staying put, to know whether it still holds the
object it read.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import FabricError


class HostMemory:
    """The byte-addressable DRAM of one node.

    Backed by ``np.zeros`` rather than a ``bytearray``: NumPy allocates via
    calloc, so multi-GiB node memories are virtual until touched — standing
    up a simulated rack costs no real RAM or zero-fill time for pages the
    workload never writes.

    ``node`` is a purely informational label used in error messages and
    fabric bookkeeping.
    """

    __slots__ = ("_arr", "_buf", "_node", "_capacity", "__weakref__")

    def __init__(self, capacity: int, node: str = "?"):
        if capacity <= 0:
            raise ValueError("memory capacity must be positive")
        self._capacity = capacity
        self._arr = np.zeros(capacity, dtype=np.uint8)
        self._buf = memoryview(self._arr)  # format 'B', writable
        self._node = node

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def node(self) -> str:
        return self._node

    def _check(self, offset: int, size: int) -> None:
        if size < 0:
            raise ValueError("negative size")
        if offset < 0 or offset + size > self._capacity:
            raise FabricError(
                f"access [{offset}, {offset + size}) out of bounds for "
                f"{self._capacity}-byte memory of node {self._node}"
            )

    def view(self, offset: int, size: int) -> memoryview:
        """A writable zero-copy window. Callers needing read-only views wrap
        with ``.toreadonly()`` (see :meth:`readonly_view`)."""
        self._check(offset, size)
        return memoryview(self._buf)[offset : offset + size]

    def readonly_view(self, offset: int, size: int) -> memoryview:
        return self.view(offset, size).toreadonly()

    def write(self, offset: int, data) -> int:
        """Copy *data* (any buffer) into memory at *offset*; returns bytes
        written. A memoryview is used as given, not wrapped again."""
        mv = data if type(data) is memoryview else memoryview(data)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        self._check(offset, len(mv))
        self._buf[offset : offset + len(mv)] = mv
        return len(mv)

    def read(self, offset: int, size: int) -> bytes:
        """Copy *size* bytes out of memory (use :meth:`view` to avoid the
        copy)."""
        self._check(offset, size)
        return bytes(self._buf[offset : offset + size])

    def region(self, offset: int, size: int) -> "MemoryRegion":
        self._check(offset, size)
        return MemoryRegion(self, offset, size)

    def whole(self) -> "MemoryRegion":
        return MemoryRegion(self, 0, self._capacity)


class MemoryRegion:
    """A ``[base, base+size)`` window of a :class:`HostMemory`.

    Offsets passed to region methods are *region-relative*; the region does
    the translation and bounds checking. Sub-regions compose (a buffer region
    inside the disaggregated region inside host memory).
    """

    __slots__ = ("_mem", "_base", "_size")

    def __init__(self, mem: HostMemory, base: int, size: int):
        if size <= 0:
            raise ValueError("region size must be positive")
        mem._check(base, size)
        self._mem = mem
        self._base = base
        self._size = size

    @property
    def memory(self) -> HostMemory:
        return self._mem

    @property
    def base(self) -> int:
        """Absolute offset of this region within its host memory."""
        return self._base

    @property
    def size(self) -> int:
        return self._size

    def _translate(self, offset: int, size: int) -> int:
        if size < 0:
            raise ValueError("negative size")
        if offset < 0 or offset + size > self._size:
            raise FabricError(
                f"access [{offset}, {offset + size}) out of bounds for "
                f"{self._size}-byte region at base {self._base} "
                f"(node {self._mem.node})"
            )
        return self._base + offset

    def view(self, offset: int = 0, size: int | None = None) -> memoryview:
        size = self._size - offset if size is None else size
        abs_off = self._translate(offset, size)
        return self._mem.view(abs_off, size)

    def readonly_view(self, offset: int = 0, size: int | None = None) -> memoryview:
        return self.view(offset, size).toreadonly()

    def write(self, offset: int, data) -> int:
        mv = memoryview(data)
        return self._mem.write(self._translate(offset, mv.nbytes), mv)

    def read(self, offset: int, size: int) -> bytes:
        abs_off = self._translate(offset, size)
        return self._mem.read(abs_off, size)

    def subregion(self, offset: int, size: int) -> "MemoryRegion":
        abs_off = self._translate(offset, size)
        return MemoryRegion(self._mem, abs_off, size)

    def absolute(self, offset: int) -> int:
        """Translate a region-relative offset to a host-memory offset."""
        return self._translate(offset, 0)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"MemoryRegion(node={self._mem.node}, base={self._base}, "
            f"size={self._size})"
        )
