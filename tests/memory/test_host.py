"""HostMemory and MemoryRegion: real byte storage with bounds discipline."""

import numpy as np
import pytest

from repro.common.errors import FabricError
from repro.memory.host import HostMemory, MemoryRegion


class TestHostMemory:
    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            HostMemory(0)

    def test_write_read_roundtrip(self):
        mem = HostMemory(1024, node="n0")
        assert mem.write(10, b"hello") == 5
        assert mem.read(10, 5) == b"hello"
        assert mem.node == "n0"

    def test_view_is_zero_copy(self):
        mem = HostMemory(64)
        view = mem.view(0, 8)
        view[:3] = b"abc"
        assert mem.read(0, 3) == b"abc"

    def test_readonly_view_rejects_writes(self):
        mem = HostMemory(64)
        ro = mem.readonly_view(0, 8)
        with pytest.raises(TypeError):
            ro[0] = 1  # type: ignore[index]

    def test_out_of_bounds_rejected(self):
        mem = HostMemory(100)
        with pytest.raises(FabricError):
            mem.read(90, 20)
        with pytest.raises(FabricError):
            mem.write(-1, b"x")
        with pytest.raises(ValueError):
            mem.read(0, -1)

    def test_accepts_numpy_and_multibyte_buffers(self):
        mem = HostMemory(64)
        mem.write(0, np.arange(4, dtype=np.uint32))  # 16 bytes, cast to B
        assert len(mem.read(0, 16)) == 16

    def test_write_at_exact_end(self):
        mem = HostMemory(10)
        mem.write(5, b"12345")
        with pytest.raises(FabricError):
            mem.write(6, b"12345")


class TestMemoryRegion:
    def test_offsets_are_region_relative(self):
        mem = HostMemory(1000)
        region = mem.region(100, 200)
        region.write(0, b"xyz")
        assert mem.read(100, 3) == b"xyz"
        assert region.read(0, 3) == b"xyz"
        assert region.base == 100 and region.size == 200
        assert len(region) == 200

    def test_bounds_are_region_local(self):
        region = HostMemory(1000).region(100, 50)
        with pytest.raises(FabricError):
            region.read(40, 20)

    def test_non_flat_buffer_write_lands_byte_exact(self):
        mem = HostMemory(1000)
        region = mem.region(100, 20)
        payload = bytes(range(1, 13))
        grid = memoryview(payload).cast("B", (3, 4))  # 2-D, itemsize 1
        assert region.write(4, grid) == 12
        assert mem.read(104, 12) == payload
        assert mem.read(100, 4) == b"\0" * 4 and mem.read(116, 4) == b"\0" * 4
        with pytest.raises(FabricError):
            region.write(9, grid)  # [9, 21) overruns the 20-byte region
        assert mem.read(100, 20) == b"\0" * 4 + payload + b"\0" * 4

    def test_subregion_composes(self):
        mem = HostMemory(1000)
        outer = mem.region(100, 400)
        inner = outer.subregion(50, 100)
        inner.write(0, b"deep")
        assert mem.read(150, 4) == b"deep"
        assert inner.absolute(0) == 150

    def test_subregion_bounds_checked(self):
        outer = HostMemory(1000).region(0, 100)
        with pytest.raises(FabricError):
            outer.subregion(90, 20)

    def test_view_default_spans_whole_region(self):
        region = HostMemory(100).region(10, 20)
        assert len(region.view()) == 20

    def test_whole(self):
        mem = HostMemory(64)
        assert mem.whole().size == 64

    def test_zero_size_region_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion(HostMemory(10), 0, 0)

    def test_readonly_view(self):
        region = HostMemory(100).region(0, 10)
        with pytest.raises(TypeError):
            region.readonly_view()[0] = 1  # type: ignore[index]
