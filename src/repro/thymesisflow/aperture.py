"""Aperture mapping: the FPGA's address-translation role.

On real ThymesisFlow hardware, remote disaggregated memory appears in a
node's *extended physical address space*; loads/stores that hit an aperture
window are relayed to the home node's FPGA. :class:`ApertureMap` reproduces
that layout: each mapped remote region gets a window above the node's
local capacity.

:class:`RemoteRegion` is the ergonomic handle the object store uses: a
region-shaped view of one remote exposed window with timed read/write.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ApertureError
from repro.obs.metrics import CounterGroup
from repro.thymesisflow.endpoint import ThymesisEndpoint
from repro.thymesisflow.link import OpenCapiLink

# Windows are aligned to 256 MiB "sockets", mirroring how ThymesisFlow
# carves its extended address space.
_WINDOW_ALIGN = 256 * 1024 * 1024


@dataclass(frozen=True)
class Aperture:
    """One mapped window: extended addresses [base, base+size) on the local
    node correspond to offsets [0, size) of *home*'s exposed region."""

    base: int
    size: int
    home: ThymesisEndpoint
    link: OpenCapiLink

    @property
    def end(self) -> int:
        return self.base + self.size


class ApertureMap:
    """The per-node table of mapped remote windows."""

    def __init__(self, owner: ThymesisEndpoint):
        self._owner = owner
        self._apertures: list[Aperture] = []
        self._next_base = self._align_up(owner.memory.capacity)

    @staticmethod
    def _align_up(addr: int) -> int:
        return -(-addr // _WINDOW_ALIGN) * _WINDOW_ALIGN

    def map_remote(self, home: ThymesisEndpoint, link: OpenCapiLink) -> Aperture:
        """Map *home*'s exposed region into the extended address space."""
        if home.name == self._owner.name:
            raise ApertureError("a node does not map its own memory as remote")
        if not link.connects(self._owner.name, home.name):
            raise ApertureError(
                f"link {link!r} does not connect {self._owner.name} and {home.name}"
            )
        for ap in self._apertures:
            if ap.home.name == home.name:
                raise ApertureError(
                    f"{self._owner.name} already maps {home.name}'s region"
                )
        region = home.exposed  # raises if home exposes nothing
        aperture = Aperture(
            base=self._next_base, size=region.size, home=home, link=link
        )
        self._apertures.append(aperture)
        self._next_base = self._align_up(aperture.end + 1)
        return aperture

class RemoteRegion:
    """Timed access to one remote exposed window through an aperture.

    Offsets are relative to the home node's exposed region, exactly how the
    disaggregated Plasma store addresses remote objects (home-region offset
    + size travel in RPC lookups).
    """

    def __init__(self, aperture: Aperture, reader: ThymesisEndpoint):
        self._ap = aperture
        self._reader = reader
        self.counters = CounterGroup()

    @property
    def home_name(self) -> str:
        return self._ap.home.name

    @property
    def size(self) -> int:
        return self._ap.size

    @property
    def aperture(self) -> Aperture:
        return self._ap

    def _check(self, offset: int, size: int) -> None:
        if size <= 0:
            raise ApertureError("access size must be positive")
        if offset < 0 or offset + size > self._ap.size:
            raise ApertureError(
                f"remote access [{offset}, {offset + size}) exceeds the "
                f"{self._ap.size}-byte window onto {self.home_name}"
            )

    def read_view(self, offset: int, size: int) -> memoryview:
        """Streaming coherent read (Fig 3a). Charges the link; returns a
        read-only window of the home node's DRAM (no bytes move)."""
        self._check(offset, size)
        src = self._ap.home.serve_remote_read(offset, size)
        self._ap.link.charge_stream_read(size)
        self.counters.inc("read_bytes", size)
        return src

    def read(self, offset: int, size: int, out=None) -> bytes | None:
        """:meth:`read_view`, copied out: returns the bytes (or fills *out*
        and returns None)."""
        src = self.read_view(offset, size)
        if out is None:
            return bytes(src)
        mv = memoryview(out)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        if len(mv) < size:
            raise ApertureError("output buffer too small for remote read")
        mv[:size] = src
        return None

    def view(self, offset: int, size: int) -> memoryview:
        """Untimed read-only view of remote memory — the zero-copy handle
        the store wires into buffers; consumers charge timing when they
        actually stream it (see PlasmaBuffer.read_view)."""
        self._check(offset, size)
        return self._ap.home.serve_remote_read(offset, size)

    def charge_read(self, size: int) -> float:
        """Charge link time for streaming *size* bytes (used with view())."""
        return self._ap.link.charge_stream_read(size)

    def write(self, offset: int, data) -> int:
        """Streaming write into remote memory (Fig 3b!): the bytes land in
        the home node's DRAM, but its cache is NOT invalidated — the home
        CPU may keep observing stale data. Returns stale byte count."""
        mv = memoryview(data)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        self._check(offset, len(mv))
        self._ap.link.charge_stream_write(len(mv))
        stale = self._ap.home.serve_remote_write(offset, mv)
        self.counters.inc("write_bytes", len(mv))
        return stale

    def load(self, offset: int, size: int = 8) -> bytes:
        """A single unpipelined load (≤ one cache line): pays the full
        FPGA round-trip latency."""
        if size > self._ap.link.config.max_burst_bytes:
            raise ApertureError("single loads are at most one burst")
        self._check(offset, size)
        src = self._ap.home.serve_remote_read(offset, size)
        self._ap.link.charge_single_access()
        return bytes(src)
