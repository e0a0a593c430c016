"""ThymesisFabric topology + ApertureMap translation + RemoteRegion access."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import FabricLinkConfig, LocalMemoryConfig
from repro.common.errors import ApertureError, FabricError
from repro.common.rng import DeterministicRng
from repro.common.units import MiB, gib_per_s
from repro.thymesisflow import ThymesisFabric


def make_fabric():
    return ThymesisFabric(
        SimClock(),
        FabricLinkConfig(jitter_sigma=0.0),
        LocalMemoryConfig(jitter_sigma=0.0),
        DeterministicRng(5),
    )


@pytest.fixture
def fabric():
    fab = make_fabric()
    for name in ("a", "b", "c"):
        ep = fab.add_node(name, 8 * MiB)
        ep.expose(0, 4 * MiB)
    fab.connect_full_mesh()
    return fab


class TestTopology:
    def test_duplicate_node_rejected(self, fabric):
        with pytest.raises(FabricError):
            fabric.add_node("a", MiB)

    def test_unknown_node_rejected(self, fabric):
        with pytest.raises(FabricError):
            fabric.endpoint("zzz")

    def test_full_mesh_links_all_pairs(self, fabric):
        assert len(fabric.links()) == 3  # C(3,2)
        fabric.link_between("a", "b")
        fabric.link_between("b", "c")
        fabric.link_between("a", "c")

    def test_duplicate_link_rejected(self, fabric):
        with pytest.raises(FabricError):
            fabric.connect("a", "b")

    def test_missing_link_reported(self):
        fab = make_fabric()
        fab.add_node("x", MiB)
        fab.add_node("y", MiB)
        with pytest.raises(FabricError):
            fab.link_between("x", "y")

    def test_nodes_sorted(self, fabric):
        assert fabric.nodes() == ["a", "b", "c"]


class TestApertures:
    def test_map_remote_requires_link(self):
        fab = make_fabric()
        fab.add_node("x", MiB).expose(0, MiB // 2)
        fab.add_node("y", MiB)
        with pytest.raises(FabricError):
            fab.map_remote("y", "x")

    def test_map_remote_requires_exposed(self, fabric):
        fab = make_fabric()
        fab.add_node("x", MiB).expose(0, MiB // 2)
        fab.add_node("y", MiB)  # no expose
        fab.connect("x", "y")
        with pytest.raises(FabricError):
            fab.map_remote("x", "y")

    def test_double_mapping_rejected(self, fabric):
        fabric.map_remote("a", "b")
        with pytest.raises(ApertureError):
            fabric.map_remote("a", "b")

    def test_windows_live_above_local_capacity(self, fabric):
        rr = fabric.map_remote("a", "b")
        assert rr.aperture.base >= 8 * MiB
        assert rr.size == 4 * MiB

    def test_translate_local_and_remote(self, fabric):
        rr_b = fabric.map_remote("a", "b")
        amap = fabric.aperture_map("a")
        ap, off = amap.translate(100, 10)
        assert ap is None and off == 100  # local memory
        ap, off = amap.translate(rr_b.aperture.base + 50, 10)
        assert ap is rr_b.aperture and off == 50

    def test_translate_unmapped_raises(self, fabric):
        amap = fabric.aperture_map("a")
        with pytest.raises(ApertureError):
            amap.translate(10**12, 8)

    def test_translate_straddling_window_edge_raises(self, fabric):
        rr = fabric.map_remote("a", "b")
        amap = fabric.aperture_map("a")
        with pytest.raises(ApertureError):
            amap.translate(rr.aperture.end - 4, 8)

    def test_multiple_windows_disjoint(self, fabric):
        rr_b = fabric.map_remote("a", "b")
        rr_c = fabric.map_remote("a", "c")
        assert rr_b.aperture.end <= rr_c.aperture.base


class TestRemoteRegionAccess:
    def test_read_roundtrip(self, fabric):
        home = fabric.endpoint("b")
        home.local_write(10, b"remote-data")
        rr = fabric.map_remote("a", "b")
        assert rr.read(10, 11) == b"remote-data"

    def test_read_into_out_buffer(self, fabric):
        fabric.endpoint("b").local_write(0, b"xyz")
        rr = fabric.map_remote("a", "b")
        out = bytearray(3)
        assert rr.read(0, 3, out=out) is None
        assert bytes(out) == b"xyz"

    def test_read_charges_fabric_bandwidth(self, fabric):
        rr = fabric.map_remote("a", "b")
        before = fabric.clock.now_ns
        rr.read(0, 4 * MiB)
        elapsed = fabric.clock.now_ns - before
        assert gib_per_s(4 * MiB, elapsed) == pytest.approx(5.75, rel=0.02)

    def test_view_plus_charge_matches_read(self, fabric):
        rr = fabric.map_remote("a", "b")
        view = rr.view(0, 1024)
        assert len(view) == 1024
        cost = rr.charge_read(1024)
        assert cost > 0

    def test_out_of_window_rejected(self, fabric):
        rr = fabric.map_remote("a", "b")
        with pytest.raises(ApertureError):
            rr.read(rr.size - 4, 8)
        with pytest.raises(ApertureError):
            rr.read(0, 0)

    def test_write_is_fig3b_unsafe(self, fabric):
        """Remote writes reach home DRAM but home CPU may read stale."""
        home = fabric.endpoint("b")
        home.local_write(0, b"OLD!")
        rr = fabric.map_remote("a", "b")
        stale = rr.write(0, b"NEW!")
        assert stale == 4
        out = home.local_read_view(0, 4)
        assert bytes(out) == b"OLD!"  # home is stale
        assert rr.read(0, 4) == b"NEW!"  # fabric readers are coherent

    def test_load_store_single_access(self, fabric):
        home = fabric.endpoint("b")
        home.local_write(0, b"\x07" + b"\x00" * 7)
        rr = fabric.map_remote("a", "b")
        before = fabric.clock.now_ns
        word = rr.load(0, 8)
        assert word[0] == 7
        assert fabric.clock.now_ns - before >= FabricLinkConfig().added_latency_ns * 0.9
        rr.store(8, b"\x01")
        assert rr.read(8, 1) == b"\x01"

    def test_home_name(self, fabric):
        assert fabric.map_remote("a", "c").home_name == "c"
