"""Unit tests for membership lifecycle, epochs and the wire format."""

from __future__ import annotations

import pytest

from repro.common.errors import PlacementError
from repro.placement import Membership, NodeStatus, TopologyView


class TestMembership:
    def test_starts_at_epoch_one_all_active(self):
        m = Membership(["a", "b"])
        view = m.view()
        assert view.epoch == 1
        assert view.placeable_names() == ["a", "b"]

    def test_every_transition_bumps_epoch_once(self):
        m = Membership(["a", "b"])
        assert m.join("c").epoch == 2
        assert m.drain("c").epoch == 3
        assert m.reconcile({"b"}).epoch == 4
        assert m.reactivate("b").epoch == 5
        assert m.remove("c").epoch == 6

    def test_utilization_refresh_does_not_bump_epoch(self):
        m = Membership(["a", "b"])
        m.update_utilization({"a": 0.5, "unknown": 0.9})
        assert m.epoch == 1
        assert m.view().members["a"].utilization == 0.5

    def test_draining_member_is_readable_not_placeable(self):
        m = Membership(["a", "b", "c"])
        m.drain("b")
        view = m.view()
        assert view.placeable_names() == ["a", "c"]
        assert view.status("b") is NodeStatus.DRAINING

    def test_down_member_is_neither(self):
        m = Membership(["a", "b", "c"])
        m.reconcile({"b"})
        view = m.view()
        assert view.placeable_names() == ["a", "c"]
        assert view.status("b") is NodeStatus.DOWN

    def test_idempotent_transitions_do_not_bump(self):
        m = Membership(["a", "b"])
        m.reconcile({"b"})
        epoch = m.epoch
        assert m.reconcile({"b"}) is None
        assert m.reactivate("a").epoch == epoch

    def test_bad_transitions_raise(self):
        m = Membership(["a", "b"])
        with pytest.raises(PlacementError):
            m.remove("a")  # ACTIVE; must drain first
        with pytest.raises(PlacementError):
            m.join("a")  # already a member
        with pytest.raises(PlacementError):
            m.drain("ghost")
        m.drain("b")
        with pytest.raises(PlacementError):
            m.drain("b")  # already draining

    def test_cannot_remove_last_member(self):
        m = Membership(["only", "other"])
        m.drain("other")
        m.remove("other")
        m.drain("only")
        with pytest.raises(PlacementError):
            m.remove("only")
        # The failed remove must not have emptied the record.
        assert m.names() == ["only"]

    def test_reconcile_batches_suspects_into_one_epoch(self):
        m = Membership(["a", "b", "c", "d"])
        view = m.reconcile(["b", "c"])
        assert view is not None and view.epoch == 2
        assert view.status("b") is NodeStatus.DOWN
        assert view.status("c") is NodeStatus.DOWN
        # Re-reporting the same suspects changes nothing.
        assert m.reconcile(["b", "c"]) is None
        assert m.epoch == 2


class TestWireFormat:
    def test_round_trip(self):
        m = Membership(["a", "b"])
        m.join("c", weight=2.5)
        m.drain("b")
        m.update_utilization({"a": 0.25})
        view = m.view()
        decoded = TopologyView.from_wire(view.to_wire())
        assert decoded.epoch == view.epoch
        assert decoded.names() == view.names()
        for name in view.names():
            assert decoded.members[name] == view.members[name]

    def test_wire_uses_codec_friendly_types(self):
        wire = Membership(["a"]).view().to_wire()
        assert isinstance(wire["epoch"], int)
        for member in wire["members"]:
            assert isinstance(member["name"], str)
            assert isinstance(member["status"], str)
            assert isinstance(member["weight"], float)
