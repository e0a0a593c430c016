"""Model-based stateful testing of the distributed store.

A hypothesis state machine drives a 2-node cluster through arbitrary
interleavings of create/write/seal/get/release/delete from producers and
consumers on both nodes, against an explicit model. The model encodes the
system's *real* contract, including the paper's acknowledged hazard
(§IV-A2): without distributed usage sharing, a home store cannot see remote
holds, so deletion under a remote hold succeeds and the holder is left with
a dangling record — the machine checks exactly that behaviour, not a
sanitised version of it.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.common.config import testing_config as make_testing_config
from repro.common.errors import (
    ObjectExistsError,
    ObjectInUseError,
    ObjectNotFoundError,
    ObjectStoreError,
)
from repro.common.ids import ObjectID
from repro.common.units import MiB
from repro.core import Cluster


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = Cluster(
            make_testing_config(capacity_bytes=8 * MiB, seed=1).with_store(
                check_remote_uniqueness=True
            ),
        )
        self.nodes = self.cluster.node_names()
        self.producers = {
            n: self.cluster.client(n, f"prod@{n}") for n in self.nodes
        }
        self.consumers = {
            n: self.cluster.client(n, f"cons@{n}") for n in self.nodes
        }
        self.counter = 0
        # oid -> {home, payload, deleted}
        self.objects: dict[ObjectID, dict] = {}
        # (node, oid) -> live buffer holds by that node's consumer
        self.holds: dict[tuple[str, ObjectID], int] = {}

    ids = Bundle("ids")

    def _holds(self, node: str, oid: ObjectID) -> int:
        return self.holds.get((node, oid), 0)

    # -- rules -----------------------------------------------------------------

    @rule(
        target=ids,
        node_idx=st.integers(0, 1),
        size=st.integers(1, 4096),
        fill=st.integers(0, 255),
    )
    def put_object(self, node_idx, size, fill):
        node = self.nodes[node_idx]
        self.counter += 1
        oid = ObjectID.from_int(self.counter)
        payload = bytes([fill]) * size
        self.producers[node].put_bytes(oid, payload)
        self.objects[oid] = {"home": node, "payload": payload, "deleted": False}
        return oid

    @rule(oid=ids, node_idx=st.integers(0, 1))
    def get_object(self, node_idx, oid):
        node = self.nodes[node_idx]
        consumer = self.consumers[node]
        entry = self.objects[oid]
        if not entry["deleted"]:
            buf = consumer.get_one(oid)
            # Live objects must read back exactly.
            assert buf.read_all() == entry["payload"]
            self.holds[(node, oid)] = self._holds(node, oid) + 1
            return
        # Deleted object. If this node still holds a dangling remote record
        # (only possible off-home), the get "succeeds" against freed memory
        # — the documented hazard; contents are undefined. Otherwise it is a
        # clean not-found.
        dangling = node != entry["home"] and self._holds(node, oid) > 0
        if dangling:
            consumer.get_one(oid)
            self.holds[(node, oid)] += 1
        else:
            try:
                consumer.get([oid])
            except ObjectNotFoundError:
                return
            raise AssertionError(f"deleted {oid!r} retrievable without a record")

    @rule(oid=ids, node_idx=st.integers(0, 1))
    def release_hold(self, node_idx, oid):
        node = self.nodes[node_idx]
        held = self._holds(node, oid)
        if held == 0:
            try:
                self.consumers[node].release(oid)
            except ObjectStoreError:
                return
            raise AssertionError("release without a hold succeeded")
        self.consumers[node].release(oid)
        self.holds[(node, oid)] = held - 1

    @rule(oid=ids)
    def delete_object(self, oid):
        entry = self.objects[oid]
        home = entry["home"]
        producer = self.producers[home]
        if entry["deleted"]:
            try:
                producer.delete(oid)
            except ObjectNotFoundError:
                return
            raise AssertionError("double delete succeeded")
        if self._holds(home, oid) > 0:
            # Local holds are visible to the home store and block deletion.
            try:
                producer.delete(oid)
            except ObjectInUseError:
                return
            raise AssertionError("delete of a locally-held object succeeded")
        # No local holds. Remote holds (if any) are invisible without usage
        # sharing, so deletion succeeds regardless — the hazard.
        producer.delete(oid)
        entry["deleted"] = True

    @rule(oid=ids, node_idx=st.integers(0, 1), size=st.integers(1, 1024))
    def duplicate_id_rejected(self, oid, node_idx, size):
        entry = self.objects[oid]
        if entry["deleted"]:
            return  # a deleted id is legitimately reusable
        node = self.nodes[node_idx]
        try:
            self.producers[node].create(oid, size)
        except ObjectExistsError:
            return
        raise AssertionError("duplicate id accepted")

    # -- invariants ---------------------------------------------------------------

    @invariant()
    def allocators_are_sound(self):
        for name in self.nodes:
            self.cluster.store(name).allocator.audit()

    @invariant()
    def object_counts_match_model(self):
        live_model = sum(1 for e in self.objects.values() if not e["deleted"])
        live_real = sum(
            self.cluster.store(name).object_count() for name in self.nodes
        )
        assert live_real == live_model

    @invariant()
    def home_refcounts_match_local_holds(self):
        for oid, entry in self.objects.items():
            if entry["deleted"]:
                continue
            table_entry = self.cluster.store(entry["home"]).table.get(oid)
            assert table_entry.ref_count == self._holds(entry["home"], oid)
            # Without usage sharing the home NEVER sees remote holds.
            assert table_entry.remote_ref_count == 0

    @invariant()
    def live_contents_always_intact(self):
        for oid, entry in self.objects.items():
            if entry["deleted"]:
                continue
            store = self.cluster.store(entry["home"])
            table_entry = store.get_sealed_entry(oid)
            view = store.local_buffer(table_entry).view()
            assert bytes(view) == entry["payload"]


StoreMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestStatefulStore = StoreMachine.TestCase
