"""The deletion fan-out on ``write-churn``, counted exactly.

A store tells only the peers that resolved an object from it: a delete sends
``DropReplica`` to each replica holder and ``NotifyDeleted`` to every other
peer its ``Lookup`` handed the descriptor to, an eviction round one
``NotifyDeleted`` per such peer listing the victims it resolved, and a
replica holder told to drop its copy revokes the peers that resolved *that
copy* (the deleting home excepted). This test keeps its own model of who
resolved what — fed by every ``Lookup`` answer the servers hand out, with the
caller named by the ``dispatch_wire`` metadata — so over any run

    NotifyDeleted RPCs = sum over announcements of |sharers - holders|
                         + holder revocations

where *sharers* is the union of the announced ids' sharers, and no peer is
ever told about an id it did not resolve from the store telling it, nor sent
both messages about one object. The blind broadcast this replaced sent 6 497
``NotifyDeleted`` over the workload's full 19 000 ops, 27 % of which found
anything to invalidate (EXPERIMENTS.md), so a regression to it fails the
equality, not a latency threshold. The workload file is only read; 2 000 ops
keep it to about a second.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from pathlib import Path

from repro.common.ids import ObjectID
from repro.core.store import DisaggregatedStore
from repro.rpc.codec import decode_message
from repro.rpc.server import RpcServer
from repro.rpc.status import StatusCode
from repro.workload import ScenarioRunner, load_scenario

WORKLOAD = Path(__file__).parent / "perf" / "workloads" / "write-churn.json"
OPS = 2_000


def test_notify_deleted_rpcs_are_exactly_the_plan(monkeypatch):
    methods = Counter()
    told = {"NotifyDeleted": set(), "DropReplica": set()}  # (peer, object id)
    sharers: dict[tuple[str, ObjectID], set[str]] = {}  # (store, id) -> peers
    allowed: set[tuple[str, str, ObjectID]] = set()  # (teller, peer, id)
    expected = Counter()  # "announced" / "revoked" NotifyDeleted messages
    rounds = []  # victims per announced eviction round

    def plan(store: str, ids, excluded) -> int:
        """Consume the model's sharer sets of *ids* at *store*; returns how
        many peers a message is due to."""
        union: set[str] = set()
        for oid in ids:
            for peer in sharers.pop((store, oid), ()):
                if peer not in excluded:
                    allowed.add((store, peer, oid))
                    union.add(peer)
        return len(union)

    dispatch_wire = RpcServer.dispatch_wire

    def observing(self, service, method, wire, correlation_id=None, deadline_ns=None, caller=None):
        request = decode_message(wire)
        ids = [ObjectID(raw) for raw in request.get("object_ids", ())]
        methods[method] += 1
        if method == "NotifyDeleted":
            assert all((caller, self.host, oid) in allowed for oid in ids), (
                f"{caller} told {self.host} about an id it never resolved there"
            )
        if method in told:
            told[method].update((self.host, oid) for oid in ids)
        if method == "DropReplica":
            held = [oid for oid in ids if (self.host, oid) in sharers]
            expected["revoked"] += plan(self.host, held, {caller})
            for oid in held:
                sharers[self.host, oid] = set()
        status, response, detail = dispatch_wire(
            self, service, method, wire, correlation_id, deadline_ns, caller
        )
        if method == "Lookup" and status is StatusCode.OK:
            for descriptor in decode_message(response)["found"]:
                key = (self.host, ObjectID(descriptor["object_id"]))
                if key in sharers:
                    sharers[key].add(caller)
        if method == "DropReplica":
            store = runner.cluster.store(self.host)
            for oid in ids:
                if not store.contains(oid):
                    sharers.pop((self.host, oid), None)
        return status, response, detail

    seal = DisaggregatedStore.seal_object

    def sealing(self, object_id):
        sharers[self.name, object_id] = set()
        return seal(self, object_id)

    announce = DisaggregatedStore._announce_evicted  # noqa: SLF001

    def announcing(self, victims):
        rounds.append(len(victims))
        expected["announced"] += plan(self.name, [v.object_id for v in victims], ())
        return announce(self, victims)

    delete_task = DisaggregatedStore.delete_object_task

    def deleting(self, object_id, attr=None, blocking=False):
        holders = set(self.replica_locations(object_id))
        expected["announced"] += plan(self.name, [object_id], holders)
        result = yield from delete_task(self, object_id, attr, blocking)
        return result

    monkeypatch.setattr(RpcServer, "dispatch_wire", observing)
    monkeypatch.setattr(DisaggregatedStore, "seal_object", sealing)
    monkeypatch.setattr(DisaggregatedStore, "_announce_evicted", announcing)
    monkeypatch.setattr(DisaggregatedStore, "delete_object_task", deleting)

    scenario = load_scenario(WORKLOAD)
    scenario = replace(scenario, traffic=replace(scenario.traffic, ops=OPS))
    runner = ScenarioRunner(scenario)
    result = runner.run()

    stores = [runner.cluster.store(name) for name in runner.cluster.node_names()]
    deletes = sum(store.counters.objects_deleted for store in stores)
    evicted = sum(store.counters.objects_evicted for store in stores)
    announced = sum(store.counters.delete_notifications for store in stores)
    revocations = sum(store.counters.replica_revocations for store in stores)

    # The run must actually exercise all of it: deletes of replicated
    # objects, multi-victim rounds, holders revoking what they handed out.
    assert deletes > 100 and 0 < methods["DropReplica"] <= deletes
    assert len(rounds) >= 3 and min(rounds) > 1 and sum(rounds) == evicted
    assert revocations > 0
    assert not any(outcome.startswith("error:") for outcome in result.outcomes)

    assert expected["revoked"] == revocations
    assert methods["NotifyDeleted"] == expected["announced"] + revocations
    # Far below the blind broadcast's deletes x peers + rounds x peers.
    assert methods["NotifyDeleted"] < (deletes + len(rounds)) * (len(stores) - 1) / 2
    assert not told["NotifyDeleted"] & told["DropReplica"]
    # The counter still means objects announced, whatever the message count.
    assert announced == deletes + evicted
