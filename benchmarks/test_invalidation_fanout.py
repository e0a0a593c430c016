"""The deletion fan-out on ``write-churn``, counted exactly.

A deletion round costs one message per peer: a delete sends ``DropReplica``
to each replica holder and ``NotifyDeleted`` to every other peer, an
eviction round one ``NotifyDeleted`` carrying all its victims to every peer.
So over any run

    NotifyDeleted RPCs = deletes x peers - DropReplica RPCs
                         + eviction rounds x peers

and no peer is ever sent both messages about one object. The per-object
form this replaced sent 2.98 x as many (19 386 against 6 497 over the
workload's full 19 000 ops, EXPERIMENTS.md), so a regression to it — or a
second message creeping back in beside ``DropReplica`` — fails the equality,
not a latency threshold. The workload file is only read; 2 000 ops keep it
to about a second.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from pathlib import Path

from repro.core.store import DisaggregatedStore
from repro.rpc.server import RpcServer
from repro.workload import ScenarioRunner, load_scenario

WORKLOAD = Path(__file__).parent / "perf" / "workloads" / "write-churn.json"
OPS = 2_000


def test_notify_deleted_rpcs_are_exactly_the_plan(monkeypatch):
    methods = Counter()
    told = {"NotifyDeleted": set(), "DropReplica": set()}  # (peer, object id)
    rounds = []  # victims per announced eviction round

    dispatch = RpcServer.dispatch

    def counting(self, service, method, request):
        methods[method] += 1
        if method in told:
            told[method].update((self.host, raw) for raw in request["object_ids"])
        return dispatch(self, service, method, request)

    announce = DisaggregatedStore._announce_evicted  # noqa: SLF001

    def counting_rounds(self, victims):
        rounds.append(len(victims))
        return announce(self, victims)

    monkeypatch.setattr(RpcServer, "dispatch", counting)
    monkeypatch.setattr(DisaggregatedStore, "_announce_evicted", counting_rounds)

    scenario = load_scenario(WORKLOAD)
    scenario = replace(scenario, traffic=replace(scenario.traffic, ops=OPS))
    runner = ScenarioRunner(scenario)
    result = runner.run()

    stores = [runner.cluster.store(name) for name in runner.cluster.node_names()]
    peers = len(stores) - 1
    deletes = sum(store.counters.get("objects_deleted") for store in stores)
    evicted = sum(store.counters.get("objects_evicted") for store in stores)
    announced = sum(store.counters.get("delete_notifications") for store in stores)

    # The run must actually exercise all three: deletes of replicated
    # objects, deletes without a live holder record, multi-victim rounds.
    assert deletes > 100 and 0 < methods["DropReplica"] <= deletes
    assert len(rounds) >= 3 and min(rounds) > 1 and sum(rounds) == evicted
    assert not any(outcome.startswith("error:") for outcome in result.outcomes)

    assert methods["NotifyDeleted"] == (
        deletes * peers - methods["DropReplica"] + len(rounds) * peers
    )
    assert not told["NotifyDeleted"] & told["DropReplica"]
    # The counter still means objects announced, whatever the message count.
    assert announced == deletes + evicted
