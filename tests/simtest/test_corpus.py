"""Golden-seed regression corpus.

Every trace that ever exposed a bug lives in ``corpus/`` and is replayed
on every test run. Entries carry an ``expect`` key:

* ``"clean"`` — a real bug fixed in the tree; the trace must stay green.
* ``"violation"`` — a planted mutation (named in ``mutation``); the
  harness must keep catching it with the recorded violation ``kind``.
"""

import json
from pathlib import Path

import pytest

from repro.simtest.harness import SimulationRunner, replay_trace
from repro.simtest.ops import Op

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_corpus_is_not_empty():
    assert CORPUS, "golden-seed corpus is missing"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_trace(path):
    trace = _load(path)
    result = replay_trace(trace)
    if trace["expect"] == "clean":
        assert result.ok, f"{path.stem} regressed:\n{result.report()}"
    else:
        assert not result.ok, (
            f"{path.stem}: harness no longer catches mutation "
            f"{trace.get('mutation')!r}"
        )
        kinds = {v.kind for v in result.violations}
        assert trace["kind"] in kinds, (
            f"{path.stem}: expected violation kind {trace['kind']!r}, "
            f"got {sorted(kinds)}"
        )


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_traces_stripped_of_mutation_are_clean(path):
    """The planted-mutation traces must pass on the real (fixed) code —
    proving each corpus schedule is clean without its mutation."""
    trace = dict(_load(path))
    trace.pop("mutation", None)
    result = replay_trace(trace)
    assert result.ok, f"{path.stem} without mutation:\n{result.report()}"


def test_eviction_round_trace_takes_the_lost_push_path():
    """``eviction_round_lost_push`` is only worth replaying while it still
    drives what its note says: one multi-victim round whose single message
    to the partitioned peer is lost, and that peer's later reads failing
    the generation check instead of being answered from a cache."""
    trace = _load(Path(__file__).parent / "corpus" / "eviction_round_lost_push.json")
    runner = SimulationRunner(trace["seed"])
    result = runner.run([Op.from_obj(item) for item in trace["ops"]])
    assert result.ok, result.report()
    evictor, cut_off = runner.cluster.store("node0"), runner.cluster.store("node1")
    assert evictor.counters.get("objects_evicted") == 4
    assert evictor.counters.get("delete_notifications") == 4
    assert evictor.counters.get("peers_unavailable") == 1  # one round, one loss
    assert cut_off.counters.get("stale_descriptor_refreshes") == 4
    outcomes = [step.rsplit(" -> ", 1)[1] for step in result.steps if " get(" in step]
    assert outcomes[-7:] == ["stale"] * 4 + ["notfound", "notfound", "ok"]


def test_replica_revocation_trace_takes_the_lost_revocation_path():
    """``replica_revocation_lost_push`` is only worth replaying while the
    reader really resolved through the replica holder and the holder's
    revocation — not the home's delete — is the message the partition ate:
    the home tells nobody, the holder's one revocation goes unanswered, and
    the reader's next reads fail the generation check. Replaying it twice
    leaves every node's flight recorder byte-identical."""
    trace = _load(Path(__file__).parent / "corpus" / "replica_revocation_lost_push.json")
    dumps = []
    for _ in range(2):
        runner = SimulationRunner(trace["seed"])
        result = runner.run([Op.from_obj(item) for item in trace["ops"]])
        assert result.ok, result.report()
        home, holder, reader = (runner.cluster.store(n) for n in ("node0", "node1", "node2"))
        assert home.counters.get("delete_notifications") == 1
        assert home.counters.get("peers_unavailable") == 0  # nothing to send
        assert holder.counters.get("replica_revocations") == 1
        assert holder.counters.get("peers_unavailable") == 1  # the lost one
        assert holder.counters.get("replicas_dropped") == 1
        assert reader.counters.get("stale_descriptor_refreshes") == 1
        outcomes = [s.rsplit(" -> ", 1)[1] for s in result.steps if " get(node=node2, obj=1)" in s]
        assert outcomes == ["ok", "stale", "notfound"]
        dumps.append(json.dumps(runner.cluster.spans.flight_dump(), sort_keys=True))
    assert dumps[0] == dumps[1]
