"""Simulation harness: clean runs, byte-identical replay, oracle teeth."""

from dataclasses import replace

import pytest

from repro.simtest import harness
from repro.simtest.harness import SimulationRunner, replay_trace, run_seed, run_seeds
from repro.simtest.model import ObjState, payload_for
from repro.simtest.ops import make
from repro.simtest.workload import generate_ops


def test_clean_seed_runs_without_violations():
    result = run_seed(0, 60)
    assert result.ok, result.report()
    assert len(result.steps) >= 60


def test_same_seed_byte_identical_trace():
    first = run_seed(3, 80)
    second = run_seed(3, 80)
    assert first.trace_text() == second.trace_text()


@pytest.mark.slow
@pytest.mark.simtest
def test_small_sweep_is_clean():
    sweep = run_seeds(6, 120)
    assert sweep.ok, sweep.summary()


def test_handcrafted_trace_put_get_delete():
    ops = [
        make("put", obj=0, node="node0", size=256, replicas=2),
        make("get", obj=0, node="node1"),
        make("delete", obj=0),
        make("get", obj=0, node="node2"),
    ]
    runner = SimulationRunner(11)
    result = runner.run(ops)
    assert result.ok, result.report()
    assert runner.model.state(0) is ObjState.DELETED_CLEAN


def test_replay_safe_ops_skip_unmet_preconditions():
    """Arbitrary subsets (what the shrinker generates) must stay valid:
    ops on unknown objects/nodes become recorded no-ops."""
    ops = [
        make("get", obj=9, node="node0"),        # never put
        make("delete", obj=9),                   # never put
        make("recover", node="node1"),           # never crashed
        make("heal", a="node0", b="node1"),      # never partitioned
        make("remove", node="node2"),            # still ACTIVE
    ]
    result = SimulationRunner(1).run(ops)
    assert result.ok, result.report()
    assert "skip" in result.steps[1]


def test_crash_and_recover_round_trip():
    ops = [
        make("put", obj=0, node="node0", size=1024, replicas=2),
        make("crash", node="node0"),
        make("advance", ms=300),
        make("health"),
        make("recover", node="node0"),
        make("get", obj=0, node="node0"),
    ]
    result = SimulationRunner(5).run(ops)
    assert result.ok, result.report()


def test_oracle_catches_planted_resurrection():
    """With the retire-before-free mutation planted, a delete + crash
    schedule must produce a resurrection violation."""
    ops = [
        make("put", obj=0, node="node0", size=512, replicas=1),
        make("delete", obj=0),
        make("crash", node="node1"),
    ]
    result = SimulationRunner(1, mutation="skip_retire").run(ops)
    # The planted bug leaves the sealed header in region memory; the
    # converge-phase recovery resurrects it somewhere.
    assert not result.ok
    assert any(v.kind == "resurrection" for v in result.violations)


def test_replay_trace_round_trip():
    result = run_seed(4, 50)
    replayed = replay_trace(result.to_trace())
    assert replayed.trace_text() == result.trace_text()


def test_payloads_are_seed_independent():
    assert payload_for(7, 64) == payload_for(7, 64)
    assert payload_for(7, 64) != payload_for(8, 64)


def test_generated_trace_replay_matches_run_seed():
    ops = generate_ops(9, 60)
    direct = SimulationRunner(9).run(ops)
    via_helper = run_seed(9, 60)
    assert direct.trace_text() == via_helper.trace_text()


def test_concurrency_profile_seed_is_clean_and_replays_identically():
    first = run_seed(3, 120, profile="concurrency")
    assert first.ok, first.report()
    assert "set_rpc_mode(mode=async)" in first.steps[0]
    second = run_seed(3, 120, profile="concurrency")
    assert first.trace_text() == second.trace_text()


@pytest.mark.slow
@pytest.mark.simtest
def test_small_concurrency_sweep_is_clean():
    sweep = run_seeds(6, 120, profile="concurrency")
    assert sweep.ok, sweep.summary()


def test_handcrafted_async_multi_get_mixes_hits_and_misses():
    ops = [
        make("set_rpc_mode", mode="async"),
        make("put", obj=0, node="node0", size=512, replicas=1),
        make("put", obj=1, node="node1", size=512, replicas=1),
        make("multi_get", objs="0,7,1,0", node="node2"),
    ]
    result = SimulationRunner(2).run(ops)
    assert result.ok, result.report()
    assert result.steps[3].endswith("-> ok,notfound,ok,ok")


#: node0 reads obj 3 (homed on node2) into its hot cache; node2's breaker
#: towards node0, opened during the partition, drops the delete's
#: NotifyDeleted. A copy of obj 12 later lands in obj 3's old extent on
#: node2 while node0's cache still views it, and the final sweep reads obj 3
#: through that cache. (The shrunk self-check trace of skip_hit_validation.)
REUSE_HAZARD = [
    make("partition", a="node1", b="node2"),
    make("partition", a="node2", b="node0"),
    make("health"),
    make("put", node="node2", obj=3, replicas=3, size=4096),
    make("heal", a="node0", b="node2"),
    make("get", node="node0", obj=3),
    make("delete", obj=3),
    make("put", node="node1", obj=12, replicas=2, size=8192),
]


def test_reused_extent_is_never_served_from_the_hot_cache():
    """The header no longer vouches for obj 3's cached descriptor, so the
    sweep's Get drops it with the cached payload instead of hitting."""
    runner = SimulationRunner(0)
    result = runner.run(REUSE_HAZARD)
    assert result.ok, result.report()
    cache = runner.cluster.tier_agent("node0").cache
    assert (cache.admissions, cache.hits, cache.invalidations) == (1, 0, 1)


def test_skipped_hit_validation_serves_the_reused_extent():
    result = SimulationRunner(0, mutation="skip_hit_validation").run(REUSE_HAZARD)
    assert [v.kind for v in result.violations] == ["wrong-bytes"]


#: Shrunk from ``concurrency`` seed 92: node0 reads obj 7 (so it keeps the
#: descriptor) and misses the delete's NotifyDeleted, because node1's
#: breaker towards node0 is still open from the crash. The last read must
#: resolve obj 7 missing through the stale descriptor, with the tier plane
#: on (no cached payload served) and off (no stale read).
LOST_DELETE_MULTI_GET = [
    make("crash", node="node0"),
    make("put", node="node2", obj=0, replicas=3, size=4096),
    make("put", node="node2", obj=3, replicas=2, size=64),
    make("recover", node="node0"),
    make("put", node="node2", obj=6, replicas=1, size=1024),
    make("put", node="node1", obj=7, replicas=3, size=4096),
    make("get", node="node0", obj=7),
    make("delete", obj=7),
    make("multi_get", node="node0", objs="7,6,2,24,13,23"),
]


@pytest.mark.parametrize("tiering", [True, False], ids=["tiered", "untiered"])
def test_lost_delete_reads_the_same_with_the_tier_plane_on_and_off(
    tiering, monkeypatch
):
    if not tiering:
        monkeypatch.setattr(
            harness, "CLUSTER_CONFIG", replace(harness.CLUSTER_CONFIG, tier=None)
        )
    result = SimulationRunner(92).run(LOST_DELETE_MULTI_GET)
    assert result.ok, result.report()
    assert result.steps[7].endswith("delete(obj=7) -> ok:dirty")
    assert result.steps[8].endswith(
        "-> notfound,ok,notfound,notfound,notfound,notfound"
    )


@pytest.mark.slow
@pytest.mark.simtest
def test_small_tier_hazards_sweep_is_clean():
    sweep = run_seeds(6, 120, profile="tier-hazards")
    assert sweep.ok, sweep.summary()
