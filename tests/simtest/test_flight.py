"""The flight recorder rides along with every simtest run.

Simtest clusters run with flight-recorder-only tracing (no sampling, no
retained traces — just bounded per-node span rings). A clean run ships
nothing; an oracle violation ships the rings as ``RunResult.flight``,
and because the whole simulation is deterministic, replaying the same
trace reproduces the dump byte for byte.
"""

import json

import pytest

from repro.simtest.harness import replay_trace, run_seed

# Known-failing configuration: the planted skip_retire mutation trips the
# resurrection oracle at this seed, the first the self-check finds.
FAILING_SEED = 6
FAILING_OPS = 150
MUTATION = "skip_retire"


@pytest.fixture(scope="module")
def failing_result():
    result = run_seed(FAILING_SEED, FAILING_OPS, mutation=MUTATION)
    assert not result.ok, "planted mutation no longer trips the oracle"
    return result


class TestFlightDump:
    def test_clean_run_ships_no_flight_dump(self):
        result = run_seed(0, 60)
        assert result.ok
        assert result.flight is None

    def test_violation_ships_the_per_node_rings(self, failing_result):
        flight = failing_result.flight
        assert flight is not None
        assert flight["schema_version"] == 1
        assert flight["nodes"], "violation dump has no per-node rings"
        for node in flight["nodes"].values():
            assert node["capacity"] > 0
            assert node["dropped"] >= 0
            for span in node["spans"]:
                assert span["span_id"]
                assert span["duration_ns"] >= 0

    def test_replay_reproduces_dump_byte_identically(self, failing_result):
        trace = failing_result.to_trace()
        first = replay_trace(trace)
        second = replay_trace(trace)
        assert first.flight is not None
        assert json.dumps(first.flight, indent=2, sort_keys=True) == json.dumps(
            second.flight, indent=2, sort_keys=True
        )

    def test_tracing_leaves_the_simulation_trace_unchanged(self, failing_result):
        # The violation, its op index, and the full step log are a pure
        # function of (seed, ops, mutation) — the span plane observes the
        # clock but never advances it, so the trace text is stable.
        again = run_seed(FAILING_SEED, FAILING_OPS, mutation=MUTATION)
        assert again.trace_text() == failing_result.trace_text()
