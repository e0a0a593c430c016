"""Pinned client-visible outcomes of the async ``concurrency`` profile.

Each golden is a ``concurrency`` run's ``trace_text()``: one line per op
with its outcome under the event-loop RPC plane (pipelined data-path ops,
batched multi-gets, mid-trace mode flips, chaos). A change to the store's
lookup, pin or deletion fan-out that moves the async event schedule shows
up here as a changed outcome line.

Regenerate a golden only when the schedule is meant to move::

    PYTHONPATH=src python -c "from repro.simtest.harness import run_seed; \\
        print(run_seed(SEED, 200, profile='concurrency').trace_text(), end='')" \\
        > tests/simtest/golden/concurrency_seedSEED.txt
"""

from pathlib import Path

import pytest

from repro.simtest.harness import run_seed

GOLDEN = Path(__file__).parent / "golden"
N_OPS = 200


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_concurrency_trace_matches_golden(seed):
    result = run_seed(seed, N_OPS, profile="concurrency")
    assert result.ok, result.report()
    golden = (GOLDEN / f"concurrency_seed{seed}.txt").read_text()
    assert result.trace_text() == golden
