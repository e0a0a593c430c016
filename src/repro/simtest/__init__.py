"""Deterministic simulation testing (FoundationDB-style) for the cluster.

The whole stack runs on a simulated clock with seeded chaos, so a randomized
workload is exactly replayable from its seed. This package exploits that:

* :mod:`repro.simtest.ops` — the serializable op vocabulary a trace is
  made of (puts, gets, deletes, node lifecycle, faults, maintenance ticks).
* :mod:`repro.simtest.workload` — the seeded weighted generator that
  turns a seed into an op trace.
* :mod:`repro.simtest.model` — the sequential reference model (oracle)
  the cluster is checked against.
* :mod:`repro.simtest.harness` — the runner: applies a trace to a real
  :class:`~repro.core.cluster.Cluster`, checks invariants after every op,
  converges the cluster at the end and sweeps the oracle.
* :mod:`repro.simtest.shrink` — delta-debugging trace minimization plus
  the paste-able pytest reproducer emitter.
* :mod:`repro.simtest.mutations` — known-bug mutations for harness
  self-checks.
* :mod:`repro.simtest.selfcheck` — injects a mutation, asserts the
  harness catches it and shrinks it to a small reproducer.

Entry point: ``python -m repro simtest`` (see :mod:`repro.cli`).
"""

from repro.simtest.harness import (
    RunResult,
    SimulationRunner,
    SweepResult,
    Violation,
    replay_trace,
    run_seed,
    run_seeds,
)
from repro.simtest.ops import Op, make
from repro.simtest.shrink import ShrinkReport, ddmin, emit_pytest, shrink_result
from repro.simtest.selfcheck import SelfCheckReport, run_selfcheck
from repro.simtest.workload import generate_ops

__all__ = [
    "Op",
    "RunResult",
    "SelfCheckReport",
    "ShrinkReport",
    "SimulationRunner",
    "SweepResult",
    "Violation",
    "ddmin",
    "emit_pytest",
    "generate_ops",
    "make",
    "replay_trace",
    "run_seed",
    "run_seeds",
    "run_selfcheck",
    "shrink_result",
]
