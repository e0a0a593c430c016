"""Harness self-check: prove the oracle catches a planted bug.

Runs the sweep with a known mutation applied (default: the pre-PR2
"free without retiring the header" bug), asserts a violation is found
within the seed budget, shrinks the failing trace, and emits a runnable
pytest reproducer. If the harness ever stops catching the mutation the
self-check fails — this guards the guard.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simtest.harness import RunResult, run_seed
from repro.simtest.mutations import SELF_CHECK_PROFILES
from repro.simtest.shrink import ShrinkReport, emit_pytest, shrink_result


@dataclass
class SelfCheckReport:
    mutation: str
    caught: bool
    seeds_tried: int
    failing: RunResult | None = None
    shrink: ShrinkReport | None = None
    pytest_source: str | None = None

    def summary(self) -> str:
        if not self.caught:
            return (
                f"self-check FAILED: mutation {self.mutation!r} not caught "
                f"in {self.seeds_tried} seeds"
            )
        assert self.failing is not None and self.shrink is not None
        violation = self.failing.violations[0]
        return (
            f"self-check OK: mutation {self.mutation!r} caught at seed "
            f"{self.failing.seed} [{violation.kind}], shrunk "
            f"{self.shrink.original_ops} -> {len(self.shrink.minimal)} ops"
        )


def run_selfcheck(
    *,
    mutation: str = "skip_retire",
    max_seeds: int = 40,
    n_ops: int = 150,
    base_seed: int = 0,
    budget: int = 400,
) -> SelfCheckReport:
    """Inject ``mutation``, scan seeds of its workload profile until the
    harness catches it, shrink."""

    profile = SELF_CHECK_PROFILES.get(mutation, "default")
    failing: RunResult | None = None
    tried = 0
    for offset in range(max_seeds):
        tried += 1
        result = run_seed(
            base_seed + offset, n_ops, mutation=mutation, profile=profile
        )
        if not result.ok:
            failing = result
            break
    if failing is None:
        return SelfCheckReport(mutation=mutation, caught=False, seeds_tried=tried)
    report = shrink_result(failing, budget=budget)
    source = emit_pytest(report, expect="violation")
    return SelfCheckReport(
        mutation=mutation,
        caught=True,
        seeds_tried=tried,
        failing=failing,
        shrink=report,
        pytest_source=source,
    )
