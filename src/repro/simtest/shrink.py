"""Delta-debugging trace shrinker + pytest reproducer emitter.

Classic ddmin (Zeller/Hildebrandt) over the op list: try dropping
chunks of the trace, keep any subset that still reproduces a violation
of the same kind, refine the granularity, finish with a greedy
one-op-at-a-time pass. Every candidate subset is a valid trace because
ops are replay-safe (unmet preconditions are recorded no-ops), so the
predicate is simply "replay and look for the target violation kind".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.simtest.harness import RunResult, SimulationRunner
from repro.simtest.ops import Op


@dataclass
class ShrinkReport:
    seed: int
    target_kind: str
    original_ops: int
    minimal: list[Op]
    replays: int
    mutation: str | None = None

    def to_trace(self) -> dict:
        out = {"seed": self.seed, "ops": [op.to_obj() for op in self.minimal]}
        if self.mutation is not None:
            out["mutation"] = self.mutation
        return out

    def summary(self) -> str:
        return (
            f"shrunk seed={self.seed} [{self.target_kind}] "
            f"{self.original_ops} -> {len(self.minimal)} ops "
            f"({self.replays} replays)"
        )


def ddmin(
    ops: list[Op],
    predicate: Callable[[list[Op]], bool],
    *,
    budget: int = 400,
) -> tuple[list[Op], int]:
    """Minimize ``ops`` under ``predicate`` (True = still fails).

    Returns (minimal ops, replays used). ``budget`` caps predicate
    calls; on exhaustion the best subset so far is returned.
    """

    calls = 0

    def check(subset: list[Op]) -> bool:
        nonlocal calls
        calls += 1
        return predicate(subset)

    current = list(ops)
    granularity = 2
    while len(current) >= 2 and calls < budget:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current) and calls < budget:
            candidate = current[:start] + current[start + chunk:]
            if candidate and check(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # Re-scan from the top of the shrunk trace.
                start = 0
            else:
                start += chunk
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    # Greedy single-op polish.
    index = 0
    while index < len(current) and calls < budget and len(current) > 1:
        candidate = current[:index] + current[index + 1:]
        if candidate and check(candidate):
            current = candidate
        else:
            index += 1
    return current, calls


def shrink_result(result: RunResult, *, budget: int = 400) -> ShrinkReport:
    """Shrink a failing run to a minimal trace with the same violation kind."""

    if result.ok:
        raise ValueError("cannot shrink a passing run")
    target = result.violations[0].kind

    def predicate(subset: list[Op]) -> bool:
        replay = SimulationRunner(result.seed, mutation=result.mutation).run(subset)
        return any(v.kind == target for v in replay.violations)

    minimal, replays = ddmin(result.ops, predicate, budget=budget)
    return ShrinkReport(
        seed=result.seed,
        target_kind=target,
        original_ops=len(result.ops),
        minimal=minimal,
        replays=replays,
        mutation=result.mutation,
    )


_PYTEST_TEMPLATE = '''\
"""Minimal simulation-trace reproducer, generated by `python -m repro simtest --shrink`.

Replays a shrunk {n_ops}-op trace (seed {seed}, violation kind
"{kind}"). Regenerate with:

    python -m repro simtest --seed {seed} --shrink
"""

import json

import pytest

from repro.simtest.harness import replay_trace

TRACE = json.loads(r\'\'\'
{trace_json}
\'\'\')


@pytest.mark.simtest
def test_{name}():
    result = replay_trace(TRACE)
    {assertion}
'''


def emit_pytest(
    report: ShrinkReport,
    *,
    name: str | None = None,
    expect: str = "violation",
) -> str:
    """Render a standalone pytest module replaying the shrunk trace.

    ``expect="violation"`` asserts the harness still catches the bug
    (used for mutation self-checks, where the trace carries the planted
    mutation); ``expect="clean"`` asserts the trace passes (used as a
    regression test once a real bug is fixed).
    """

    if expect not in ("violation", "clean"):
        raise ValueError("expect must be 'violation' or 'clean'")
    test_name = name or f"seed_{report.seed}_{report.target_kind}".replace("-", "_")
    if expect == "violation":
        assertion = (
            f'assert not result.ok, "harness no longer catches '
            f'{report.target_kind}"\n'
            f'    assert any(v.kind == "{report.target_kind}" '
            "for v in result.violations)"
        )
    else:
        assertion = 'assert result.ok, "\\n" + result.report()'
    trace_json = json.dumps(report.to_trace(), indent=2, sort_keys=True)
    return _PYTEST_TEMPLATE.format(
        n_ops=len(report.minimal),
        seed=report.seed,
        kind=report.target_kind,
        trace_json=trace_json,
        name=test_name,
        assertion=assertion,
    )


def format_trace(report: ShrinkReport) -> str:
    """Human-readable rendering of the minimal trace."""

    lines = [report.summary()]
    lines += [f"  {i:02d} {op.format()}" for i, op in enumerate(report.minimal)]
    return "\n".join(lines)
