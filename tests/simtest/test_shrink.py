"""Trace shrinker: ddmin behaviour, reproducer emission, self-check."""

import pytest

from repro.simtest.harness import SimulationRunner, run_seed
from repro.simtest.ops import make
from repro.simtest.selfcheck import run_selfcheck
from repro.simtest.shrink import ddmin, emit_pytest, shrink_result


def test_ddmin_finds_single_culprit():
    ops = [make("advance", ms=1) for _ in range(16)]
    culprit = make("health")
    ops.insert(9, culprit)

    def predicate(subset):
        return culprit in subset

    minimal, replays = ddmin(ops, predicate)
    assert minimal == [culprit]
    assert replays > 0


def test_ddmin_keeps_cooperating_pair():
    a = make("advance", ms=5)
    b = make("health")
    ops = [make("advance", ms=1) for _ in range(10)] + [a] + \
          [make("advance", ms=2) for _ in range(10)] + [b]

    def predicate(subset):
        return a in subset and b in subset

    minimal, _ = ddmin(ops, predicate)
    assert minimal == [a, b]


def test_ddmin_budget_caps_replays():
    ops = [make("advance", ms=1) for _ in range(64)]

    def predicate(subset):
        return True

    minimal, replays = ddmin(ops, predicate, budget=10)
    assert replays <= 11


def test_shrink_result_requires_failure():
    with pytest.raises(ValueError):
        shrink_result(run_seed(0, 20))


@pytest.mark.slow
@pytest.mark.simtest
def test_shrink_planted_bug_to_small_trace():
    ops = [
        make("put", obj=0, node="node0", size=512, replicas=1),
        make("advance", ms=10),
        make("get", obj=0, node="node1"),
        make("delete", obj=0),
        make("health"),
        make("crash", node="node1"),
        make("advance", ms=60),
    ]
    failing = SimulationRunner(1, mutation="skip_retire").run(ops)
    assert not failing.ok
    report = shrink_result(failing)
    assert len(report.minimal) <= 4
    replay = SimulationRunner(1, mutation="skip_retire").run(report.minimal)
    assert any(v.kind == report.target_kind for v in replay.violations)


@pytest.mark.slow
@pytest.mark.simtest
def test_selfcheck_catches_and_shrinks_mutation(tmp_path):
    report = run_selfcheck(mutation="skip_retire", max_seeds=10, n_ops=150)
    assert report.caught, report.summary()
    assert len(report.shrink.minimal) <= 25
    # The emitted reproducer must be a runnable pytest module.
    path = tmp_path / "test_repro.py"
    path.write_text(report.pytest_source)
    compiled = compile(report.pytest_source, str(path), "exec")
    namespace = {}
    exec(compiled, namespace)  # noqa: S102 - executing our own generated test
    test_fns = [v for k, v in namespace.items() if k.startswith("test_")]
    assert len(test_fns) == 1
    test_fns[0]()  # asserts the harness still catches the mutation


@pytest.mark.slow
@pytest.mark.simtest
def test_selfcheck_sweeps_the_profile_that_exposes_the_mutation():
    report = run_selfcheck(mutation="skip_hit_validation", max_seeds=10)
    assert report.caught, report.summary()
    assert len(report.shrink.minimal) <= 25


def test_emit_pytest_clean_expectation():
    failing = SimulationRunner(1, mutation="skip_retire").run([
        make("put", obj=0, node="node0", size=512, replicas=1),
        make("delete", obj=0),
        make("crash", node="node1"),
    ])
    report = shrink_result(failing)
    source = emit_pytest(report, expect="clean", name="example")
    assert "def test_example" in source
    assert "assert result.ok" in source
