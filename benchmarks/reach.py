#!/usr/bin/env python3
"""Reach report: which ``src/`` functions and config fields the system uses.

    python benchmarks/reach.py [--check benchmarks/reach_kept.txt] [--jobs 2]

Runs the *system set* — every command the CI rows run outside the
``tests/`` suites and this tool's own row, plus the remaining CLI entry
points (``demo``, ``bench``, ``info``, the ablations) and the examples —
each as a subprocess with ``benchmarks/reach_site`` first on
``PYTHONPATH``. Its ``sitecustomize`` records every code object entered and
every ``repro.common.config`` field that ever held a non-default value (see
that module). ``tests/`` is left out on purpose: every module has unit
tests, so they would reach everything.

Every function in ``src/repro`` is listed with ``ast`` and keyed as CPython
keys its code object: by file and ``co_firstlineno``, which for a decorated
function is its first decorator's line. The report prints a per-package
table, each function no command entered and each settable field no command
set.

With ``--check PATH`` it exits 1 unless the unreached functions are exactly
the entries of PATH. PATH has one ``<file>::<qualname> <reason>`` line per
kept function; the reason is one of ``KEEP_REASONS`` and ``#`` starts a
comment. Stale entries (reached now, or gone) fail the check too, so the
list cannot grow or rot silently. A command that exits with an unexpected
status also fails it, since what it did not run it did not reach.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SITE = Path(__file__).resolve().parent / "reach_site"

#: Why an unreached function may stay.
KEEP_REASONS = {
    "safety": "runs only when something is wrong: quarantine, abort, audit, "
              "a refused input, oracle bookkeeping after an eviction",
    "plasma-api": "the documented client surface (DESIGN §2)",
    "bench-option": "the body of an option no standing command selects",
    "test-hook": "a small accessor or lifecycle call that a test of "
                 "documented behaviour makes",
    "debug": "a dunder",
}

SCENARIOS = (
    "uniform-smoke",
    "zipfian-read-heavy",
    "hotspot-multi-tenant",
    "diurnal-churn",
    "overload-burst",
    "zipfian-tiered",
    "zipfian-async",
)


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    expect: int = 0


@dataclass(frozen=True)
class Function:
    path: str  # relative to the repository root
    qualname: str
    line: int  # co_firstlineno: the first decorator's line, else the def's
    lines: int  # the first decorator's (or the def) line through the last body line
    stub: bool  # abstract, or a body that only raises NotImplementedError / passes

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"


@dataclass
class Reach:
    calls: set[tuple[str, int]]
    fields: dict[str, set[str]]  # "Class.field" -> labels of commands that set it
    failures: list[str]
    seconds: float


def system_set(out: Path) -> list[Command]:
    """The commands whose reach counts, mirroring the CI rows."""
    py = sys.executable
    repro = (py, "-m", "repro")
    pytest = (py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable")
    commands = [
        Command(
            f"workload {name}",
            repro + ("workload", "--scenario", f"benchmarks/scenarios/{name}.json",
                     "--twice", "--out", str(out / name)),
        )
        for name in SCENARIOS
    ]
    commands += [
        Command(
            "workload zipfian-read-heavy --trace",
            repro + ("workload", "--scenario", "benchmarks/scenarios/zipfian-read-heavy.json",
                     "--trace", "--twice", "--out", str(out / "traced")),
        ),
        Command(
            "workload zipfian-async --trace (refused)",
            repro + ("workload", "--scenario", "benchmarks/scenarios/zipfian-async.json",
                     "--trace", "--out", str(out / "refused")),
            expect=2,
        ),
        Command("workload --list", repro + ("workload", "--list")),
        Command(
            "chaos --crash-at-ms 5",
            repro + ("chaos", "--nodes", "3", "--crash-at-ms", "5", "--objects", "20",
                     "--replicas", "2"),
        ),
        Command(
            "chaos (random plan)",
            repro + ("chaos", "--nodes", "3", "--objects", "20", "--replicas", "2"),
        ),
        Command("recover", repro + ("recover", "--nodes", "3", "--objects", "10", "--replicas", "2")),
        Command(
            "topology --drain",
            repro + ("topology", "--nodes", "4", "--objects", "40", "--drain", "node1"),
        ),
        Command("simtest --self-check", repro + ("simtest", "--self-check")),
        Command(
            "simtest --self-check --mutation skip_replica_retire",
            repro + ("simtest", "--self-check", "--mutation", "skip_replica_retire"),
        ),
        Command(
            "simtest --self-check --mutation skip_hit_validation",
            repro + ("simtest", "--self-check", "--mutation", "skip_hit_validation"),
        ),
        Command("simtest smoke", repro + ("simtest", "--profile", "smoke")),
        Command("simtest concurrency", repro + ("simtest", "--profile", "concurrency")),
        Command("simtest tier-hazards", repro + ("simtest", "--profile", "tier-hazards")),
        Command(
            "simtest nightly --base-seed 200 --seeds 8",
            repro + ("simtest", "--profile", "nightly", "--base-seed", "200", "--seeds", "8"),
        ),
        Command("metrics", repro + ("metrics", "--nodes", "3", "--objects", "10")),
        Command(
            "trace",
            repro + ("trace", "--out", str(out / "TRACE_demo.json"),
                     "--snapshot", str(out / "TRACE_demo_snapshot.json")),
        ),
        Command("info", repro + ("info",)),
        Command("demo", repro + ("demo", "--nodes", "2", "--size-mib", "16")),
        Command("bench", repro + ("bench", "--reps", "2")),
    ]
    commands += [
        Command(f"ablation {kind}", repro + ("ablation", kind))
        for kind in ("allocator", "sharing", "cache")
    ]
    commands += [
        Command(f"example {path.name}", (py, str(path.relative_to(ROOT))))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    # The benchmarks/ files, one pytest session per CI row as the rows run
    # them (a session shares its fixtures, e.g. the Table I run).
    rows = {
        "chaos": ("test_chaos_resilience.py",),
        "recover": ("test_integrity_overhead.py",),
        "topology": ("test_rebalance_convergence.py", "test_invalidation_fanout.py"),
        "metrics": ("test_obs_overhead.py",),
        "trace": ("test_trace_overhead.py",),
        "overload": ("test_overload_degradation.py",),
        "async": ("test_async_throughput.py", "test_golden_artifacts.py",
                  "test_eviction_ablation.py"),
        "paper": (
            "test_table1_specs.py", "test_fig6_retrieval_latency.py",
            "test_fig7_read_throughput.py", "test_create_seal.py",
            "test_crossover_sweep.py", "test_allocator_ablation.py",
            "test_sharing_ablation.py", "test_lookup_cache.py",
            "test_multinode_scaling.py", "test_rpc_mode_ablation.py",
            "test_simtest_determinism.py",
        ),
        "perf-harness": ("perf/test_perf_harness.py",),
    }
    commands += [
        Command(f"pytest {row}", pytest + tuple(f"benchmarks/{f}" for f in files))
        for row, files in rows.items()
    ]
    return commands


def collect(
    commands: list[Command],
    src_root: Path,
    pythonpath: list[Path],
    jobs: int = 2,
    cwd: Path = ROOT,
    config_module: str = "repro.common.config",
) -> Reach:
    """Run *commands* under the collector; merge what each process recorded."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        dumps = Path(scratch)

        def run(index: int, command: Command) -> tuple[int, Command, int, str]:
            out = dumps / str(index)
            out.mkdir()
            env = dict(os.environ)
            env.update(
                PYTHONPATH=os.pathsep.join(
                    [str(SITE)] + [str(p) for p in pythonpath]
                    + [p for p in [os.environ.get("PYTHONPATH", "")] if p]
                ),
                REACH_OUT=str(out),
                REACH_SRC=str(src_root),
                REACH_CONFIG_MODULE=config_module,
            )
            done = subprocess.run(
                command.argv, cwd=cwd, env=env, capture_output=True, text=True,
                check=False,
            )
            return index, command, done.returncode, done.stdout[-2000:] + done.stderr[-2000:]

        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            results = list(pool.map(lambda item: run(*item), enumerate(commands)))

        calls: set[tuple[str, int]] = set()
        fields: dict[str, set[str]] = defaultdict(set)
        failures = []
        for index, command, status, tail in results:
            if status != command.expect:
                failures.append(
                    f"{command.label}: exit {status}, expected {command.expect}\n{tail}"
                )
            for dump in sorted((dumps / str(index)).glob("reach-*.json")):
                record = json.loads(dump.read_text("utf-8"))
                calls.update((path, line) for path, line in record["calls"])
                for name in record["fields"]:
                    fields[name].add(command.label)
    return Reach(calls, dict(fields), failures, time.perf_counter() - started)


def is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A declaration with nothing to run: ``@abstractmethod``, or a body
    (past its docstring) that is empty, ``pass``, ``...`` or a bare
    ``raise NotImplementedError``. Such a function is never entered by
    design, so it is counted but not listed as unreached."""
    if any(ast.unparse(d).endswith("abstractmethod") for d in node.decorator_list):
        return True
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def list_functions(src_root: Path, base: Path = ROOT) -> list[Function]:
    """Every function and method defined under *src_root*, nested ones too."""
    found: list[Function] = []

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append(Function(
                    path, qualname, first, child.end_lineno - first + 1, is_stub(child)
                ))
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for file in sorted(src_root.rglob("*.py")):
        tree = ast.parse(file.read_text("utf-8"), filename=str(file))
        visit(tree, file.resolve().relative_to(base).as_posix(), "")
    return found


def settable_fields(config_module: str = "repro.common.config") -> list[str]:
    """``Class.field`` for every field of every dataclass in the config module."""
    import dataclasses
    import importlib

    module = importlib.import_module(config_module)
    return sorted(
        f"{cls.__name__}.{f.name}"
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__ == module.__name__
        for f in dataclasses.fields(cls)
    )


def unreached(functions: list[Function], reach: Reach, base: Path = ROOT) -> list[Function]:
    return [
        f for f in functions
        if not f.stub and (str((base / f.path).resolve()), f.line) not in reach.calls
    ]


def read_kept(path: Path) -> tuple[dict[str, str], list[str]]:
    """``{name: reason}`` from a kept list, and one error per malformed line."""
    kept: dict[str, str] = {}
    errors = []
    for number, raw in enumerate(path.read_text("utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in KEEP_REASONS:
            errors.append(
                f"{path.name}:{number}: want '<file>::<qualname> <reason>' with a "
                f"reason in {sorted(KEEP_REASONS)}, got {raw.strip()!r}"
            )
            continue
        kept[parts[0]] = parts[1]
    return kept, errors


def package_of(function: Function) -> str:
    parts = Path(function.path).parts
    inner = parts[parts.index("repro") + 1:]
    return inner[0] if len(inner) > 1 else Path(inner[0]).stem


def report(functions: list[Function], missed: list[Function], reach: Reach,
           fields: list[str], kept: dict[str, str]) -> str:
    rows: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for f in functions:
        rows[package_of(f)][0] += 1
        rows[package_of(f)][2] += f.lines
    for f in missed:
        rows[package_of(f)][1] += 1
        rows[package_of(f)][3] += f.lines
    out = [f"reach: {reach.seconds:.0f} s wall", ""]
    header = f"{'package':<14}{'functions':>10}{'unreached':>10}{'lines':>8}{'unreached':>10}"
    out += [header, "-" * len(header)]
    for name in sorted(rows):
        total, miss, lines, miss_lines = rows[name]
        out.append(f"{name:<14}{total:>10}{miss:>10}{lines:>8}{miss_lines:>10}")
    out.append("-" * len(header))
    out.append(
        f"{'total':<14}{len(functions):>10}{len(missed):>10}"
        f"{sum(f.lines for f in functions):>8}{sum(f.lines for f in missed):>10}"
    )
    stubs = sum(f.stub for f in functions)
    out += ["", f"unreached functions ({len(missed)}; {stubs} stubs are counted above "
                "but never listed):"]
    for f in missed:
        out.append(f"  {f.name} ({f.lines} lines) [{kept.get(f.name, 'not kept')}]")
    never = [name for name in fields if name not in reach.fields]
    bench_only = [
        name for name in fields
        if name in reach.fields and all(
            label.startswith("pytest ") for label in reach.fields[name]
        )
    ]
    out += ["", f"config fields: {len(fields)} settable, {len(never)} never set, "
                f"{len(bench_only)} set only by benchmarks/ suites"]
    out += [f"  never set: {name}" for name in never]
    out += [f"  benchmarks/ only: {name} ({', '.join(sorted(reach.fields[name]))})"
            for name in bench_only]
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="PATH", type=Path, default=None,
                        help="exit 1 unless the unreached functions are exactly PATH's entries")
    parser.add_argument("--jobs", type=int, default=2, help="commands run at once")
    args = parser.parse_args(argv)

    kept, errors = read_kept(args.check) if args.check else ({}, [])
    with tempfile.TemporaryDirectory(prefix="reach-out-") as out:
        reach = collect(system_set(Path(out)), SRC / "repro", [SRC], jobs=args.jobs)
    functions = list_functions(SRC / "repro")
    missed = unreached(functions, reach)
    sys.path.insert(0, str(SRC))
    print(report(functions, missed, reach, settable_fields(), kept))

    errors += [f"command failed -- {failure}" for failure in reach.failures]
    if args.check:
        names = {f.name for f in functions}
        missed_names = {f.name for f in missed}
        errors += [f"unreached and not kept: {f.name}" for f in missed if f.name not in kept]
        errors += [f"kept but reached: {name}" for name in kept
                   if name in names and name not in missed_names]
        errors += [f"kept but gone: {name}" for name in kept if name not in names]
    for error in errors:
        print(f"reach: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
