"""CLI smoke/behaviour tests (python -m repro ...)."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

SCENARIOS = Path(__file__).resolve().parents[2] / "benchmarks" / "scenarios"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_spec_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--spec", "9"])

    def test_ablation_kind_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "nonsense"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "6.50 GiB/s" in out
        assert "5.75 GiB/s" in out
        assert "subsystems" in out

    def test_demo(self, capsys):
        assert main(["demo", "--size-mib", "4"]) == 0
        out = capsys.readouterr().out
        assert "remote retrieval" in out
        assert "GiB/s" in out

    def test_demo_multinode(self, capsys):
        assert main(["demo", "--nodes", "3", "--size-mib", "2"]) == 0
        assert "committed" in capsys.readouterr().out

    def test_demo_with_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "demo.trace.json"
        assert main(["demo", "--size-mib", "2", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace spans" in out
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        categories = {e["cat"] for e in doc["traceEvents"]}
        assert {"rpc", "store"} <= categories

    def test_bench_single_spec(self, capsys):
        assert main(["bench", "--spec", "6", "--reps", "3"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "Fig 6" in out
        assert "Fig 7" in out
        assert "Create/write/seal" in out

    def test_ablation_allocator(self, capsys):
        assert main(["ablation", "allocator"]) == 0
        out = capsys.readouterr().out
        for name in ("first_fit", "dlmalloc", "buddy"):
            assert name in out

    def test_ablation_sharing(self, capsys):
        assert main(["ablation", "sharing"]) == 0
        out = capsys.readouterr().out
        rows = [line.split(":")[0].strip() for line in out.splitlines()[1:]]
        assert rows == ["rpc (paper)", "hashmap", "scale-out"]

    def test_workload_trace_refuses_an_async_scenario(self, capsys, tmp_path):
        # The span sink stays detached under the event loop, so there is no
        # trace to write: refuse up front instead of failing after the run.
        code = main([
            "workload", "--scenario", str(SCENARIOS / "zipfian-async.json"),
            "--trace", "--out", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "--trace" in err and "rpc.mode='async'" in err
        assert list(tmp_path.iterdir()) == []

    def test_ablation_cache(self, capsys):
        assert main(["ablation", "cache"]) == 0
        out = capsys.readouterr().out
        assert "no cache" in out
