"""`python -m repro metrics` — the observability CLI smoke path."""

import json
from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).with_name("golden_cluster_scrape.txt")


class TestMetricsCommand:
    def test_scrape_covers_subsystems(self, capsys):
        assert main(["metrics", "--nodes", "3", "--objects", "10"]) == 0
        out = capsys.readouterr().out
        prefixes = {
            line.split("{")[0].removeprefix("repro_").split("_")[0]
            for line in out.splitlines()
            if line.startswith("repro_")
        }
        for subsystem in (
            "plasma", "rpc", "thymesisflow", "allocator", "health", "cache",
        ):
            assert subsystem in prefixes, f"missing {subsystem}: {sorted(prefixes)}"

    def test_scrape_has_quantiles_and_top_table(self, capsys):
        assert main(["metrics", "--objects", "8", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        for q in ("0.5", "0.95", "0.99"):
            assert f'quantile="{q}"' in out
        assert "p50_us" in out
        assert "top" in out

    def test_scrape_lines_are_well_formed(self, capsys):
        assert main(["metrics", "--objects", "6"]) == 0
        out = capsys.readouterr().out
        sample_lines = [l for l in out.splitlines() if l.startswith("repro_")]
        assert len(sample_lines) > 50
        for line in sample_lines:
            name_and_labels, _, value = line.rpartition(" ")
            assert name_and_labels
            float(value)  # every exposition value parses as a number

    def test_json_snapshot(self, capsys):
        assert main(["metrics", "--objects", "6", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert "node0" in doc
        families = {f["name"] for f in doc["node0"]["families"]}
        assert "plasma_get_latency_ns" in families

    def test_deterministic_across_runs(self, capsys):
        assert main(["metrics", "--objects", "6", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["metrics", "--objects", "6", "--seed", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_cluster_scrape_matches_golden(self, tmp_path, capsys):
        """The full three-node scrape, zero-valued series included, is
        byte-identical to the checked-in golden (CI ``cmp``s the same
        file): a change that moves one exported line has to regenerate it
        on purpose."""
        out = tmp_path / "scrape.txt"
        assert main([
            "metrics", "--nodes", "3", "--objects", "10", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_rejects_single_node(self, capsys):
        assert main(["metrics", "--nodes", "1"]) == 2
