"""`python -m repro trace` and the `metrics --out` file path."""

import json
from pathlib import Path

from repro.cli import main


class TestTraceCommand:
    def test_writes_chrome_trace_and_prints_attribution(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main([
            "trace", "--objects", "4", "--rounds", "1", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["args"]["trace_id"]
            assert event["args"]["span_id"]
        text = capsys.readouterr().out
        assert "components sum exactly: True" in text
        assert "put" in text

    def test_snapshot_and_flight_outputs(self, tmp_path, capsys):
        snap_path = tmp_path / "snap.json"
        flight_path = tmp_path / "flight.json"
        rc = main([
            "trace", "--objects", "3", "--rounds", "1",
            "--out", str(tmp_path / "trace.json"),
            "--snapshot", str(snap_path),
            "--flight", str(flight_path),
        ])
        assert rc == 0
        snap = json.loads(snap_path.read_text(encoding="utf-8"))
        assert snap["schema_version"] == 1
        assert snap["traces"]
        flight = json.loads(flight_path.read_text(encoding="utf-8"))
        assert flight["nodes"]

    def test_artifacts_are_deterministic(self, tmp_path):
        paths = []
        for label in ("a", "b"):
            out = tmp_path / f"trace_{label}.json"
            assert main([
                "trace", "--objects", "3", "--rounds", "1", "--out", str(out),
            ]) == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_checked_in_demo_artifacts_are_current(self, tmp_path):
        """``TRACE_demo.json`` and its snapshot at the repo root are what
        the default command writes, byte for byte (CI ``cmp``s the same
        pair): a change to the span plane that moves an exported byte has
        to regenerate them on purpose."""
        root = Path(__file__).resolve().parents[2]
        out, snap = tmp_path / "trace.json", tmp_path / "snap.json"
        assert main(["trace", "--out", str(out), "--snapshot", str(snap)]) == 0
        assert out.read_bytes() == (root / "TRACE_demo.json").read_bytes()
        assert snap.read_bytes() == (root / "TRACE_demo_snapshot.json").read_bytes()

    def test_sample_rate_zero_still_exact(self, tmp_path, capsys):
        rc = main([
            "trace", "--objects", "3", "--rounds", "1",
            "--sample-rate", "0.0", "--out", str(tmp_path / "t.json"),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "components sum exactly: True" in text


class TestMetricsOut:
    def test_scrape_to_file(self, tmp_path, capsys):
        out = tmp_path / "scrape.txt"
        rc = main([
            "metrics", "--objects", "6", "--rounds", "1", "--out", str(out),
        ])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert any(
            line.startswith("repro_") for line in text.splitlines()
        )
        assert f"wrote {out}" in capsys.readouterr().out

    def test_json_snapshot_to_file(self, tmp_path):
        out = tmp_path / "snap.json"
        rc = main([
            "metrics", "--objects", "6", "--rounds", "1",
            "--json", "--out", str(out),
        ])
        assert rc == 0
        snapshot = json.loads(out.read_text(encoding="utf-8"))
        assert snapshot
