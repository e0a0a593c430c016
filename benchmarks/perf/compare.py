#!/usr/bin/env python3
"""Compare two sets of PERF artifacts, one row per (workload, metric).

    python benchmarks/perf/compare.py A/ B/

``A`` is the base (the parent commit), ``B`` the change. Every end-to-end
metric in ``BENCHMARK.json`` gets a row with both values, the change as a
ratio *of its base*, the bound, and a verdict:

* ``better`` / ``worse`` — B moved past the bound in that direction;
* ``same`` — within the bound (``=`` marks values that are bit-identical,
  which every ``sim`` metric must be for a host-only change);
* ``unresolved`` — the repeat-to-repeat spread (max-min over median) of
  either side is wider than the bound, so the run cannot tell.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(entry: dict) -> float:
    if "min" not in entry or not entry["value"]:
        return 0.0
    return (entry["max"] - entry["min"]) / abs(entry["value"])


def verdict(metric: dict, a: dict, b: dict) -> str:
    base = a["value"]
    change = (b["value"] - base) / base if base else 0.0
    worse_by = change if metric["better"] == "lower" else -change
    bound = metric["bound"]
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(dir_a: Path, dir_b: Path) -> int:
    spec = json.loads(SPEC_PATH.read_text("utf-8"))
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        paths = [d / f"PERF_{workload}.json" for d in (dir_a, dir_b)]
        if not all(p.is_file() for p in paths):
            print(f"{workload}: missing in {' and '.join(str(p.parent) for p in paths if not p.is_file())}")
            continue
        a, b = (json.loads(p.read_text("utf-8"))["end_to_end"]["metrics"] for p in paths)
        for metric in spec["end_to_end"]:
            ea, eb = a[metric["name"]], b[metric["name"]]
            rows.append(
                (
                    workload,
                    metric["name"],
                    f"{ea['value']:.6g}",
                    f"{eb['value']:.6g}",
                    f"{eb['value'] / ea['value']:.4f} x A" if ea["value"] else "-",
                    f"{max(spread(ea), spread(eb)):.1%}",
                    f"{metric['bound']:.1%}",
                    verdict(metric, ea, eb) + (" =" if ea["value"] == eb["value"] else ""),
                    metric["unit"],
                )
            )
    header = ("workload", "metric", "A", "B", "B/A", "spread", "bound", "verdict", "unit")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    worse = [r for r in rows if r[7].startswith("worse")]
    unresolved = [r for r in rows if r[7].startswith("unresolved")]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
