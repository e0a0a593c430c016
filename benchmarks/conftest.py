"""Shared benchmark fixtures.

The full Table I microbenchmark (100 repetitions x 6 specs x local+remote,
the paper's exact protocol) runs once per pytest session; the Fig 6 / Fig 7
/ create-seal benchmarks consume its results, print the paper-vs-measured
tables, and assert the shapes. Individual tests additionally use
pytest-benchmark on the real underlying operations so `--benchmark-only`
reports honest wall-clock numbers for this implementation.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import MicroBenchConfig, run_table
from repro.bench.specs import PAPER_REPETITIONS
from repro.common.config import ClusterConfig
from repro.common.units import MiB
from repro.core import Cluster


def pytest_addoption(parser):
    parser.addoption(
        "--emit-bench-json",
        metavar="DIR",
        default=None,
        help="also write BENCH_*.json artifacts for the paper figures "
             "(Fig 6/7) to DIR, via the same canonical writer the "
             "workload scenarios use",
    )


@pytest.fixture(scope="session")
def bench_json_dir(request) -> Path | None:
    """Destination for BENCH_*.json artifacts, or None when not requested."""
    value = request.config.getoption("--emit-bench-json")
    return Path(value) if value else None


@pytest.fixture(scope="session")
def table_results():
    """Run the paper's full protocol once (all specs, 100 repetitions)."""
    return run_table(MicroBenchConfig(repetitions=PAPER_REPETITIONS))


@pytest.fixture()
def bench_cluster():
    """A small 2-node cluster for wall-clock micro-measurements."""
    cfg = ClusterConfig().with_store(
        capacity_bytes=64 * MiB, check_remote_uniqueness=False
    )
    return Cluster(cfg)
