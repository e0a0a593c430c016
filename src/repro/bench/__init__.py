"""Benchmark harness regenerating every table and figure of the paper.

* :data:`TABLE_I` — the six benchmark specifications (paper Table I).
* :func:`run_spec` / :func:`run_table` — the microbenchmark of §IV-B:
  commit objects with random data to one store, retrieve their buffers from
  local and remote clients, read them sequentially; 100 repetitions,
  single-threaded, measuring create/seal, retrieval latency (Fig 6) and
  read throughput (Fig 7).
* :mod:`repro.bench.reporting` — prints the same rows/series the paper
  reports, with the paper's numbers alongside for comparison.
"""

from repro.bench.specs import BenchmarkSpec, TABLE_I, spec_by_index
from repro.bench.workload import WorkloadData, make_payloads
from repro.bench.sweep import (
    CrossoverResult,
    SizePoint,
    object_size_sweep,
    reread_crossover,
)
from repro.bench.micro import (
    MicroBenchConfig,
    PhaseTimings,
    SpecResult,
    run_spec,
    run_table,
)
from repro.bench.reporting import (
    format_table1,
    format_fig6,
    format_fig7,
    PAPER_FIG6_LOCAL_MS,
    PAPER_FIG6_REMOTE_MS,
    PAPER_FIG7_LOCAL_GIBPS,
    PAPER_FIG7_REMOTE_GIBPS,
)

__all__ = [
    "BenchmarkSpec",
    "TABLE_I",
    "spec_by_index",
    "WorkloadData",
    "make_payloads",
    "CrossoverResult",
    "SizePoint",
    "reread_crossover",
    "object_size_sweep",
    "MicroBenchConfig",
    "PhaseTimings",
    "SpecResult",
    "run_spec",
    "run_table",
    "format_table1",
    "format_fig6",
    "format_fig7",
    "PAPER_FIG6_LOCAL_MS",
    "PAPER_FIG6_REMOTE_MS",
    "PAPER_FIG7_LOCAL_GIBPS",
    "PAPER_FIG7_REMOTE_GIBPS",
]
