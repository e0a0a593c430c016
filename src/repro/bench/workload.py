"""Workload generation: objects with random data.

Paper §IV-B: "The benchmarks commit Plasma objects with random data to one
of the Plasma stores ... The data contents of the objects should not
influence the system performance." Payloads are drawn once per spec from
the deterministic RNG and reused across repetitions (contents don't affect
the modelled timing; reusing the buffer keeps the harness's real wall-clock
cost linear in bytes moved, not in RNG draws).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.specs import BenchmarkSpec
from repro.common.rng import DeterministicRng


@dataclass
class WorkloadData:
    """Reusable payload + scratch buffers for one benchmark spec."""

    spec: BenchmarkSpec
    payload: np.ndarray  # uint8, object_size bytes
    scratch: bytearray  # read destination, object_size bytes

    @property
    def payload_view(self) -> memoryview:
        return memoryview(self.payload)  # type: ignore[arg-type]

    def expected_bytes(self) -> bytes:
        return self.payload.tobytes()


def make_payloads(spec: BenchmarkSpec, rng: DeterministicRng) -> WorkloadData:
    """Random payload + scratch buffer sized for *spec*."""
    payload = rng.payload(spec.object_size_bytes)
    return WorkloadData(
        spec=spec, payload=payload, scratch=bytearray(spec.object_size_bytes)
    )

