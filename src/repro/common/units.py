"""Byte and time unit helpers.

The paper mixes decimal units (Table I sizes in kB) with binary units
(throughput in GiB/s); both families are provided so benchmark code can use
exactly the units the paper prints.
"""

from __future__ import annotations

from repro.common.clock import NS_PER_S

# Binary (IEC) units — used for throughput, matching the paper's GiB/s.
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

# Decimal (SI) units — Table I specifies object sizes in kB.
KB = 1000
MB = 1000 * KB
GB = 1000 * MB


def format_duration_ns(ns: float) -> str:
    """Human-readable duration ('3.21 ms')."""
    if ns < 0:
        raise ValueError("durations are non-negative")
    if ns >= NS_PER_S:
        return f"{ns / NS_PER_S:.3f} s"
    if ns >= 1_000_000:
        return f"{ns / 1_000_000:.3f} ms"
    if ns >= 1_000:
        return f"{ns / 1_000:.3f} us"
    return f"{ns:.0f} ns"


def gib_per_s(nbytes: int, elapsed_ns: float) -> float:
    """Throughput in GiB/s for *nbytes* moved in *elapsed_ns*."""
    if elapsed_ns <= 0:
        raise ValueError("elapsed time must be positive to compute throughput")
    return (nbytes / GiB) / (elapsed_ns / NS_PER_S)
