"""Streaming statistics and distribution summaries.

Figure 7 of the paper is a box plot of per-repetition throughput; the bench
harness reproduces it as printed distribution summaries. `Distribution`
keeps raw samples for exact quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class Distribution:
    """Raw-sample distribution with box-plot quantiles.

    Keeps every sample (benchmark repetition counts are small — the paper
    uses 100 reps per benchmark) so exact quantiles are available.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted: list[float] | None = None

    def add(self, x: float) -> None:
        self._samples.append(float(x))
        self._sorted = None

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def _ordered(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile, q in [0, 1]."""
        if not self._samples:
            raise ValueError("no samples")
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        xs = self._ordered()
        pos = q * (len(xs) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        if lo == hi or xs[lo] == xs[hi]:
            return xs[lo]
        # x_lo + f*(x_hi - x_lo) rather than the two-product form: IEEE
        # multiplication is monotone in f, so quantiles never invert by a
        # rounding ulp.
        frac = pos - lo
        return xs[lo] + frac * (xs[hi] - xs[lo])

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no samples")
        return sum(self._samples) / len(self._samples)

    @property
    def min(self) -> float:
        return self._ordered()[0]

    @property
    def max(self) -> float:
        return self._ordered()[-1]

    def iqr(self) -> tuple[float, float]:
        """(Q1, Q3) — the box of a box plot."""
        return self.quantile(0.25), self.quantile(0.75)

    def summary(self) -> "DistributionSummary":
        q1, q3 = self.iqr()
        return DistributionSummary(
            count=self.count,
            mean=self.mean,
            median=self.median,
            q1=q1,
            q3=q3,
            min=self.min,
            max=self.max,
        )


@dataclass(frozen=True)
class DistributionSummary:
    """The five-number summary (plus mean/count) a box plot renders."""

    count: int
    mean: float
    median: float
    q1: float
    q3: float
    min: float
    max: float

    def format(self, unit: str = "", scale: float = 1.0) -> str:
        u = f" {unit}" if unit else ""
        return (
            f"n={self.count} median={self.median * scale:.3f}{u} "
            f"IQR=[{self.q1 * scale:.3f}, {self.q3 * scale:.3f}]{u} "
            f"range=[{self.min * scale:.3f}, {self.max * scale:.3f}]{u}"
        )
