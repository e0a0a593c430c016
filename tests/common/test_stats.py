"""Distribution quantiles and summaries."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import Distribution

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestDistribution:
    def test_quantiles_of_known_data(self):
        d = Distribution()
        d.extend(range(1, 101))  # 1..100
        assert d.median == pytest.approx(50.5)
        q1, q3 = d.iqr()
        assert q1 == pytest.approx(25.75)
        assert q3 == pytest.approx(75.25)
        assert d.min == 1 and d.max == 100
        assert d.mean == pytest.approx(50.5)

    def test_quantile_bounds_checked(self):
        d = Distribution()
        d.add(1.0)
        with pytest.raises(ValueError):
            d.quantile(1.5)
        assert d.quantile(0.0) == d.quantile(1.0) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Distribution().quantile(0.5)
        with pytest.raises(ValueError):
            _ = Distribution().mean

    def test_summary_fields(self):
        d = Distribution()
        d.extend([1.0, 2.0, 3.0, 4.0])
        s = d.summary()
        assert s.count == 4
        assert s.min == 1.0 and s.max == 4.0
        assert s.q1 <= s.median <= s.q3
        assert "median" in s.format(unit="ms")

    def test_samples_returns_copy(self):
        d = Distribution()
        d.add(1.0)
        d.samples.append(99.0)
        assert d.count == 1

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    def test_quantiles_monotone(self, xs):
        d = Distribution()
        d.extend(xs)
        qs = [d.quantile(q / 10) for q in range(11)]
        assert qs == sorted(qs)
        assert qs[0] == d.min and qs[-1] == d.max
