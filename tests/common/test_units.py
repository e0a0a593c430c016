"""Unit constants and formatting helpers."""

import pytest

from repro.common.units import (
    GB,
    GiB,
    KB,
    KiB,
    MB,
    MiB,
    format_duration_ns,
    gib_per_s,
)


class TestConstants:
    def test_binary_chain(self):
        assert KiB == 1024
        assert MiB == 1024 * KiB
        assert GiB == 1024 * MiB

    def test_decimal_chain(self):
        assert KB == 1000
        assert MB == 1000 * KB
        assert GB == 1000 * MB

    def test_paper_size_mapping(self):
        # Table I "100000 kB" objects are ~95.4 MiB.
        assert 100_000 * KB / MiB == pytest.approx(95.367, abs=0.001)


class TestFormatDuration:
    def test_ranges(self):
        assert format_duration_ns(500) == "500 ns"
        assert format_duration_ns(1500) == "1.500 us"
        assert format_duration_ns(2_500_000) == "2.500 ms"
        assert format_duration_ns(3_000_000_000) == "3.000 s"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration_ns(-1)


class TestGibPerS:
    def test_known_value(self):
        # 1 GiB in 1 second = 1 GiB/s.
        assert gib_per_s(GiB, 1_000_000_000) == pytest.approx(1.0)

    def test_paper_plateau(self):
        # 6.5 GiB/s means 1 MiB in ~150.6 us.
        ns = (MiB / (6.5 * GiB)) * 1e9
        assert gib_per_s(MiB, ns) == pytest.approx(6.5)

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            gib_per_s(1, 0)
