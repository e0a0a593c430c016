"""Popularity models, including the dedupe contract with repro.bench.

The zipf/uniform implementations moved from ``repro.bench.workload`` to
``repro.workload.popularity``, and the bench re-exports are gone. The
golden sequences and digests below were captured from the *pre-refactor*
implementation and from the bench names, so any silent behavior change
fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.common.rng import DeterministicRng
from repro.workload.popularity import (
    POPULARITY_MODELS,
    access_sequence_for,
    hotspot_access_sequence,
    uniform_access_sequence,
    zipf_access_sequence,
)

# Captured from repro.bench.workload before the move (seed 7, 50 objects,
# 16 accesses).
GOLDEN_ZIPF_7 = [6, 28, 14, 0, 1, 24, 0, 18, 16, 3, 1, 1, 0, 2, 3, 4]
GOLDEN_UNIFORM_7 = [43, 25, 36, 14, 1, 22, 28, 5, 32, 43, 46, 15, 26, 30, 38, 29]
# seed -> (zipf, uniform) sha256 prefixes of the int64 draws.
BENCH_DIGESTS = {
    0: ("db109ed2483e6cc7", "ed6c5fd37be2ae72"),
    1: ("e921d29429483a6a", "f4d94bac2a6440b7"),
    7: ("7763fd341f049299", "763477183530ed41"),
    123: ("de20a12755c9cbbb", "7f7da623558bc3e0"),
    2022: ("c604854b5ee06b90", "48b803f79abdc967"),
}


class TestDedupeContract:
    def test_zipf_matches_pre_refactor_golden(self):
        seq = zipf_access_sequence(DeterministicRng(7), 50, 16, s=1.1)
        assert list(seq) == GOLDEN_ZIPF_7

    def test_uniform_matches_pre_refactor_golden(self):
        seq = uniform_access_sequence(DeterministicRng(7), 50, 16)
        assert list(seq) == GOLDEN_UNIFORM_7

    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 2022])
    def test_bench_and_workload_draws_identical(self, seed):
        """Digests of the draws ``repro.bench.workload``'s names made (200
        objects, 64 accesses) before they were deleted."""

        def digest(seq) -> str:
            return hashlib.sha256(np.asarray(seq, dtype=np.int64).tobytes()).hexdigest()

        zipf = zipf_access_sequence(DeterministicRng(seed), 200, 64, s=1.1)
        uniform = uniform_access_sequence(DeterministicRng(seed), 200, 64)
        assert (digest(zipf)[:16], digest(uniform)[:16]) == BENCH_DIGESTS[seed]


class TestModels:
    def test_zipf_is_skewed_toward_low_slots(self):
        seq = zipf_access_sequence(DeterministicRng(3), 100, 5000, s=1.2)
        # Slot 0 must dominate any mid-range slot under a zipfian law.
        counts = np.bincount(seq, minlength=100)
        assert counts[0] > 3 * counts[50]

    def test_uniform_covers_the_range(self):
        seq = uniform_access_sequence(DeterministicRng(3), 10, 2000)
        assert set(seq) == set(range(10))

    def test_hotspot_concentrates_on_hot_set(self):
        seq = hotspot_access_sequence(
            DeterministicRng(3), 100, 2000, hot_fraction=0.1, hot_weight=0.9
        )
        hot_hits = int(np.sum(seq < 10))
        assert 0.85 <= hot_hits / 2000 <= 0.95
        assert seq.min() >= 0 and seq.max() < 100

    def test_hotspot_degenerates_to_uniform_when_all_hot(self):
        a = hotspot_access_sequence(DeterministicRng(5), 8, 64, hot_fraction=1.0)
        b = uniform_access_sequence(DeterministicRng(5), 8, 64)
        assert np.array_equal(a, b)

    def test_dispatch_covers_every_model(self):
        for model in POPULARITY_MODELS:
            seq = access_sequence_for(model, DeterministicRng(9), 20, 30)
            assert len(seq) == 30
            assert seq.min() >= 0 and seq.max() < 20

    def test_dispatch_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            access_sequence_for("pareto", DeterministicRng(9), 20, 30)
