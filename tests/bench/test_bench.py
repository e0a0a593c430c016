"""Bench harness: specs, workloads, runner output sanity, reporting."""

import pytest

from repro.bench import (
    MicroBenchConfig,
    TABLE_I,
    format_fig6,
    format_fig7,
    format_table1,
    make_payloads,
    run_spec,
    spec_by_index,
)
from repro.bench.specs import PAPER_REPETITIONS, BenchmarkSpec
from repro.common.rng import DeterministicRng
from repro.common.units import KB
from repro.workload.popularity import uniform_access_sequence, zipf_access_sequence


class TestSpecs:
    def test_table1_matches_paper(self):
        rows = [(s.index, s.num_objects, s.object_size_kb) for s in TABLE_I]
        assert rows == [
            (1, 1000, 1),
            (2, 500, 10),
            (3, 200, 100),
            (4, 100, 1000),
            (5, 50, 10_000),
            (6, 10, 100_000),
        ]

    def test_paper_repetitions(self):
        assert PAPER_REPETITIONS == 100

    def test_sizes_are_decimal_kb(self):
        assert spec_by_index(4).object_size_bytes == 1000 * KB

    def test_total_bytes(self):
        assert spec_by_index(1).total_bytes == 1000 * 1000
        assert spec_by_index(6).total_bytes == 10 * 100_000_000

    def test_unknown_index(self):
        with pytest.raises(KeyError):
            spec_by_index(7)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(0, 1, 1)
        with pytest.raises(ValueError):
            BenchmarkSpec(1, 0, 1)

    def test_str(self):
        assert "1000 x 1 kB" in str(spec_by_index(1))


class TestWorkload:
    def test_payload_sized_to_spec(self, rng):
        spec = spec_by_index(2)
        w = make_payloads(spec, rng)
        assert len(w.payload) == spec.object_size_bytes
        assert len(w.scratch) == spec.object_size_bytes

    def test_payload_deterministic(self):
        spec = spec_by_index(1)
        a = make_payloads(spec, DeterministicRng(5))
        b = make_payloads(spec, DeterministicRng(5))
        assert a.expected_bytes() == b.expected_bytes()

    def test_payload_is_random_not_constant(self, rng):
        w = make_payloads(spec_by_index(1), rng)
        assert len(set(w.expected_bytes())) > 100


class TestAccessSequences:
    def test_zipf_is_skewed(self):
        seq = zipf_access_sequence(DeterministicRng(5), 100, 5000, s=1.2)
        assert seq.min() >= 0 and seq.max() < 100
        counts = {}
        for idx in seq:
            counts[int(idx)] = counts.get(int(idx), 0) + 1
        # Rank 0 must dominate any tail object by a wide margin.
        assert counts.get(0, 0) > 10 * max(counts.get(i, 0) for i in range(90, 100))

    def test_uniform_is_flat(self):
        seq = uniform_access_sequence(DeterministicRng(5), 10, 10_000)
        counts = [int((seq == i).sum()) for i in range(10)]
        assert max(counts) < 1.3 * min(counts)

    def test_sequences_deterministic(self):
        a = zipf_access_sequence(DeterministicRng(1), 50, 100)
        b = zipf_access_sequence(DeterministicRng(1), 50, 100)
        assert (a == b).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_access_sequence(DeterministicRng(1), 0, 10)
        with pytest.raises(ValueError):
            zipf_access_sequence(DeterministicRng(1), 10, 10, s=0)
        with pytest.raises(ValueError):
            uniform_access_sequence(DeterministicRng(1), 10, 0)


class TestMicroConfig:
    def test_auto_materialize_by_volume(self):
        cfg = MicroBenchConfig()
        assert cfg.resolve_materialize(spec_by_index(1)) is True
        assert cfg.resolve_materialize(spec_by_index(6)) is False

    def test_explicit_modes(self):
        assert MicroBenchConfig(materialize="always").resolve_materialize(
            spec_by_index(6)
        )
        assert not MicroBenchConfig(materialize="never").resolve_materialize(
            spec_by_index(1)
        )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            MicroBenchConfig(materialize="maybe").resolve_materialize(
                spec_by_index(1)
            )


class TestRunSpec:
    @pytest.fixture(scope="class")
    def result(self):
        return run_spec(spec_by_index(1), MicroBenchConfig(repetitions=8))

    def test_distribution_sizes(self, result):
        assert result.create_seal_ns.count == 8
        assert result.local.retrieve_ns.count == 8
        assert result.remote.read_gibps.count == 8

    def test_remote_retrieval_slower_than_local(self, result):
        assert result.remote.retrieve_ns.mean > 2 * result.local.retrieve_ns.mean

    def test_local_read_faster_than_remote(self, result):
        assert result.local.read_gibps.mean > result.remote.read_gibps.mean

    def test_reproducible_across_runs(self):
        a = run_spec(spec_by_index(1), MicroBenchConfig(repetitions=3))
        b = run_spec(spec_by_index(1), MicroBenchConfig(repetitions=3))
        assert a.local.retrieve_ns.samples == b.local.retrieve_ns.samples
        assert a.remote.read_gibps.samples == b.remote.read_gibps.samples

    def test_verification_catches_real_data(self):
        # verify_contents=True (default) reads back and compares on rep 0;
        # a passing run certifies the data plane end to end.
        run_spec(
            spec_by_index(1),
            MicroBenchConfig(repetitions=1, materialize="always"),
        )

    def test_paper_mode_per_create_rpc(self):
        r = run_spec(
            spec_by_index(6),
            MicroBenchConfig(repetitions=2, per_create_uniqueness_rpc=True),
        )
        # Each create now pays a Contains round trip: ~2.3 ms x 10 objects.
        assert r.create_seal_ns.mean > 10 * 2e6


class TestReporting:
    def test_table1_format(self):
        text = format_table1()
        assert "TABLE I" in text
        assert "100000" in text

    def test_fig6_fig7_render(self):
        results = [run_spec(spec_by_index(1), MicroBenchConfig(repetitions=3))]
        f6 = format_fig6(results)
        assert "retrieval latency" in f6
        assert "1.885" in f6  # paper anchor column
        f7 = format_fig7(results)
        assert "GiB/s" in f7
        assert "bench 1" in f7
