"""Deterministic RNG discipline."""

import numpy as np
import pytest

from repro.common.rng import DeterministicRng, derive_seed

from ._reference_rng import DeterministicRng as ReferenceRng


class TestDeriveSeed:
    def test_same_inputs_same_seed(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_different_names_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_different_roots_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_name_path_is_not_concatenation(self):
        # ("ab",) and ("a","b") must be distinct streams.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a, b = DeterministicRng(42), DeterministicRng(42)
        assert a.bytes(32) == b.bytes(32)
        assert a.uniform(0, 1) == b.uniform(0, 1)
        assert a.integer(0, 1000) == b.integer(0, 1000)

    def test_spawn_is_independent_of_parent_consumption(self):
        a = DeterministicRng(42)
        a.bytes(100)  # consume parent
        child1 = a.spawn("x")
        child2 = DeterministicRng(42).spawn("x")
        assert child1.bytes(16) == child2.bytes(16)

    def test_spawned_streams_differ(self):
        root = DeterministicRng(42)
        assert root.spawn("x").bytes(16) != root.spawn("y").bytes(16)

    def test_payload_shape_and_range(self, rng):
        data = rng.payload(1000)
        assert data.shape == (1000,)
        assert data.dtype.name == "uint8"
        assert 0 <= int(data.min()) and int(data.max()) <= 255

    def test_lognormal_jitter_median_near_one(self):
        rng = DeterministicRng(7)
        draws = [rng.lognormal_jitter(0.2) for _ in range(4000)]
        draws.sort()
        median = draws[len(draws) // 2]
        assert 0.95 < median < 1.05

    def test_lognormal_jitter_zero_sigma_is_identity(self, rng):
        assert rng.lognormal_jitter(0.0) == 1.0
        assert rng.lognormal_jitter(-1.0) == 1.0

    def test_integer_bounds(self, rng):
        for _ in range(100):
            v = rng.integer(5, 10)
            assert 5 <= v < 10

    def test_choice_and_shuffle_are_deterministic(self):
        a, b = DeterministicRng(3), DeterministicRng(3)
        seq_a, seq_b = list(range(20)), list(range(20))
        a.shuffle(seq_a)
        b.shuffle(seq_b)
        assert seq_a == seq_b
        assert a.choice([1, 2, 3]) == b.choice([1, 2, 3])

    def test_normal_is_deterministic(self):
        assert DeterministicRng(9).normal(0, 1) == DeterministicRng(9).normal(0, 1)

    def test_seed_property(self):
        assert DeterministicRng(77).seed == 77


# --------------------------------------------------------------------------- differential

#: Every public draw, as (method name, arguments). ``shuffle`` is compared by
#: what it did to a fresh list.
INT_RANGES = ((0, 7), (0, 1 << 30), (-5, (1 << 33) + 11), (0, 1 << 32), (3, 4))
DRAWS = (
    *(("integer", bounds) for bounds in INT_RANGES),
    ("uniform", (0.0, 1.0)),
    ("uniform", (2.5, 7.25)),
    ("uniform", (-1e3, 1e-3)),
    ("lognormal_jitter", (0.1,)),
    ("lognormal_jitter", (0.5,)),
    ("lognormal_jitter", (0.0,)),
    ("lognormal_jitter", (-1.0,)),
    ("bytes", (9,)),
    ("payload", (5,)),
    ("normal", (1.0, 2.0)),
    ("choice", ([1, 2, 3, "x"],)),
    ("shuffle", ()),
)
BLOCKED = tuple(d for d in DRAWS if d[0] in ("integer", "uniform", "lognormal_jitter"))
SCALAR = tuple(d for d in DRAWS if d not in BLOCKED)
#: Long enough to cross every block size up to the cap, and the cap twice.
LONG_RUN = 3500


def draw(stream, method, args):
    if method == "shuffle":
        seq = list(range(10))
        stream.shuffle(seq)
        return seq
    return getattr(stream, method)(*args)


def assert_same(got, want, where):
    """Equal in value *and* type (an ``np.int64`` is not an ``int``)."""
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), where
    else:
        assert got == want, (where, got, want)


class TestDrawForDrawAgainstTheScalarReference:
    """``DeterministicRng`` hands three kinds out of pre-drawn blocks; the
    class it replaced (one NumPy scalar call per draw) is the reference, and
    every stream must read the same under both — a property of NumPy's
    implementation that the checked-in goldens depend on."""

    @staticmethod
    def pair(rng, *names):
        seed = rng.spawn("differential", *names).seed
        return DeterministicRng(seed), ReferenceRng(seed)

    def replay(self, rng, program, *names):
        new, ref = self.pair(rng, *names)
        for i, (method, args) in enumerate(program):
            assert_same(draw(new, method, args), draw(ref, method, args),
                        (names, i, method, args))
        # ... and the generator underneath sits where the reference's does.
        assert new.bytes(16) == ref.bytes(16)

    @pytest.mark.parametrize("kind", BLOCKED, ids=str)
    def test_long_single_kind_run_crosses_block_boundaries(self, rng, kind):
        self.replay(rng, [kind] * LONG_RUN, "long", str(kind))

    def test_kind_switch_on_every_draw(self, rng):
        program = [DRAWS[i % len(DRAWS)] for i in range(40 * len(DRAWS))]
        self.replay(rng, program, "switch")

    def test_two_sigmas_and_zero_sigma_share_one_stream(self, rng):
        # sigma <= 0 returns 1.0 and consumes nothing: the draws around it
        # only line up with the reference's if that holds.
        sigmas = (0.1, 0.5, 0.0, 0.1, -1.0, 0.5, 0.5)
        program = [("lognormal_jitter", (sigmas[i % len(sigmas)],))
                   for i in range(LONG_RUN)]
        self.replay(rng, program, "sigmas")

    @pytest.mark.parametrize("other", SCALAR + BLOCKED, ids=str)
    @pytest.mark.parametrize("kind", (("integer", (0, 1 << 30)),
                                      ("uniform", (0.0, 1.0)),
                                      ("lognormal_jitter", (0.1,))), ids=str)
    def test_other_draws_interleaved_mid_block(self, rng, kind, other):
        # Runs of every length from 1 to past two block sizes, so *other*
        # lands on an untouched block, a part-consumed one and an empty one.
        program = []
        for run in range(1, 24):
            program += [kind] * run + [other]
        self.replay(rng, program, "mid-block", str(kind), str(other))

    def test_random_mix_of_runs(self, rng):
        driver = ReferenceRng(rng.spawn("mix-driver").seed)
        for case in range(20):
            program = []
            while len(program) < 1500:
                kind = driver.choice(list(DRAWS))
                run = 1 if driver.integer(0, 3) == 0 else driver.integer(1, 90)
                program += [kind] * run
            self.replay(rng, program, "mix", str(case))

    def test_spawn_mid_block(self, rng):
        new, ref = self.pair(rng, "spawn")
        for _ in range(7):  # leaves a block part-consumed
            assert new.integer(0, 100) == ref.integer(0, 100)
        child, ref_child = new.spawn("c"), ref.spawn("c")
        assert child.seed == ref_child.seed
        for _ in range(50):
            assert_same(child.uniform(0.0, 1.0), ref_child.uniform(0.0, 1.0), "child")
            assert_same(new.integer(0, 100), ref.integer(0, 100), "parent")

    @pytest.mark.parametrize("consumed", (0, 1, 2, 7))
    def test_bad_integer_range_raises_and_consumes_nothing(self, rng, consumed):
        new, ref = self.pair(rng, "bad-range", str(consumed))
        for _ in range(consumed):
            assert new.integer(0, 50) == ref.integer(0, 50)
        for stream in (new, ref):
            with pytest.raises(ValueError):
                stream.integer(9, 9)
            with pytest.raises(ValueError):
                stream.integer(10, 3)
        for _ in range(20):
            assert_same(new.integer(0, 50), ref.integer(0, 50), "after the error")

    def test_unbounded_uniform_range_raises_and_consumes_nothing(self, rng):
        new, ref = self.pair(rng, "bad-uniform")
        assert new.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)
        assert new.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)
        for stream in (new, ref):
            with pytest.raises(OverflowError):
                stream.uniform(-1e308, 1e308)
        assert new.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)
