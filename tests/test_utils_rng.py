"""Tests for repro.utils.rng."""

import functools
import pickle

import numpy as np
import pytest

from repro.utils.rng import as_rng, reject_generators, spawn_rngs, stable_hash_seed


class TestAsRng:
    def test_none_returns_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = as_rng(42).integers(0, 1_000_000, size=10)
        b = as_rng(42).integers(0, 1_000_000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).integers(0, 1_000_000, size=10)
        b = as_rng(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(as_rng(seq), np.random.Generator)

    def test_numpy_integer_accepted(self):
        assert isinstance(as_rng(np.int64(5)), np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            as_rng(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="seed must be"):
            as_rng("not-a-seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_streams_are_independent(self):
        a, b = spawn_rngs(123, 2)
        assert not np.array_equal(
            a.integers(0, 1 << 30, size=8), b.integers(0, 1 << 30, size=8)
        )

    def test_deterministic_given_int_seed(self):
        first = [g.integers(0, 1 << 30) for g in spawn_rngs(9, 3)]
        second = [g.integers(0, 1 << 30) for g in spawn_rngs(9, 3)]
        assert first == second

    def test_spawn_from_generator(self):
        gens = spawn_rngs(np.random.default_rng(0), 3)
        assert len(gens) == 3
        assert all(isinstance(g, np.random.Generator) for g in gens)


    def test_streams_draw_what_default_rng_draws(self):
        # The handoff type marks the streams; their draws are unchanged.
        children = np.random.SeedSequence(7).spawn(3)
        for stream, child in zip(spawn_rngs(7, 3), children):
            assert np.array_equal(stream.random(5), as_rng(child).random(5))
        source, replay = as_rng(4), as_rng(4)
        for stream in spawn_rngs(source, 2):
            seed = int(replay.integers(0, 2**63 - 1))
            assert np.array_equal(stream.random(5), as_rng(seed).random(5))

    def test_streams_pickle_as_plain_generators(self):
        (stream,) = spawn_rngs(3, 1)
        copy = pickle.loads(pickle.dumps(stream))
        assert type(copy) is np.random.Generator
        assert np.array_equal(copy.random(4), stream.random(4))


class TestRejectGenerators:
    def test_live_generator_anywhere_is_rejected(self):
        rng = as_rng(0)

        def captures(i):
            return rng.random() + i

        def defaults(i, stream=rng):
            return i

        def kw_defaults(i, *, stream=rng):
            return i

        for value in (
            rng,
            {"outer": [1, ({"seed": rng},)]},
            {rng},
            functools.partial(print, rng),
            functools.partial(print, end=rng),
            functools.partial(functools.partial(print), captures),
            lambda: rng.random(),
            captures,
            defaults,
            kw_defaults,
        ):
            with pytest.raises(ValueError, match="where: a numpy.random.Generator"):
                reject_generators(value, "where")

    def test_seeds_and_spawned_streams_pass(self):
        streams = spawn_rngs(as_rng(0), 2)
        for value in (
            None,
            7,
            "seed",
            np.random.SeedSequence(3),
            streams,
            {"seed": 3, "stream": streams[0]},
            functools.partial(print, streams[1], end=5),
            lambda i: as_rng(i).random(),
        ):
            reject_generators(value, "where")

    def test_self_referencing_closure_terminates(self):
        def make(rng):
            def walk(i):
                return walk(i - 1) if i else rng

            return walk

        reject_generators(make(5), "where")
        with pytest.raises(ValueError):
            reject_generators(make(as_rng(1)), "where")

    def test_unbound_closure_cell_is_skipped(self):
        def outer():
            def inner():
                return later

            reject_generators(inner, "where")  # `later` is not bound yet
            later = as_rng(0)
            return inner

        with pytest.raises(ValueError):
            reject_generators(outer(), "where")


class TestStableHashSeed:
    def test_deterministic(self):
        assert stable_hash_seed("fig8", 1, 16) == stable_hash_seed("fig8", 1, 16)

    def test_sensitive_to_each_part(self):
        base = stable_hash_seed("a", 1, 2)
        assert base != stable_hash_seed("b", 1, 2)
        assert base != stable_hash_seed("a", 2, 2)
        assert base != stable_hash_seed("a", 1, 3)

    def test_order_sensitive(self):
        assert stable_hash_seed(1, 2) != stable_hash_seed(2, 1)

    def test_no_concatenation_collision(self):
        # ("ab", "c") must differ from ("a", "bc") - the separator matters.
        assert stable_hash_seed("ab", "c") != stable_hash_seed("a", "bc")

    def test_in_valid_numpy_seed_range(self):
        for parts in (("x",), (0,), ("fig", 10, "trial", 99)):
            seed = stable_hash_seed(*parts)
            assert 0 <= seed < 2**63
            np.random.default_rng(seed)  # must not raise
