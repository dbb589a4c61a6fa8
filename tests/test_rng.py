"""Tests for repro.rng."""

import numpy as np
import pytest

from repro.rng import DEFAULT_SEED, WeightedChoice, derive, ensure_rng, spawn


class TestEnsureRng:
    def test_none_gives_default_seeded_generator(self):
        a = ensure_rng(None).integers(0, 1 << 30, 8)
        b = ensure_rng(None).integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)

    def test_int_seed_is_deterministic(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_different_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(5)  # repro: noqa[RNG001] - passthrough of a raw generator is the behaviour under test
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)  # repro: noqa[RNG001] - SeedSequence interop is the behaviour under test
        gen = ensure_rng(seq)
        assert isinstance(gen, np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not a seed")  # type: ignore[arg-type]


class TestSpawn:
    def test_spawn_count(self):
        assert len(spawn(0, 5)) == 5

    def test_spawn_zero(self):
        assert spawn(0, 0) == []

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(0, -1)

    def test_children_are_independent(self):
        a, b = spawn(0, 2)
        assert a.random() != b.random()

    def test_spawn_deterministic(self):
        first = [g.random() for g in spawn(3, 3)]
        second = [g.random() for g in spawn(3, 3)]
        assert first == second


class TestDerive:
    def test_same_label_same_stream(self):
        assert derive(1, "corpus").random() == derive(1, "corpus").random()

    def test_different_labels_differ(self):
        assert derive(1, "corpus").random() != derive(1, "model").random()


class TestSeedOf:
    def test_default_seed_is_stable(self):
        assert DEFAULT_SEED == 20220501


def weight_vectors():
    """Probability vectors as callers build them: normalised floats, with
    zeros (also leading and trailing), one category, float32 and a list."""
    gen = ensure_rng(17)
    out = [np.array([1.0]), [0.25, 0.75], np.array([0.5, 0.5], dtype=np.float32)]
    for n in (2, 3, 7, 40, 287):
        weights = gen.random(n) ** 3
        weights[gen.random(n) < 0.2] = 0.0
        weights[0] = 0.0
        weights[n // 2] += 0.1
        out.append(weights / weights.sum())
    zero_tail = np.array([0.3, 0.7, 0.0, 0.0])
    return out + [zero_tail]


class TestWeightedChoice:
    """``WeightedChoice(p).draw`` is ``Generator.choice(len(p), p=p)``."""

    @pytest.mark.parametrize("size", [None, 1, 5, (3, 4), (1024, 5)])
    def test_equals_choice_draw_for_draw(self, size):
        for k, p in enumerate(weight_vectors()):
            choice = WeightedChoice(p)
            ours_rng, theirs_rng = ensure_rng(k), ensure_rng(k)
            for _ in range(50 if size is None else 3):
                ours = choice.draw(ours_rng, size)
                theirs = theirs_rng.choice(len(p), size=size, p=p)
                if size is None:
                    assert type(ours) is type(theirs) is int
                    assert ours == theirs
                else:
                    assert ours.dtype == theirs.dtype
                    assert np.array_equal(ours, theirs)
            assert ours_rng.random() == theirs_rng.random()

    @pytest.mark.parametrize(
        "p",
        [
            np.array([[0.5, 0.5]]),
            np.array([0.5, np.nan, 0.5]),
            np.array([1.5, -0.5]),
            np.array([0.5, 0.6]),
            np.array([0.5, 0.5 + 2e-8]),
            np.array([np.inf, 1.0, 0.0]),
            np.array([0.0, 0.0]),
        ],
        ids=["2-d", "nan", "negative", "sum-1.1", "sum-off-by-2e-8", "inf", "zeros"],
    )
    def test_rejects_what_choice_rejects(self, p):
        with pytest.raises(ValueError):
            ensure_rng(0).choice(p.shape[-1], p=p)
        with pytest.raises(ValueError):
            WeightedChoice(p)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ensure_rng(0).choice(0, p=[])
        with pytest.raises(ValueError):
            WeightedChoice([])

    def test_accepts_what_choice_accepts_at_the_tolerance(self):
        p = np.array([0.5, 0.5 + 1e-9])
        assert ensure_rng(0).choice(2, p=p) == WeightedChoice(p).draw(ensure_rng(0))
