"""Tests for repro.synth.reviews."""

import numpy as np
import pytest

from repro.lexicon.categories import SensoryAxis
from repro.rheology.attributes import TextureProfile
from repro.synth.reviews import ReviewGenerator

HARD = TextureProfile(hardness=6.0, cohesiveness=0.1, adhesiveness=0.0)
SOFT = TextureProfile(hardness=0.05, cohesiveness=0.3, adhesiveness=0.0)


@pytest.fixture()
def generator(dictionary):
    return ReviewGenerator(dictionary=dictionary, rng=5)


class TestReviewFor:
    def test_mentioned_terms_appear_in_text(self, generator):
        for _ in range(20):
            review = generator.review_for("R1", HARD)
            for surface in review.mentioned_terms:
                assert surface in review.text

    def test_hard_dish_gets_hard_terms(self, dictionary):
        generator = ReviewGenerator(dictionary=dictionary, rng=1, texture_rate=1.0)
        polarities = []
        for _ in range(60):
            review = generator.review_for("R1", HARD)
            for surface in review.mentioned_terms:
                polarities.append(
                    dictionary[surface].polarity_on(SensoryAxis.HARDNESS)
                )
        assert np.mean(polarities) > 0.2

    def test_soft_dish_gets_soft_terms(self, dictionary):
        generator = ReviewGenerator(dictionary=dictionary, rng=1, texture_rate=1.0)
        polarities = []
        for _ in range(60):
            review = generator.review_for("R1", SOFT)
            for surface in review.mentioned_terms:
                polarities.append(
                    dictionary[surface].polarity_on(SensoryAxis.HARDNESS)
                )
        assert np.mean(polarities) < -0.2

    def test_texture_rate_zero_gives_no_terms(self, dictionary):
        generator = ReviewGenerator(dictionary=dictionary, rng=1, texture_rate=0.0)
        review = generator.review_for("R1", HARD)
        assert review.mentioned_terms == ()


class TestGenerate:
    def test_reviews_reference_corpus_recipes(self, generator, tiny_corpus):
        reviews = generator.generate(tiny_corpus, reviews_per_recipe=0.8)
        ids = {r.recipe_id for r in tiny_corpus}
        assert reviews
        assert all(review.recipe_id in ids for review in reviews)

    def test_restricted_recipe_ids(self, generator, tiny_corpus):
        subset = [r.recipe_id for r in tiny_corpus][:10]
        reviews = generator.generate(tiny_corpus, recipe_ids=subset)
        assert {r.recipe_id for r in reviews} <= set(subset)

    def test_deterministic(self, dictionary, tiny_corpus):
        a = ReviewGenerator(dictionary=dictionary, rng=9).generate(
            tiny_corpus, reviews_per_recipe=0.5
        )
        b = ReviewGenerator(dictionary=dictionary, rng=9).generate(
            tiny_corpus, reviews_per_recipe=0.5
        )
        assert a == b
