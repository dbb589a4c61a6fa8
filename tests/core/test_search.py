"""Tests for repro.core.search."""

import numpy as np
import pytest

from repro.core.joint_model import JointModelConfig
from repro.core.search import TextureSearch
from repro.errors import ModelError, UnknownTermError
from repro.pipeline.experiment import ExperimentConfig, run_experiment
from repro.synth.presets import CorpusPreset


@pytest.fixture(scope="module")
def result():
    config = ExperimentConfig(
        preset=CorpusPreset(name="search-test", n_recipes=900),
        model=JointModelConfig(n_topics=8, n_sweeps=80, burn_in=40, thin=4),
        seed=11,
        use_w2v_filter=False,
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def search(result):
    return TextureSearch(result)


class TestQuery:
    def test_returns_requested_count(self, search):
        hits = search.query(["purupuru"], top=5)
        assert len(hits) == 5

    def test_top_below_one_rejected(self, search):
        with pytest.raises(ModelError):
            search.query(["purupuru"], top=0)
        with pytest.raises(ModelError):
            search.similar_recipes(search.recipe_ids[0], top=-2)

    def test_scores_descending(self, search):
        hits = search.query(["purupuru"], top=10)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_purupuru_returns_mixed_gel_recipes(self, search, result):
        """Top purupuru hits should be the gelatin+agar family."""
        hits = search.query(["purupuru"], top=10)
        bands = [
            result.corpus.truth_of(h.recipe_id).gel_band for h in hits
        ]
        assert bands.count("gelatin+agar") >= 6

    def test_hard_query_returns_hard_recipes(self, search, result):
        if "katai" not in search.vocabulary:
            pytest.skip("katai not in this dataset's vocabulary")
        hits = search.query(["katai"], top=10)
        hard_bands = {"kanten:high", "kanten:mid", "gelatin:high",
                      "gelatin:very_high", "agar:high", "agar:low"}
        bands = [result.corpus.truth_of(h.recipe_id).gel_band for h in hits]
        assert sum(b in hard_bands for b in bands) >= 6

    def test_finds_recipes_not_mentioning_query(self, result):
        """θ-based scoring surfaces recipes that never say the word."""
        flat = TextureSearch(result, mention_boost=1.0)
        hits = flat.query(["purupuru"], top=150)
        assert any(not h.mentions_query for h in hits)

    def test_unknown_term_raises(self, search):
        with pytest.raises(UnknownTermError):
            search.query(["nonexistent-term"])

    def test_empty_query_rejected(self, search):
        with pytest.raises(ModelError):
            search.query([])

    def test_mention_boost_promotes_literal_matches(self, result):
        flat = TextureSearch(result, mention_boost=1.0)
        boosted = TextureSearch(result, mention_boost=5.0)
        term = "purupuru"
        flat_hits = flat.query([term], top=20)
        boosted_hits = boosted.query([term], top=20)
        flat_mentions = sum(h.mentions_query for h in flat_hits)
        boosted_mentions = sum(h.mentions_query for h in boosted_hits)
        assert boosted_mentions >= flat_mentions

    def test_bad_boost_rejected(self, result):
        with pytest.raises(ModelError):
            TextureSearch(result, mention_boost=0.5)


class TestSimilarRecipes:
    def test_same_topic_dominates(self, search, result):
        seed_id = search.recipe_ids[0]
        seed_topic = int(result.topic_assignments()[0])
        hits = search.similar_recipes(seed_id, top=10)
        assert seed_id not in [h.recipe_id for h in hits]
        same = sum(h.topic == seed_topic for h in hits)
        assert same >= 7

    def test_unknown_recipe_rejected(self, search):
        with pytest.raises(ModelError):
            search.similar_recipes("nope")


class TestTermProbability:
    def test_probability_vector(self, search):
        probs = search.term_probability("purupuru")
        assert probs.shape == (len(search.recipe_ids),)
        assert np.all(probs >= 0) and np.all(probs <= 1)
