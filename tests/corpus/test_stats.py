"""Tests for repro.corpus.stats."""

import pytest

from repro.corpus.stats import (
    CorpusStats,
    dataset_stats,
    render_stats,
    zipf_slope,
)
from repro.errors import CorpusError


class TestCorpusStats:
    @pytest.fixture(scope="class")
    def stats(self, request):
        tiny_corpus = request.getfixturevalue("tiny_corpus")
        return CorpusStats.from_recipes(tiny_corpus.recipes)

    def test_counts(self, stats, tiny_corpus):
        assert stats.n_recipes == len(tiny_corpus)
        assert stats.n_tokens > stats.n_recipes * 5
        assert stats.n_types > 50

    def test_tokens_per_recipe(self, stats):
        assert stats.tokens_per_recipe_mean == pytest.approx(
            stats.n_tokens / stats.n_recipes
        )

    def test_top_tokens_sorted(self, stats):
        counts = [c for _, c in stats.top_tokens]
        assert counts == sorted(counts, reverse=True)

    def test_synthetic_corpus_is_zipfian(self, stats):
        """Template text plus sampled terms still yields a heavy tail."""
        assert -2.5 < stats.zipf_slope < -0.4

    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            CorpusStats.from_recipes([])


class TestZipfSlope:
    def test_uniform_counts_near_zero(self):
        assert abs(zipf_slope({f"w{i}": 10 for i in range(50)})) < 0.01

    def test_steeper_for_skewed(self):
        skewed = {f"w{i}": max(1000 // (i + 1), 1) for i in range(50)}
        assert zipf_slope(skewed) < -0.8

    def test_too_few_types_rejected(self):
        with pytest.raises(CorpusError):
            zipf_slope({"a": 1, "b": 2})


class TestDatasetStats:
    @pytest.fixture(scope="class")
    def stats(self, request):
        tiny_dataset = request.getfixturevalue("tiny_dataset")
        return dataset_stats(tiny_dataset)

    def test_counts_match_dataset(self, stats, tiny_dataset):
        assert stats.n_recipes == len(tiny_dataset)
        assert stats.n_term_types <= tiny_dataset.vocab_size

    def test_gel_coverage_fractions(self, stats):
        assert set(stats.gel_coverage) == {"gelatin", "kanten", "agar"}
        assert all(0.0 <= v <= 1.0 for v in stats.gel_coverage.values())
        # gelatin dominates the synthetic corpus, as on Cookpad
        assert stats.gel_coverage["gelatin"] > stats.gel_coverage["agar"]

    def test_funnel_carried(self, stats):
        assert "collected" in stats.funnel


class TestRender:
    def test_corpus_render(self, tiny_corpus):
        text = render_stats(CorpusStats.from_recipes(tiny_corpus.recipes))
        assert "zipf" in text and "recipes:" in text

    def test_dataset_render(self, tiny_dataset):
        text = render_stats(dataset_stats(tiny_dataset))
        assert "gel coverage" in text
