"""Tests for repro.pipeline.dataset."""

import pytest

from repro.corpus.recipe import Ingredient, Recipe
from repro.errors import CorpusError
from repro.pipeline.dataset import DatasetBuilder


class TestBuild:
    def test_dataset_aligned(self, tiny_dataset):
        n = len(tiny_dataset)
        assert n > 0
        assert len(tiny_dataset.docs) == n
        assert tiny_dataset.gel_log.shape == (n, 3)
        assert tiny_dataset.emulsion_log.shape == (n, 6)
        assert tiny_dataset.gel_raw.shape == (n, 3)
        assert len(tiny_dataset.recipe_ids) == n

    def test_docs_reference_vocabulary(self, tiny_dataset):
        for doc in tiny_dataset.docs:
            if len(doc):
                assert doc.max() < tiny_dataset.vocab_size

    def test_every_kept_recipe_has_terms_and_gel(self, tiny_dataset):
        for features in tiny_dataset.features:
            assert features.n_terms > 0
            assert features.has_gel
            assert features.unrelated_fraction <= 0.10 + 1e-9

    def test_funnel_accounts_for_everything(self, tiny_dataset, tiny_corpus):
        funnel = tiny_dataset.funnel
        assert funnel["collected"] == len(tiny_corpus)
        accounted = (
            funnel["kept"]
            + funnel["duplicates"]
            + funnel["unparseable"]
            + funnel["rejected_no_terms"]
            + funnel["rejected_no_gel"]
            + funnel["rejected_unrelated"]
        )
        assert accounted == funnel["collected"]

    def test_reused_builder_reports_each_funnel(self, tiny_corpus, dictionary):
        """A second build with one builder counts its own rejections."""
        builder = DatasetBuilder(dictionary=dictionary, use_w2v_filter=False)
        recipes = list(tiny_corpus.recipes)
        first = builder.build(recipes)
        second = builder.build(recipes)
        assert second.funnel == first.funnel
        for funnel in (first.funnel, second.funnel):
            accounted = funnel["kept"] + funnel["duplicates"] + funnel[
                "unparseable"
            ] + sum(
                count for key, count in funnel.items()
                if key.startswith("rejected_")
            )
            assert accounted == funnel["collected"] == len(recipes)

    def test_vocabulary_sorted_unique(self, tiny_dataset):
        vocabulary = tiny_dataset.vocabulary
        assert list(vocabulary) == sorted(set(vocabulary))

    def test_vocabulary_much_smaller_than_dictionary(self, tiny_dataset):
        """Echoes the paper: 41 dataset terms out of 288."""
        assert 10 <= tiny_dataset.vocab_size < 288

    def test_term_counts_list_matches_docs(self, tiny_dataset):
        for features, doc in zip(tiny_dataset.features, tiny_dataset.docs):
            assert sum(features.term_counts.values()) == len(doc)

    def test_empty_input_rejected(self):
        with pytest.raises(CorpusError):
            DatasetBuilder(use_w2v_filter=False).build([])

    def test_unparseable_recipes_counted_not_fatal(self, dictionary):
        good = Recipe(
            recipe_id="ok",
            title="zerii",
            description="purupuru zerii",
            ingredients=(
                Ingredient("gelatin", "5 g"),
                Ingredient("water", "300 ml"),
            ),
        )
        bad = Recipe(
            recipe_id="bad",
            title="zerii",
            description="purupuru",
            ingredients=(Ingredient("water", "a splash"),),
        )
        builder = DatasetBuilder(dictionary=dictionary, use_w2v_filter=False)
        dataset = builder.build([good, bad])
        assert dataset.funnel["unparseable"] == 1
        assert len(dataset) == 1

    def test_w2v_filter_populates_exclusions(self, tiny_corpus, dictionary):
        builder = DatasetBuilder(dictionary=dictionary, use_w2v_filter=True)
        dataset = builder.build(tiny_corpus.recipes, rng=3)
        # exclusions may be empty on a tiny corpus, but the field exists
        assert isinstance(dataset.excluded_terms, frozenset)
        for features in dataset.features:
            for surface in features.term_counts:
                assert surface not in dataset.excluded_terms

    def test_deduplication_integrated(self, tiny_corpus, dictionary):
        from repro.corpus.recipe import Recipe

        recipes = list(tiny_corpus.recipes)[:120]
        # re-post recipe 3 under a new id
        original = recipes[3]
        clone = Recipe(
            recipe_id="repost",
            title=original.title,
            description=original.description,
            ingredients=original.ingredients,
        )
        builder = DatasetBuilder(
            dictionary=dictionary, use_w2v_filter=False, deduplicate=True
        )
        dataset = builder.build(recipes + [clone])
        assert dataset.funnel["duplicates"] >= 1
        assert "repost" not in dataset.recipe_ids

    def test_sentences_of_splits_on_periods(self, tiny_corpus, dictionary):
        builder = DatasetBuilder(dictionary=dictionary)
        sentences = builder.sentences_of(list(tiny_corpus.recipes)[:5])
        assert all(isinstance(s, list) and s for s in sentences)
        # more sentences than recipes: descriptions are multi-sentence
        assert len(sentences) > 5
