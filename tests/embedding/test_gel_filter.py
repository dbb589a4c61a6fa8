"""Tests for repro.embedding.gel_filter — the Section III-A exclusion."""

import pytest

from repro.corpus.tokenizer import Tokenizer
from repro.embedding.gel_filter import ANCHORS, GelRelatednessFilter
from repro.embedding.skipgram import SkipGramConfig
from repro.errors import NotFittedError
from repro.synth.generator import CorpusGenerator
from repro.synth.presets import CorpusPreset


@pytest.fixture(scope="module")
def fitted_filter(dictionary_module):
    corpus = CorpusGenerator(rng=5).generate(
        CorpusPreset(name="filter-test", n_recipes=2000)
    )
    tokenizer = Tokenizer()
    sentences = []
    for recipe in corpus:
        for part in recipe.description.split("."):
            tokens = tokenizer.tokenize(part)
            if tokens:
                sentences.append(tokens)
    config = SkipGramConfig(epochs=6, dim=32, min_count=3, window=4)
    return GelRelatednessFilter(config=config).fit(sentences, rng=2)


@pytest.fixture(scope="module")
def dictionary_module():
    from repro.lexicon.dictionary import build_dictionary

    return build_dictionary()


def test_anchors_are_toppings():
    assert "almond" in ANCHORS
    assert "biscuit" in ANCHORS
    assert "gelatin" not in ANCHORS


def test_unfitted_raises(dictionary_module):
    with pytest.raises(NotFittedError, match="gel filter"):
        GelRelatednessFilter().report(dictionary_module)


class TestFilterQuality:
    def test_catches_crispy_family(self, fitted_filter, dictionary_module):
        excluded = fitted_filter.excluded_surfaces(dictionary_module)
        crispy = {"karikari", "sakusaku", "paripari", "zakuzaku"}
        assert len(excluded & crispy) >= 3

    def test_high_precision(self, fitted_filter, dictionary_module):
        """Most excluded terms must really be gel-unrelated."""
        report = fitted_filter.report(dictionary_module)
        if not report.excluded:
            pytest.fail("filter excluded nothing")
        false_positives = [
            s for s in report.excluded if dictionary_module[s].gel_related
        ]
        assert len(false_positives) / len(report.excluded) < 0.35

    def test_core_gel_terms_survive(self, fitted_filter, dictionary_module):
        excluded = fitted_filter.excluded_surfaces(dictionary_module)
        for surface in ("purupuru", "fuwafuwa", "katai", "burinburin"):
            assert surface not in excluded

    def test_evidence_cites_anchors(self, fitted_filter, dictionary_module):
        report = fitted_filter.report(dictionary_module)
        for surface, hits in report.evidence.items():
            assert hits
            assert all(h in ANCHORS for h in hits)
