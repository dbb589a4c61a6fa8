"""Tests for repro.embedding.vocab."""

import pytest

from repro.embedding.vocab import Vocabulary
from repro.errors import ModelError

from repro.rng import ensure_rng

SENTENCES = [
    ["puru", "zerii", "oishii"],
    ["puru", "zerii", "katai"],
    ["puru", "gelatin"],
    ["puru", "zerii"],
]


class TestConstruction:
    def test_min_count_filters(self):
        vocab = Vocabulary(SENTENCES, min_count=2)
        assert "puru" in vocab and "zerii" in vocab
        assert "katai" not in vocab

    def test_most_frequent_first(self):
        vocab = Vocabulary(SENTENCES, min_count=1)
        assert vocab.tokens[0] == "puru"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ModelError):
            Vocabulary([], min_count=1)

    def test_nothing_survives_cutoff_rejected(self):
        with pytest.raises(ModelError):
            Vocabulary([["a"]], min_count=5)

    def test_id_round_trip(self):
        vocab = Vocabulary(SENTENCES, min_count=1)
        for token in vocab.tokens:
            assert vocab.token_of(vocab.id_of(token)) == token


class TestEncode:
    def test_oov_dropped(self):
        vocab = Vocabulary(SENTENCES, min_count=2)
        ids = vocab.encode(["puru", "unknown", "zerii"])
        assert len(ids) == 2

    def test_subsampling_drops_frequent_tokens(self):
        sentences = [["the"] * 50 + ["rare"]] * 40
        vocab = Vocabulary(sentences, min_count=1, subsample_t=1e-4)
        rng = ensure_rng(0)
        encoded = vocab.encode(sentences[0], rng=rng)
        assert len(encoded) < 51

    def test_no_rng_keeps_everything(self):
        vocab = Vocabulary(SENTENCES, min_count=1)
        assert len(vocab.encode(SENTENCES[0])) == 3


class TestNegativeSampling:
    def test_shape(self):
        vocab = Vocabulary(SENTENCES, min_count=1)
        negatives = vocab.sample_negatives((4, 3), ensure_rng(0))
        assert negatives.shape == (4, 3)
        assert negatives.max() < len(vocab)

    def test_frequent_tokens_sampled_more(self):
        sentences = [["common"] * 20 + ["rare"]] * 30
        vocab = Vocabulary(sentences, min_count=1, subsample_t=0)
        rng = ensure_rng(0)
        draws = vocab.sample_negatives((5000,), rng)
        common_id = vocab.id_of("common")
        assert (draws == common_id).mean() > 0.5
