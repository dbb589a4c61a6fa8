"""Tests for repro.embedding.vocab."""

import numpy as np
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
        ids, _ = vocab.encode([["puru", "unknown", "zerii"]])
        assert len(ids) == 2

    def test_no_rng_keeps_everything(self):
        vocab = Vocabulary(SENTENCES, min_count=1)
        ids, _ = vocab.encode([SENTENCES[0]])
        assert len(ids) == 3

    def test_offsets_bound_each_sentence(self):
        vocab = Vocabulary(SENTENCES, min_count=2)
        sentences = [["puru", "katai"], [], ["unknown"], ["zerii", "puru"]]
        ids, offsets = vocab.encode(sentences)
        assert offsets.tolist() == [0, 1, 1, 1, 3]
        for sentence, start, end in zip(sentences, offsets[:-1], offsets[1:]):
            expected = [vocab.id_of(t) for t in sentence if t in vocab]
            assert ids[start:end].tolist() == expected
        assert ids.dtype == offsets.dtype == np.int64

    def test_empty_input(self):
        vocab = Vocabulary(SENTENCES, min_count=1)
        ids, offsets = vocab.encode([])
        assert ids.size == 0 and offsets.tolist() == [0]


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
