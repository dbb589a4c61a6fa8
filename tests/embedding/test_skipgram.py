"""Tests for repro.embedding.skipgram."""

import numpy as np
import pytest

from repro.embedding import skipgram
from repro.embedding.skipgram import SkipGramConfig, SkipGramModel
from repro.embedding.vocab import Vocabulary
from repro.errors import ModelError, NotFittedError

from repro.rng import ensure_rng


def toy_corpus(rng, n=300):
    """Two disjoint topic clusters: fruit words and tool words."""
    fruit = ["apple", "banana", "mango", "berry"]
    tools = ["hammer", "wrench", "drill", "saw"]
    sentences = []
    for _ in range(n):
        group = fruit if rng.random() < 0.5 else tools
        sentences.append(list(rng.choice(group, size=4)))
    return sentences


def oracle_pairs(vocab, window, sentences, rng):
    """The per-sentence, per-token loop that ``_epoch_pairs`` replaces:
    subsample each sentence with one ``rng.random(n)``, draw each kept
    token's window span with a scalar ``rng.integers``, and shuffle the
    rows of the pair array in place."""
    pairs = []
    for sentence in sentences:
        ids = np.array([vocab.id_of(t) for t in sentence if t in vocab], dtype=np.int64)
        if ids.size:
            ids = ids[rng.random(ids.size) < vocab.keep_probability[ids]]
        n = len(ids)
        for i in range(n):
            span = int(rng.integers(1, window + 1))  # dynamic window
            lo, hi = max(0, i - span), min(n, i + span + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((int(ids[i]), int(ids[j])))
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    rng.shuffle(arr)
    return arr


def epoch_pairs(vocab, window, sentences, rng):
    ids, offsets = vocab.encode(sentences)
    return skipgram._epoch_pairs(
        ids, offsets, vocab.keep_probability[ids], window, rng
    )


def edge_corpus(rng):
    """A toy corpus plus the sentences the pair builder must step over:
    empty, all out-of-vocabulary, a single token, and runs of the most
    frequent token that subsampling empties."""
    sentences = toy_corpus(rng, n=120)
    sentences[3:3] = [[], ["zzz", "qqq"], []]
    sentences[40:40] = [["apple"], ["spoon"] * 4, [], ["banana", "zzz", "drill"]]
    sentences.append(["zzz"])
    sentences.append(["spoon"] * 9)
    return sentences + [["spoon"] * 40] * 6


@pytest.fixture(scope="module")
def trained():
    rng = ensure_rng(0)
    sentences = toy_corpus(rng)
    config = SkipGramConfig(dim=16, window=3, epochs=8, min_count=2)
    return SkipGramModel(config).fit(sentences, rng=1)


class TestConfig:
    def test_degenerate_rejected(self):
        with pytest.raises(ModelError):
            SkipGramConfig(dim=1)
        with pytest.raises(ModelError):
            SkipGramConfig(window=0)
        with pytest.raises(ModelError):
            SkipGramConfig(epochs=0)


class TestTraining:
    def test_vectors_shape(self, trained):
        assert trained.input_vectors.shape[1] == 16
        assert trained.input_vectors.shape[0] == len(trained.vocab)

    def test_clusters_separate(self, trained):
        """Same-cluster words must be closer than cross-cluster words."""
        neighbours = [t for t, _ in trained.most_similar("apple", 3)]
        fruit_hits = len(set(neighbours) & {"banana", "mango", "berry"})
        assert fruit_hits >= 2

    def test_deterministic(self):
        rng = ensure_rng(0)
        sentences = toy_corpus(rng, n=100)
        config = SkipGramConfig(dim=8, epochs=2, min_count=1)
        a = SkipGramModel(config).fit(sentences, rng=3)
        b = SkipGramModel(config).fit(sentences, rng=3)
        assert np.array_equal(a.input_vectors, b.input_vectors)
        assert np.array_equal(a.output_vectors, b.output_vectors)

    @pytest.mark.parametrize("subsample_t", [0.0, 1e-3])
    def test_fit_matches_the_per_batch_oracle(self, monkeypatch, subsample_t):
        """With the per-sentence pair loop, the 2-D ``np.add.at`` scatter
        and a ``rng.choice`` per batch patched back in, the fit is the
        same to the bit."""
        sentences = edge_corpus(ensure_rng(4))
        config = SkipGramConfig(
            dim=8, window=3, epochs=3, batch_size=64, min_count=2,
            subsample_t=subsample_t,
        )
        ours = SkipGramModel(config).fit(sentences, rng=9)

        oracle = SkipGramModel(config)

        def per_sentence(ids, offsets, keep_probability, window, rng):
            return oracle_pairs(oracle.vocab, window, sentences, rng)

        def noise_choice(vocab, shape, rng):
            noise = vocab._counts.astype(float) ** 0.75
            return rng.choice(len(vocab), size=shape, p=noise / noise.sum())

        def scatter_2d(matrix, rows, values):
            np.add.at(matrix, rows, values.reshape(rows.size, -1))

        monkeypatch.setattr(skipgram, "_epoch_pairs", per_sentence)
        monkeypatch.setattr(Vocabulary, "sample_negatives", noise_choice)
        monkeypatch.setattr(skipgram, "_scatter_add", scatter_2d)
        oracle.fit(sentences, rng=9)
        assert np.array_equal(ours.input_vectors, oracle.input_vectors)
        assert np.array_equal(ours.output_vectors, oracle.output_vectors)

    def test_tiny_corpus_rejected(self):
        config = SkipGramConfig(min_count=1)
        with pytest.raises(ModelError):
            SkipGramModel(config).fit([["solo"]], rng=0)


class TestQueries:
    def test_vector_lookup(self, trained):
        assert trained.vector("apple").shape == (16,)

    def test_most_similar_excludes_self(self, trained):
        assert "apple" not in [t for t, _ in trained.most_similar("apple", 5)]

    def test_k_beyond_the_vocabulary_excludes_self(self, trained):
        assert len(trained.vocab) == 8
        for k in (7, 8, 10):
            neighbours = [t for t, _ in trained.most_similar("apple", k)]
            assert len(neighbours) == 7
            assert set(neighbours) == set(trained.vocab.tokens) - {"apple"}

    def test_similarities_sorted(self, trained):
        scores = [s for _, s in trained.most_similar("apple", 5)]
        assert scores == sorted(scores, reverse=True)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            SkipGramModel().vector("apple")


class TestEpochPairs:
    """``_epoch_pairs`` against the per-sentence loop it replaces."""

    @pytest.mark.parametrize("subsample_t", [0.0, 1e-3, 0.5])
    @pytest.mark.parametrize("window", range(1, 7))
    def test_matches_oracle(self, window, subsample_t):
        sentences = edge_corpus(ensure_rng(window))
        vocab = Vocabulary(sentences, min_count=2, subsample_t=subsample_t)
        ours_rng, oracle_rng = ensure_rng(50 + window), ensure_rng(50 + window)
        for _ in range(2):  # the second epoch starts where the first left
            ours = epoch_pairs(vocab, window, sentences, ours_rng)
            expected = oracle_pairs(vocab, window, sentences, oracle_rng)
            assert ours.dtype == expected.dtype and ours.shape == expected.shape
            assert ours.flags.c_contiguous
            assert np.array_equal(ours, expected)
        assert ours_rng.random() == oracle_rng.random()

    def test_a_corpus_with_no_pairs(self):
        sentences = [["solo"], [], ["solo", "zzz"]]
        vocab = Vocabulary(sentences, min_count=2, subsample_t=0.0)
        ours_rng, oracle_rng = ensure_rng(1), ensure_rng(1)
        ours = epoch_pairs(vocab, 3, sentences, ours_rng)
        expected = oracle_pairs(vocab, 3, sentences, oracle_rng)
        assert ours.shape == expected.shape == (0, 2)
        assert ours.dtype == expected.dtype
        assert ours_rng.random() == oracle_rng.random()

    def test_subsampling_drops_frequent_tokens(self):
        sentences = [["the"] * 50 + ["rare"]] * 40
        vocab = Vocabulary(sentences, min_count=1, subsample_t=1e-4)
        pairs = epoch_pairs(vocab, 2, sentences[:1], ensure_rng(0))
        every_token = Vocabulary(sentences, min_count=1, subsample_t=0.0)
        all_pairs = epoch_pairs(every_token, 2, sentences[:1], ensure_rng(0))
        assert len(np.unique(all_pairs[:, 0])) == 2
        assert len(pairs) < len(all_pairs) / 4
