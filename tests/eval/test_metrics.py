"""Tests for repro.eval.metrics."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.eval.metrics import (
    mutual_information,
    normalized_mutual_information,
    purity,
)


class TestPurity:
    def test_perfect(self):
        assert purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0

    def test_relabelled_perfect(self):
        assert purity([5, 5, 2, 2], ["a", "a", "b", "b"]) == 1.0

    def test_mixed(self):
        assert purity([0, 0, 0, 0], ["a", "a", "b", "b"]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            purity([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            purity([0], ["a", "b"])


class TestNMI:
    def test_perfect_is_one(self):
        assert normalized_mutual_information([0, 1, 2], ["a", "b", "c"]) == pytest.approx(1.0)

    def test_independent_is_near_zero(self, rng):
        a = rng.integers(0, 4, 2000)
        b = rng.integers(0, 4, 2000)
        assert normalized_mutual_information(a, b) < 0.05

    def test_symmetric(self, rng):
        a = rng.integers(0, 3, 100)
        b = rng.integers(0, 3, 100)
        assert normalized_mutual_information(a, b) == pytest.approx(
            normalized_mutual_information(b, a)
        )

    def test_single_cluster_each(self):
        assert normalized_mutual_information([0, 0], ["a", "a"]) == 1.0

    def test_bounded(self, rng):
        a = rng.integers(0, 5, 300)
        b = rng.integers(0, 2, 300)
        assert 0.0 <= normalized_mutual_information(a, b) <= 1.0


class TestMutualInformation:
    def test_non_negative(self, rng):
        a = rng.integers(0, 3, 200)
        b = rng.integers(0, 3, 200)
        assert mutual_information(a, b) >= -1e-12

    def test_perfect_equals_entropy(self):
        labels = [0, 0, 1, 1, 2, 2]
        mi = mutual_information(labels, labels)
        assert mi == pytest.approx(np.log(3))


class TestWordPerplexity:
    def test_perfect_prediction_is_one(self):
        from repro.eval.metrics import word_perplexity

        # one topic, one word: every token predicted with probability 1
        docs = [np.array([0, 0]), np.array([0])]
        phi = np.array([[1.0]])
        theta = np.ones((2, 1))
        assert word_perplexity(docs, phi, theta) == pytest.approx(1.0)

    def test_uniform_prediction_equals_vocab_size(self):
        from repro.eval.metrics import word_perplexity

        vocab = 8
        docs = [np.arange(vocab)]
        phi = np.full((2, vocab), 1.0 / vocab)
        theta = np.full((1, 2), 0.5)
        assert word_perplexity(docs, phi, theta) == pytest.approx(vocab)

    def test_better_model_lower_perplexity(self):
        from repro.eval.metrics import word_perplexity

        docs = [np.array([0, 0, 0, 1])]
        phi_good = np.array([[0.75, 0.25]])
        phi_bad = np.array([[0.25, 0.75]])
        theta = np.ones((1, 1))
        assert word_perplexity(docs, phi_good, theta) < word_perplexity(
            docs, phi_bad, theta
        )

    def test_empty_docs_rejected(self):
        from repro.eval.metrics import word_perplexity

        with pytest.raises(ReproError):
            word_perplexity([np.array([], dtype=int)], np.ones((1, 2)) / 2,
                            np.ones((1, 1)))

    def test_row_mismatch_rejected(self):
        from repro.eval.metrics import word_perplexity

        with pytest.raises(ReproError):
            word_perplexity([np.array([0])], np.ones((1, 2)) / 2,
                            np.ones((2, 1)))
