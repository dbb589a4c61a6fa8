"""Tests for repro.core.lda — the words-only baseline."""

import numpy as np
import pytest

from repro.core.kernels import CSRTokens
from repro.core.lda import LDAConfig, LatentDirichletAllocation, word_log_likelihood
from repro.core.state import TopicCounts, initialise_assignments
from repro.errors import ModelError, NotFittedError

from repro.rng import ensure_rng


def two_topic_corpus(rng, n_docs=60, doc_len=12):
    """Vocabulary 0–3 belongs to topic A, 4–7 to topic B."""
    docs = []
    truth = []
    for _ in range(n_docs):
        if rng.random() < 0.5:
            docs.append(rng.integers(0, 4, size=doc_len))
            truth.append("A")
        else:
            docs.append(rng.integers(4, 8, size=doc_len))
            truth.append("B")
    return docs, truth


@pytest.fixture(scope="module")
def fitted():
    rng = ensure_rng(0)
    docs, truth = two_topic_corpus(rng)
    config = LDAConfig(n_topics=2, n_sweeps=80, burn_in=40, thin=4)
    model = LatentDirichletAllocation(config).fit(docs, vocab_size=8, rng=1)
    return model, docs, truth


class TestConfig:
    def test_burn_in_bound(self):
        with pytest.raises(ModelError):
            LDAConfig(n_sweeps=10, burn_in=10)

    def test_topics_bound(self):
        with pytest.raises(ModelError):
            LDAConfig(n_topics=0)


class TestFit:
    def test_phi_is_distribution(self, fitted):
        model, _, _ = fitted
        assert np.allclose(model.phi_.sum(axis=1), 1.0)
        assert np.all(model.phi_ >= 0)

    def test_theta_is_distribution(self, fitted):
        model, _, _ = fitted
        assert np.allclose(model.theta_.sum(axis=1), 1.0)

    def test_recovers_two_topics(self, fitted):
        model, docs, truth = fitted
        assignment = model.topic_assignments()
        # one topic should capture A docs, the other B docs
        a_topics = {int(assignment[i]) for i, t in enumerate(truth) if t == "A"}
        b_topics = {int(assignment[i]) for i, t in enumerate(truth) if t == "B"}
        assert len(a_topics) == 1 and len(b_topics) == 1
        assert a_topics != b_topics

    def test_top_words_separate_vocabulary(self, fitted):
        model, _, _ = fitted
        tops = {k: {v for v, _ in model.top_words(k, 4)} for k in range(2)}
        assert tops[0].isdisjoint(tops[1])

    def test_log_likelihood_improves(self, fitted):
        model, _, _ = fitted
        trace = model.log_likelihoods_
        assert trace[-1] > trace[0]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ModelError):
            LatentDirichletAllocation().fit([], vocab_size=5)

    def test_bad_word_ids_rejected(self):
        with pytest.raises(ModelError):
            LatentDirichletAllocation().fit([np.array([9])], vocab_size=5)

    def test_deterministic_per_seed(self):
        rng = ensure_rng(4)
        docs, _ = two_topic_corpus(rng, n_docs=20)
        config = LDAConfig(n_topics=2, n_sweeps=10, burn_in=5)
        a = LatentDirichletAllocation(config).fit(docs, 8, rng=2)
        b = LatentDirichletAllocation(config).fit(docs, 8, rng=2)
        assert np.allclose(a.phi_, b.phi_)


class TestNotFitted:
    def test_assignments_require_fit(self):
        with pytest.raises(NotFittedError):
            LatentDirichletAllocation().topic_assignments()

    def test_top_words_require_fit(self):
        with pytest.raises(NotFittedError):
            LatentDirichletAllocation().top_words(0)


def loop_log_likelihood(docs, counts, alpha, gamma):
    """Oracle: the per-document loop that ``word_log_likelihood`` replaced."""
    v_total = gamma * counts.vocab_size
    phi = (counts.n_kv + gamma) / (counts.n_k[:, None] + v_total)
    theta = (counts.n_dk + alpha) / (counts.n_d[:, None] + alpha.sum())
    total = 0.0
    for d, words in enumerate(docs):
        if len(words) == 0:
            continue
        probs = theta[d] @ phi[:, np.asarray(words, dtype=int)]
        total += float(np.log(np.maximum(probs, 1e-300)).sum())
    return total


class TestWordLogLikelihood:
    """The one-gather form agrees with the per-document loop to rounding."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_document_loop(self, seed):
        rng = ensure_rng(seed)
        # ragged documents, about a quarter of them empty
        docs = [
            rng.integers(0, 30, size=int(rng.poisson(3.0)) * int(rng.random() > 0.25))
            for _ in range(200)
        ]
        assert any(len(doc) == 0 for doc in docs)
        counts = TopicCounts(len(docs), 7, 30)
        initialise_assignments(docs, counts, rng)
        alpha = np.full(7, 0.5)
        ours = word_log_likelihood(CSRTokens.from_docs(docs), counts, alpha, 0.1)
        oracle = loop_log_likelihood(docs, counts, alpha, 0.1)
        assert ours == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_all_empty_corpus_is_zero(self):
        docs = [np.array([], dtype=np.int64) for _ in range(4)]
        counts = TopicCounts(len(docs), 3, 5)
        initialise_assignments(docs, counts, ensure_rng(0))
        value = word_log_likelihood(CSRTokens.from_docs(docs), counts, np.ones(3), 0.1)
        assert value == 0.0
        assert loop_log_likelihood(docs, counts, np.ones(3), 0.1) == 0.0

    def test_fit_trace_matches_loop_at_the_end(self, fitted):
        """The last trace entry is the loop value on the final counts."""
        model, docs, _ = fitted
        counts = model._counts
        alpha = np.full(model.n_topics, model.config.alpha)
        oracle = loop_log_likelihood(docs, counts, alpha, model.config.gamma)
        assert model.log_likelihoods_[-1] == pytest.approx(oracle, rel=1e-12, abs=0.0)
