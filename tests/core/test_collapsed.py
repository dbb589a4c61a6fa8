"""Tests for repro.core.collapsed — the Rao-Blackwellised variant."""

import numpy as np
import pytest

from repro.core.collapsed import CollapsedJointModel, _SuffStats
from repro.core.joint_model import JointModelConfig
from repro.core.priors import NormalWishartPrior
from repro.errors import ModelError, NotFittedError
from tests.core.test_joint_model import synthetic_joint_data

from repro.rng import ensure_rng


class TestSuffStats:
    def test_add_remove_round_trip(self, rng):
        stats = _SuffStats.empty(3)
        x = rng.normal(size=3)
        stats.add(x)
        stats.add(rng.normal(size=3))
        stats.remove(x)
        assert stats.n == 1

    def test_remove_below_zero_raises(self):
        stats = _SuffStats.empty(2)
        with pytest.raises(ModelError):
            stats.remove(np.zeros(2))

    def test_remove_negative_scatter_diagonal_raises(self):
        """Removing a point that was never added can leave n >= 0 while
        driving a sum-of-squares diagonal negative — same bug, caught
        through the float bookkeeping."""
        stats = _SuffStats.empty(2)
        stats.add(np.array([1.0, 0.0]))
        stats.add(np.array([1.0, 0.0]))
        with pytest.raises(ModelError):
            stats.remove(np.array([2.0, 0.0]))

    def test_remove_tolerates_cancellation_noise(self):
        """Exact add/remove round-trips must never trip the guard."""
        rng = ensure_rng(8)
        stats = _SuffStats.empty(3)
        points = rng.normal(size=(50, 3)) * 1e3
        for x in points:
            stats.add(x)
        for x in points[1:]:
            stats.remove(x)
        assert stats.n == 1

    def test_posterior_matches_batch(self, rng):
        """Incremental posterior must equal the batch equation (4)."""
        from repro.core import normal_wishart as nw

        data = rng.normal(size=(20, 3))
        prior = NormalWishartPrior.vague(data)
        stats = _SuffStats.empty(3)
        for x in data:
            stats.add(x)
        incremental = stats.posterior(prior)
        batch = nw.posterior(prior, data)
        assert np.allclose(incremental.mean, batch.mean)
        assert np.allclose(incremental.scale, batch.scale, rtol=1e-8)
        assert incremental.dof == batch.dof

    def test_empty_posterior_is_prior(self, rng):
        prior = NormalWishartPrior.vague(rng.normal(size=(10, 2)))
        assert _SuffStats.empty(2).posterior(prior) is prior


class TestCachedPredictive:
    def test_empty_topic_uses_prior(self, rng):
        from repro.core import normal_wishart as nw
        from repro.core.collapsed import _BatchedStudentT

        data = rng.normal(size=(30, 3))
        prior = NormalWishartPrior.vague(data)
        pred = _BatchedStudentT(prior, 1)
        x = rng.normal(size=3)
        density = pred.logpdf_some([_SuffStats.empty(3)], x, np.arange(1))
        assert density[0] == pytest.approx(nw.log_predictive(prior, x))

    def test_cache_invalidation_tracks_moves(self, rng):
        from repro.core import normal_wishart as nw
        from repro.core.collapsed import _BatchedStudentT

        data = rng.normal(size=(20, 3))
        prior = NormalWishartPrior.vague(data)
        stats = _SuffStats.empty(3)
        pred = _BatchedStudentT(prior, 1)
        x = rng.normal(size=3)

        for point in data[:10]:
            stats.add(point)
        first = pred.logpdf_some([stats], x, np.arange(1))[0]
        assert first == pytest.approx(
            nw.log_predictive(nw.posterior(prior, data[:10]), x)
        )
        # move five more points in; a stale cache would return `first`
        for point in data[10:15]:
            stats.add(point)
        pred.invalidate(0)
        second = pred.logpdf_some([stats], x, np.arange(1))[0]
        assert second == pytest.approx(
            nw.log_predictive(nw.posterior(prior, data[:15]), x)
        )
        assert second != pytest.approx(first)

    def test_repeated_reads_hit_cache(self, rng):
        from repro.core.collapsed import _BatchedStudentT

        data = rng.normal(size=(10, 2))
        prior = NormalWishartPrior.vague(data)
        stats = _SuffStats.empty(2)
        for point in data:
            stats.add(point)
        pred = _BatchedStudentT(prior, 1)
        x = rng.normal(size=2)
        first = pred.logpdf_some([stats], x, np.arange(1))[0]
        assert pred.logpdf_some([stats], x, np.arange(1))[0] == first


class TestCollapsedModel:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = ensure_rng(0)
        docs, gels, emulsions, truth = synthetic_joint_data(rng, n_docs=60)
        config = JointModelConfig(n_topics=3, n_sweeps=30, burn_in=15, thin=3)
        model = CollapsedJointModel(config).fit(
            docs, gels, emulsions, vocab_size=9, rng=1
        )
        return model, truth

    def test_recovers_structure(self, fitted):
        model, truth = fitted
        from repro.eval.metrics import normalized_mutual_information

        nmi = normalized_mutual_information(model.topic_assignments(), truth)
        assert nmi > 0.8

    def test_phi_distribution(self, fitted):
        model, _ = fitted
        assert np.allclose(model.phi_.sum(axis=1), 1.0)

    def test_linker_compatible(self, fitted):
        """The collapsed model exposes the gel Gaussians the linker needs."""
        from repro.core.linkage import TopicLinker

        model, _ = fitted
        linker = TopicLinker(model)
        divergences = linker.divergences_from(np.array([0.1, 1e-6, 1e-6]))
        assert divergences.shape == (3,)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            CollapsedJointModel().topic_assignments()

    def test_log_likelihood_trace_recorded(self, fitted):
        model, _ = fitted
        assert len(model.log_likelihoods_) == model.config.n_sweeps

    def test_restarts_pick_best_chain(self):
        from repro.core.joint_model import run_chains

        rng = ensure_rng(2)
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=30)
        config = JointModelConfig(
            n_topics=3, n_sweeps=8, burn_in=4, thin=2, n_restarts=3
        )
        best = CollapsedJointModel(config).fit(docs, gels, emulsions, 9, rng=6)
        chains = run_chains(
            CollapsedJointModel, config, docs, gels, emulsions, 9,
            n_chains=3, rng=6,
        )
        finals = [chain.log_likelihoods_[-1] for chain, _ in chains]
        assert best.log_likelihoods_[-1] == max(finals)

    def test_agrees_with_semi_collapsed(self):
        """Both samplers must recover the same partition on easy data."""
        from repro.core.joint_model import JointTextureTopicModel
        from repro.eval.metrics import normalized_mutual_information

        rng = ensure_rng(3)
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=60)
        config = JointModelConfig(n_topics=3, n_sweeps=30, burn_in=15, thin=3)
        semi = JointTextureTopicModel(config).fit(docs, gels, emulsions, 9, rng=4)
        collapsed = CollapsedJointModel(config).fit(docs, gels, emulsions, 9, rng=4)
        agreement = normalized_mutual_information(
            semi.topic_assignments(), collapsed.topic_assignments()
        )
        assert agreement > 0.85


class TestSerialRegression:
    """Pin the collapsed sampler's output for a fixed seed.

    Four topics on three clusters, so documents move between the two
    topics that share a cluster and the density cache is invalidated
    and recomputed (with three topics nothing moves after the k-means++
    start). The values were captured where the cache could still be
    switched off, after checking that the cached and uncached fits
    agreed bitwise; the cached path must keep reproducing them.
    """

    @pytest.fixture(scope="class")
    def pinned(self):
        rng = ensure_rng(0)
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=45)
        config = JointModelConfig(n_topics=4, n_sweeps=20, burn_in=10, thin=2)
        return CollapsedJointModel(config).fit(
            docs, gels, emulsions, 9, rng=1234
        )

    def test_log_likelihood_trace_pinned(self, pinned):
        assert pinned.log_likelihoods_[0] == pytest.approx(
            -482.7173951446964, rel=1e-9
        )
        assert pinned.log_likelihoods_[-1] == pytest.approx(
            -392.08981786662895, rel=1e-9
        )

    def test_estimates_pinned(self, pinned):
        assert float(pinned.phi_[0, 0]) == pytest.approx(
            0.0023267128051030687, rel=1e-9
        )
        assert pinned.gel_means_[0] == pytest.approx(
            [11.806725835955644, 3.0370499170830954, 12.042197139314073],
            rel=1e-9,
        )

    def test_hard_assignments_pinned(self, pinned):
        assert pinned.y_.tolist() == [2, 0, 1] * 15
