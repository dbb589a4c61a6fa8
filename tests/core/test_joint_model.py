"""Tests for repro.core.joint_model — the paper's contribution."""

import numpy as np
import pytest

from repro.core.joint_model import JointModelConfig, JointTextureTopicModel
from repro.errors import ModelError, NotFittedError

from repro.rng import ensure_rng


def synthetic_joint_data(rng, n_docs=90):
    """Three coupled clusters: word range AND gel location per cluster."""
    docs, gels, emulsions, truth = [], [], [], []
    clusters = [
        (range(0, 3), np.array([2.0, 12.0, 12.0])),
        (range(3, 6), np.array([12.0, 3.0, 12.0])),
        (range(6, 9), np.array([12.0, 12.0, 4.0])),
    ]
    for i in range(n_docs):
        c = i % 3
        words, centre = clusters[c]
        docs.append(rng.choice(list(words), size=4))
        gels.append(centre + rng.normal(0, 0.3, size=3))
        emulsions.append(rng.normal(c, 0.3, size=2))
        truth.append(c)
    return docs, np.array(gels), np.array(emulsions), truth


@pytest.fixture(scope="module")
def fitted():
    rng = ensure_rng(0)
    docs, gels, emulsions, truth = synthetic_joint_data(rng)
    config = JointModelConfig(n_topics=3, n_sweeps=60, burn_in=30, thin=3)
    model = JointTextureTopicModel(config).fit(
        docs, gels, emulsions, vocab_size=9, rng=1
    )
    return model, truth


class TestConfig:
    def test_validation(self):
        with pytest.raises(ModelError):
            JointModelConfig(n_topics=0)
        with pytest.raises(ModelError):
            JointModelConfig(n_sweeps=10, burn_in=10)
        with pytest.raises(ModelError):
            JointModelConfig(thin=0)


class TestFit:
    def test_estimates_are_distributions(self, fitted):
        model, _ = fitted
        assert np.allclose(model.phi_.sum(axis=1), 1.0)
        assert np.allclose(model.theta_.sum(axis=1), 1.0, atol=1e-6)

    def test_recovers_coupled_clusters(self, fitted):
        model, truth = fitted
        from repro.eval.metrics import normalized_mutual_information

        nmi = normalized_mutual_information(model.topic_assignments(), truth)
        assert nmi > 0.8

    def test_y_agrees_with_theta_assignment(self, fitted):
        model, _ = fitted
        agreement = (model.y_ == model.topic_assignments()).mean()
        assert agreement > 0.8

    def test_gel_means_near_cluster_centres(self, fitted):
        model, _ = fitted
        # each true centre must be close to some topic mean
        centres = [
            np.array([2.0, 12.0, 12.0]),
            np.array([12.0, 3.0, 12.0]),
            np.array([12.0, 12.0, 4.0]),
        ]
        for centre in centres:
            distances = np.linalg.norm(model.gel_means_ - centre, axis=1)
            assert distances.min() < 0.5

    def test_word_topics_coupled_to_gel_topics(self, fitted):
        """Each topic's top words must come from its cluster's word range."""
        model, _ = fitted
        for k in range(3):
            centre_gel = model.gel_means_[k]
            cluster = int(np.argmin([centre_gel[0], centre_gel[1], centre_gel[2]]))
            top = [v for v, _ in model.top_words(k, 3)]
            assert all(v // 3 == cluster for v in top)

    def test_topic_sizes_sum_to_docs(self, fitted):
        model, truth = fitted
        assert model.topic_sizes().sum() == len(truth)

    def test_log_likelihood_trace_recorded(self, fitted):
        model, _ = fitted
        assert len(model.log_likelihoods_) == model.config.n_sweeps

    def test_gel_concentration_means_are_ratios(self, fitted):
        model, _ = fitted
        conc = model.gel_concentration_means()
        assert np.all(conc > 0) and np.all(conc < 1)


class TestValidation:
    def test_empty_docs_rejected(self):
        with pytest.raises(ModelError):
            JointTextureTopicModel().fit([], np.zeros((0, 3)), np.zeros((0, 6)), 5)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ModelError):
            JointTextureTopicModel().fit(
                [np.array([0])], np.zeros((2, 3)), np.zeros((1, 6)), 5
            )

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            JointTextureTopicModel().topic_assignments()


class TestDeterminism:
    def test_same_seed_same_result(self, rng):
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=30)
        config = JointModelConfig(n_topics=3, n_sweeps=12, burn_in=6, thin=2)
        a = JointTextureTopicModel(config).fit(docs, gels, emulsions, 9, rng=5)
        b = JointTextureTopicModel(config).fit(docs, gels, emulsions, 9, rng=5)
        assert np.allclose(a.phi_, b.phi_)
        assert np.array_equal(a.y_, b.y_)


class TestRestarts:
    def test_invalid_count_rejected(self):
        with pytest.raises(ModelError):
            JointModelConfig(n_restarts=0)

    def test_restarts_pick_best_chain(self, rng):
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=45)
        single = JointModelConfig(n_topics=3, n_sweeps=16, burn_in=8, thin=2)
        multi = JointModelConfig(
            n_topics=3, n_sweeps=16, burn_in=8, thin=2, n_restarts=4
        )
        one = JointTextureTopicModel(single).fit(docs, gels, emulsions, 9, rng=2)
        best = JointTextureTopicModel(multi).fit(docs, gels, emulsions, 9, rng=2)
        # the best-of-4 final likelihood can't be worse than a lone chain
        # started from the same seed family
        assert best.log_likelihoods_[-1] >= one.log_likelihoods_[-1] - 1e-6

    def test_restart_result_fully_populated(self, rng):
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=30)
        config = JointModelConfig(
            n_topics=3, n_sweeps=10, burn_in=5, thin=2, n_restarts=2
        )
        model = JointTextureTopicModel(config).fit(docs, gels, emulsions, 9, rng=1)
        assert model.phi_ is not None and model.y_ is not None
        assert model.topic_sizes().sum() == 30

    def test_restarts_deterministic(self, rng):
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=30)
        config = JointModelConfig(
            n_topics=3, n_sweeps=10, burn_in=5, thin=2, n_restarts=2
        )
        a = JointTextureTopicModel(config).fit(docs, gels, emulsions, 9, rng=7)
        b = JointTextureTopicModel(config).fit(docs, gels, emulsions, 9, rng=7)
        assert np.allclose(a.phi_, b.phi_)


class TestSerialRegression:
    """Pin the serial sampler's output for a fixed seed.

    These values were captured from the pre-vectorisation per-topic-loop
    implementation; the batched einsum/slogdet path must reproduce them
    (bit-identically on the reference platform, hence the tight
    tolerances — any algorithmic drift in the sampler shows up here).
    """

    @pytest.fixture(scope="class")
    def pinned(self):
        rng = ensure_rng(0)
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=45)
        config = JointModelConfig(n_topics=3, n_sweeps=20, burn_in=10, thin=2)
        return JointTextureTopicModel(config).fit(
            docs, gels, emulsions, 9, rng=1234
        )

    def test_log_likelihood_trace_pinned(self, pinned):
        assert pinned.log_likelihoods_[0] == pytest.approx(
            -470.45368206059277, rel=1e-9
        )
        assert pinned.log_likelihoods_[-1] == pytest.approx(
            -370.81083333381594, rel=1e-9
        )

    def test_estimates_pinned(self, pinned):
        assert float(pinned.phi_[0, 0]) == pytest.approx(
            0.0016420361247947456, rel=1e-9
        )
        assert pinned.gel_means_[0] == pytest.approx(
            [11.786168386169292, 3.0617323786838186, 11.917177971619711],
            rel=1e-9,
        )
        assert pinned.emulsion_means_[2] == pytest.approx(
            [-0.01222860950403774, 0.04401042409203768], rel=1e-7
        )

    def test_hard_assignments_pinned(self, pinned):
        assert pinned.y_.tolist() == [2, 0, 1] * 15

    def test_moving_documents_pinned(self):
        """Four topics on three clusters: documents move between the two
        topics that share a cluster, so the membership-keyed posterior
        cache is invalidated. Captured where the cache could still be
        switched off, after checking both fits agreed bitwise."""
        rng = ensure_rng(0)
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=45)
        config = JointModelConfig(n_topics=4, n_sweeps=20, burn_in=10, thin=2)
        model = JointTextureTopicModel(config).fit(
            docs, gels, emulsions, 9, rng=1234
        )
        assert model.log_likelihoods_[-1] == pytest.approx(
            -384.71776495891015, rel=1e-9
        )
        assert model.gel_means_[0] == pytest.approx(
            [9.991378720248864, 6.1308083885257085, 13.156957003459212],
            rel=1e-9,
        )
        assert model.y_.tolist() == [2, 3, 1] * 15

    def test_restart_selection_pinned(self):
        rng = ensure_rng(0)
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=45)
        config = JointModelConfig(
            n_topics=3, n_sweeps=12, burn_in=6, thin=2, n_restarts=3
        )
        model = JointTextureTopicModel(config).fit(
            docs, gels, emulsions, 9, rng=7
        )
        assert model.log_likelihoods_[-1] == pytest.approx(
            -367.55291676776005, rel=1e-9
        )
        assert float(model.phi_[0, 0]) == pytest.approx(
            0.0016511737771308318, rel=1e-9
        )


class TestBackends:
    def test_parallel_restarts_bit_identical_to_serial(self, rng):
        """Chains draw from pre-spawned streams → worker-count-independent."""
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=30)
        serial_cfg = JointModelConfig(
            n_topics=3, n_sweeps=10, burn_in=5, thin=2, n_restarts=3
        )
        serial = JointTextureTopicModel(serial_cfg).fit(
            docs, gels, emulsions, 9, rng=7
        )
        parallel_cfg = JointModelConfig(
            n_topics=3, n_sweeps=10, burn_in=5, thin=2, n_restarts=3,
            n_workers=2,
        )
        parallel = JointTextureTopicModel(parallel_cfg).fit(
            docs, gels, emulsions, 9, rng=7
        )
        assert np.array_equal(serial.phi_, parallel.phi_)
        assert np.array_equal(serial.theta_, parallel.theta_)
        assert np.array_equal(serial.y_, parallel.y_)
        assert serial.log_likelihoods_ == parallel.log_likelihoods_

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ModelError):
            JointModelConfig(n_workers=0)

    def test_fit_records_timings(self, rng):
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=30)
        config = JointModelConfig(
            n_topics=3, n_sweeps=6, burn_in=3, thin=2, n_restarts=2
        )
        model = JointTextureTopicModel(config).fit(
            docs, gels, emulsions, 9, rng=1
        )
        assert model.fit_seconds_ is not None and model.fit_seconds_ > 0
        assert len(model.restart_seconds_) == 2
        assert all(s > 0 for s in model.restart_seconds_)
