"""Tests for repro.core.gmm — the concentrations-only baseline."""

import numpy as np
import pytest

from repro.core.gmm import BayesianGaussianMixture, GMMConfig
from repro.errors import ModelError, NotFittedError

from repro.rng import ensure_rng


def three_blobs(rng, n_per=40):
    centres = [(-5.0, 0.0), (5.0, 0.0), (0.0, 6.0)]
    data = np.vstack(
        [rng.normal(c, 0.4, size=(n_per, 2)) for c in centres]
    )
    truth = np.repeat(np.arange(3), n_per)
    return data, truth


@pytest.fixture(scope="module")
def fitted():
    rng = ensure_rng(0)
    data, truth = three_blobs(rng)
    config = GMMConfig(n_components=3, n_sweeps=60, burn_in=30, thin=3)
    model = BayesianGaussianMixture(config).fit(data, rng=1)
    return model, data, truth


class TestConfig:
    def test_validation(self):
        with pytest.raises(ModelError):
            GMMConfig(n_components=0)
        with pytest.raises(ModelError):
            GMMConfig(n_sweeps=10, burn_in=20)


class TestFit:
    def test_labels_cover_data(self, fitted):
        model, data, _ = fitted
        assert model.labels_.shape == (len(data),)

    def test_recovers_blobs(self, fitted):
        model, _, truth = fitted
        from repro.eval.metrics import normalized_mutual_information

        assert normalized_mutual_information(model.labels_, truth) > 0.9

    def test_means_near_centres(self, fitted):
        model, data, truth = fitted
        recovered = sorted(
            tuple(np.round(m, 0)) for m in model.means_ if np.isfinite(m).all()
        )
        true_centres = {(-5.0, 0.0), (5.0, 0.0), (0.0, 6.0)}
        hits = sum(1 for m in recovered if tuple(m) in true_centres)
        assert hits >= 3

    def test_weights_sum_to_one(self, fitted):
        model, _, _ = fitted
        assert model.weights_.sum() == pytest.approx(1.0, abs=0.05)

    def test_likelihood_trace_improves(self, fitted):
        model, _, _ = fitted
        assert model.log_likelihoods_[-1] > model.log_likelihoods_[0]

    def test_too_few_points_rejected(self):
        with pytest.raises(ModelError):
            BayesianGaussianMixture(GMMConfig(n_components=5)).fit(
                np.zeros((3, 2))
            )


class TestPredict:
    def test_predict_matches_training_labels(self, fitted):
        model, data, _ = fitted
        predicted = model.predict(data)
        agreement = (predicted == model.labels_).mean()
        assert agreement > 0.95

    def test_predict_requires_fit(self):
        with pytest.raises(NotFittedError):
            BayesianGaussianMixture().predict(np.zeros((2, 2)))


class TestSerialRegression:
    """Pin the sampler's output for fixed seeds, in the style of the joint
    model's pins. Captured from the per-topic draw (one ``nw.sample`` and
    one ``log_density`` per component), before the stacked draw; any
    drift in the random stream or the arithmetic shows up here."""

    def test_three_components_pinned(self, fitted):
        model, _, _ = fitted
        assert model.log_likelihoods_[0] == pytest.approx(
            -635.3550023650038, rel=1e-9
        )
        assert model.log_likelihoods_[-1] == pytest.approx(
            -266.41625334253115, rel=1e-9
        )
        assert model.means_[1] == pytest.approx(
            [4.8945609455601975, 0.0516387181001944], rel=1e-9
        )
        assert float(model.covs_[0][0, 1]) == pytest.approx(
            0.03478863559935653, rel=1e-9
        )
        assert model.labels_.tolist() == [0] * 40 + [1] * 40 + [2] * 40

    def test_near_empty_component_pinned(self):
        """Four components on three blobs: component 0 keeps about one
        point, so its posterior is at times the prior itself."""
        data, _ = three_blobs(ensure_rng(0))
        config = GMMConfig(n_components=4, n_sweeps=60, burn_in=30, thin=3)
        model = BayesianGaussianMixture(config).fit(data, rng=1)
        assert model.log_likelihoods_[0] == pytest.approx(
            -631.1059704211411, rel=1e-9
        )
        assert model.log_likelihoods_[-1] == pytest.approx(
            -265.4568543777907, rel=1e-9
        )
        assert model.means_[0] == pytest.approx(
            [-0.2298219240674429, 0.6595289152920014], rel=1e-9
        )
        assert float(model.covs_[0][0, 1]) == pytest.approx(
            -0.029292510962181266, rel=1e-9
        )
        assert float(model.weights_[0]) == pytest.approx(
            0.008870967741935482, rel=1e-9
        )
        assert model.labels_.tolist() == [3] * 40 + [1] * 40 + [2] * 40
