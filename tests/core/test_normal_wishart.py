"""Tests for repro.core.normal_wishart — equation (4) machinery."""

import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from repro.core import normal_wishart as nw
from repro.core.linalg import guarded_inv, symmetrize
from repro.core.priors import NormalWishartPrior
from repro.errors import ModelError
from repro.rng import ensure_rng


@pytest.fixture()
def prior():
    return NormalWishartPrior(
        mean=np.zeros(2), kappa=1.0, dof=4.0, scale=np.eye(2) / 4.0
    )


class TestPosterior:
    def test_no_data_returns_prior(self, prior):
        assert nw.posterior(prior, np.empty((0, 2))) is prior

    def test_counts_accumulate(self, prior, rng):
        data = rng.normal(size=(10, 2))
        post = nw.posterior(prior, data)
        assert post.kappa == pytest.approx(11.0)
        assert post.dof == pytest.approx(14.0)

    def test_posterior_mean_shrinks_toward_data(self, prior, rng):
        data = rng.normal(5.0, 0.1, size=(100, 2))
        post = nw.posterior(prior, data)
        assert np.allclose(post.mean, 5.0, atol=0.2)

    def test_dimension_mismatch(self, prior):
        with pytest.raises(ModelError):
            nw.posterior(prior, np.zeros((3, 5)))

    def test_eq4_formula_exact(self, prior):
        """Check the posterior against the paper's equation (4) by hand."""
        data = np.array([[1.0, 0.0], [3.0, 2.0]])
        post = nw.posterior(prior, data)
        xbar = data.mean(axis=0)
        expected_mean = (2 * xbar + prior.kappa * prior.mean) / (2 + prior.kappa)
        assert np.allclose(post.mean, expected_mean)
        scatter = sum(np.outer(x - xbar, x - xbar) for x in data)
        dmean = xbar - prior.mean
        expected_scale_inv = (
            guarded_inv(prior.scale)
            + scatter
            + (2 * prior.kappa / (2 + prior.kappa)) * np.outer(dmean, dmean)
        )
        assert np.allclose(guarded_inv(post.scale), expected_scale_inv)


class TestSampling:
    def test_sample_shapes(self, prior, rng):
        params = nw.sample(prior, rng)
        assert params.mean.shape == (2,)
        assert params.precision.shape == (2, 2)

    def test_sample_deterministic_per_seed(self, prior):
        a = nw.sample(prior, 3)
        b = nw.sample(prior, 3)
        assert np.allclose(a.mean, b.mean)

    def test_posterior_samples_concentrate(self, prior, rng):
        data = rng.normal([2.0, -1.0], 0.5, size=(500, 2))
        post = nw.posterior(prior, data)
        means = np.array([nw.sample(post, rng).mean for _ in range(50)])
        assert np.allclose(means.mean(axis=0), [2.0, -1.0], atol=0.15)

    def test_sampled_precision_positive_definite(self, prior, rng):
        for _ in range(10):
            params = nw.sample(prior, rng)
            np.linalg.cholesky(params.precision)


def scipy_sample(
    prior: NormalWishartPrior, generator: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: Λ from ``scipy.stats.wishart.rvs``, then μ from numpy's
    ``multivariate_normal`` on the covariance ``nw.sample`` builds."""
    precision = np.atleast_2d(
        stats.wishart.rvs(df=prior.dof, scale=prior.scale, random_state=generator)
    )
    covariance = symmetrize(guarded_inv(prior.kappa * precision))
    return precision, generator.multivariate_normal(prior.mean, covariance)


def random_prior(dim: int, seed: int) -> NormalWishartPrior:
    """A random NW prior; odd seeds get a non-integer ν just above d − 1."""
    gen = ensure_rng(seed)
    root = gen.normal(size=(dim + 3, dim))
    dof = (
        dim - 1 + gen.uniform(0.05, 12.0)
        if seed % 2
        else float(dim + gen.integers(1, 40))
    )
    return NormalWishartPrior(
        mean=gen.normal(size=dim),
        kappa=float(gen.uniform(0.1, 5.0)),
        dof=dof,
        scale=root.T @ root / dim + 0.1 * np.eye(dim),
    )


class TestBartlettDraw:
    """``nw.sample`` runs scipy's Bartlett construction and numpy's SVD
    normal draw itself: the same draws in the same order, so the stream
    does not move."""

    @pytest.mark.parametrize("dim", [2, 3, 6])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy_draw_for_draw(self, dim, seed):
        prior = random_prior(dim, seed)
        ours_rng = ensure_rng(100 + seed)
        theirs_rng = ensure_rng(100 + seed)
        for _ in range(3):
            ours = nw.sample(prior, ours_rng)
            precision, mean = scipy_sample(prior, theirs_rng)
            assert np.array_equal(ours.precision, precision)
            assert np.array_equal(ours.mean, mean)
        assert ours_rng.random() == theirs_rng.random()

    def test_one_dimensional_draw(self):
        prior = NormalWishartPrior(
            mean=np.zeros(1), kappa=1.0, dof=2.5, scale=np.array([[0.7]])
        )
        ours_rng, theirs_rng = ensure_rng(5), ensure_rng(5)
        ours = nw.sample(prior, ours_rng)
        precision, mean = scipy_sample(prior, theirs_rng)
        assert ours.precision.shape == (1, 1)
        assert np.array_equal(ours.precision, precision)
        assert np.array_equal(ours.mean, mean)

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_normal_matches_multivariate_normal(self, dim):
        gen = ensure_rng(dim)
        ours_rng, theirs_rng = ensure_rng(30 + dim), ensure_rng(30 + dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # PSD: no warning
            for _ in range(200):
                root = gen.normal(size=(dim, dim))
                covariance = symmetrize(root @ root.T + 0.01 * np.eye(dim))
                mean = gen.normal(size=dim)
                ours = nw._normal(mean, covariance, ours_rng)
                theirs = theirs_rng.multivariate_normal(mean, covariance)
                assert ours.shape == theirs.shape == (dim,)
                assert np.array_equal(ours, theirs)
        assert ours_rng.random() == theirs_rng.random()

    def test_covariance_failing_the_psd_check_warns(self):
        """An indefinite Σ fails numpy's check: both warn, and the draws
        still agree."""
        covariance = np.array([[1.0, 2.0], [2.0, 1.0]])
        mean = np.zeros(2)
        ours_rng, theirs_rng = ensure_rng(8), ensure_rng(8)
        with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
            theirs = theirs_rng.multivariate_normal(mean, covariance)
        with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
            ours = nw._normal(mean, covariance, ours_rng)
        assert np.array_equal(ours, theirs)
        assert ours_rng.random() == theirs_rng.random()

    def test_mean_precision_is_nu_s(self):
        """E[Λ] = ν·S, here within 3% over 4,000 draws."""
        prior = random_prior(3, 4)
        gen = ensure_rng(7)
        draws = np.array([nw.sample(prior, gen).precision for _ in range(4000)])
        expected = prior.dof * prior.scale
        scale = np.abs(expected).max()
        assert np.abs(draws.mean(axis=0) - expected).max() < 0.03 * scale


class TestExpectedParams:
    def test_expected_precision_is_nu_s(self, prior):
        params = nw.expected_params(prior)
        assert np.allclose(params.precision, prior.dof * prior.scale)

    def test_covariance_inverse(self, prior):
        params = nw.expected_params(prior)
        assert np.allclose(
            params.covariance @ params.precision, np.eye(2), atol=1e-10
        )


class TestLogDensity:
    def test_matches_scipy(self, rng):
        mean = np.array([1.0, -1.0])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        params = nw.GaussianParams(mean=mean, precision=guarded_inv(cov))
        x = rng.normal(size=(5, 2))
        ours = params.log_density(x)
        theirs = stats.multivariate_normal(mean, cov).logpdf(x)
        assert np.allclose(ours, theirs)

    def test_batch_and_single_agree(self):
        params = nw.GaussianParams(mean=np.zeros(2), precision=np.eye(2))
        single = params.log_density(np.array([1.0, 1.0]))
        batch = params.log_density(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert single[0] == pytest.approx(batch[0])


class TestLogPredictive:
    def test_matches_monte_carlo(self, prior, rng):
        """Student-t predictive ≈ average over sampled Gaussians."""
        data = rng.normal(0.0, 1.0, size=(50, 2))
        post = nw.posterior(prior, data)
        x = np.array([0.5, -0.5])
        exact = nw.log_predictive(post, x)
        samples = [
            float(nw.sample(post, rng).log_density(x)[0]) for _ in range(4000)
        ]
        # log-mean-exp via logsumexp: the naive np.log(np.mean(np.exp(s)))
        # underflows for strongly negative log-densities
        monte_carlo = float(logsumexp(samples) - np.log(len(samples)))
        assert exact == pytest.approx(monte_carlo, abs=0.1)

    def test_far_point_less_likely(self, prior, rng):
        data = rng.normal(0.0, 1.0, size=(50, 2))
        post = nw.posterior(prior, data)
        near = nw.log_predictive(post, np.zeros(2))
        far = nw.log_predictive(post, np.full(2, 10.0))
        assert near > far

    def test_valid_prior_always_has_positive_t_dof(self):
        # the NW constructor enforces ν > dim−1, so ν − dim + 1 > 0 and the
        # predictive is defined for any valid prior
        tight = NormalWishartPrior(
            mean=np.zeros(3), kappa=1.0, dof=2.5, scale=np.eye(3)
        )
        value = nw.log_predictive(tight, np.zeros(3))
        assert np.isfinite(value)
