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
        stack = nw.sample([prior] * 3, rng)
        assert stack.means.shape == (3, 2)
        assert stack.precisions.shape == (3, 2, 2)
        assert stack.logdets.shape == (3,)

    def test_sample_deterministic_per_seed(self, prior):
        a = nw.sample([prior], 3)
        b = nw.sample([prior], 3)
        assert np.allclose(a.means, b.means)

    def test_posterior_samples_concentrate(self, prior, rng):
        data = rng.normal([2.0, -1.0], 0.5, size=(500, 2))
        post = nw.posterior(prior, data)
        means = nw.sample([post] * 50, rng).means
        assert np.allclose(means.mean(axis=0), [2.0, -1.0], atol=0.15)

    def test_sampled_precision_positive_definite(self, prior, rng):
        for precision in nw.sample([prior] * 10, rng).precisions:
            np.linalg.cholesky(precision)

    def test_scale_cholesky_is_cached_on_the_posterior(self, prior):
        first = prior.scale_cholesky
        assert prior.scale_cholesky is first
        assert np.array_equal(first @ first.T, prior.scale)


def scipy_sample(
    prior: NormalWishartPrior, generator: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle, one topic at a time: Λ from ``scipy.stats.wishart.rvs``,
    then μ from numpy's ``multivariate_normal`` on the covariance
    ``nw.sample`` builds."""
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
            ours = nw.sample([prior], ours_rng)
            precision, mean = scipy_sample(prior, theirs_rng)
            assert np.array_equal(ours.precisions[0], precision)
            assert np.array_equal(ours.means[0], mean)
        assert ours_rng.random() == theirs_rng.random()

    def test_one_dimensional_draw(self):
        prior = NormalWishartPrior(
            mean=np.zeros(1), kappa=1.0, dof=2.5, scale=np.array([[0.7]])
        )
        ours_rng, theirs_rng = ensure_rng(5), ensure_rng(5)
        ours = nw.sample([prior], ours_rng)
        precision, mean = scipy_sample(prior, theirs_rng)
        assert ours.precisions.shape == (1, 1, 1)
        assert np.array_equal(ours.precisions[0], precision)
        assert np.array_equal(ours.means[0], mean)

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_normal_matches_multivariate_normal(self, dim):
        """Stacks of 10: each row of ``_normal`` is numpy's draw on that
        row's (μ, Σ) from the same standard normals."""
        gen = ensure_rng(dim)
        ours_rng, theirs_rng = ensure_rng(30 + dim), ensure_rng(30 + dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # PSD: no warning
            for _ in range(20):
                roots = gen.normal(size=(10, dim, dim))
                covariances = symmetrize(
                    roots @ np.swapaxes(roots, 1, 2) + 0.01 * np.eye(dim)
                )
                means = gen.normal(size=(10, dim))
                z = np.stack([ours_rng.standard_normal((1, dim)) for _ in range(10)])
                ours = nw._normal(means, covariances, z)
                assert ours.shape == (10, dim)
                for k in range(10):
                    theirs = theirs_rng.multivariate_normal(
                        means[k], covariances[k]
                    )
                    assert np.array_equal(ours[k], theirs)
        assert ours_rng.random() == theirs_rng.random()

    def test_covariance_failing_the_psd_check_warns(self):
        """An indefinite Σ in a stack fails numpy's check: both warn, and
        the draws still agree."""
        covariances = np.array(
            [np.eye(2), [[1.0, 2.0], [2.0, 1.0]], 2.0 * np.eye(2)]
        )
        means = np.zeros((3, 2))
        ours_rng, theirs_rng = ensure_rng(8), ensure_rng(8)
        with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
            theirs = [theirs_rng.multivariate_normal(m, c) for m, c in zip(means, covariances)]
        z = np.stack([ours_rng.standard_normal((1, 2)) for _ in range(3)])
        with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
            ours = nw._normal(means, covariances, z)
        assert np.array_equal(ours, np.array(theirs))
        assert ours_rng.random() == theirs_rng.random()

    def test_mean_precision_is_nu_s(self):
        """E[Λ] = ν·S, here within 3% over 4,000 draws."""
        prior = random_prior(3, 4)
        draws = nw.sample([prior] * 4000, ensure_rng(7)).precisions
        expected = prior.dof * prior.scale
        scale = np.abs(expected).max()
        assert np.abs(draws.mean(axis=0) - expected).max() < 0.03 * scale


def assert_matches_scipy(
    posteriors: list[NormalWishartPrior], seed: int
) -> nw.GaussianStack:
    """``nw.sample(posteriors)`` against the per-topic oracle, draw for
    draw: every mean and precision, and the generator state after."""
    ours_rng, theirs_rng = ensure_rng(seed), ensure_rng(seed)
    ours = nw.sample(posteriors, ours_rng)
    assert ours.means.shape == (len(posteriors), posteriors[0].dim)
    for k, post in enumerate(posteriors):
        precision, mean = scipy_sample(post, theirs_rng)
        assert np.array_equal(ours.precisions[k], precision)
        assert np.array_equal(ours.means[k], mean)
    assert ours_rng.random() == theirs_rng.random()
    return ours


class TestStackedDraw:
    """One ``nw.sample`` call on K posteriors makes the K per-topic draws
    of :func:`scipy_sample`, in topic order, to the bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    @pytest.mark.parametrize("n_stack", [1, 3, 10])
    def test_matches_per_topic_draws(self, dim, n_stack):
        # random_prior gives odd seeds a non-integer ν
        posteriors = [random_prior(dim, 7 * n_stack + k) for k in range(n_stack)]
        assert any(not float(p.dof).is_integer() for p in posteriors) or n_stack == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_matches_scipy(posteriors, 40 + dim)

    def test_non_integer_dof_alone(self):
        posteriors = [random_prior(3, seed) for seed in (1, 3, 5)]
        assert all(not float(p.dof).is_integer() for p in posteriors)
        assert_matches_scipy(posteriors, 2)

    def test_repeated_posterior_shares_its_cached_factor(self):
        prior = random_prior(3, 2)
        stack = assert_matches_scipy([prior] * 5, 9)
        assert len({m.tobytes() for m in stack.means}) == 5

    def test_logdets_are_the_precisions(self):
        stack = nw.sample([random_prior(3, s) for s in range(4)], 1)
        assert np.array_equal(stack.logdets, np.linalg.slogdet(stack.precisions)[1])  # repro: noqa[NUM001] - reference value

    def test_one_covariance_failing_the_psd_check_warns(self):
        """A scale one ulp from singular gives, for this seed, a mean
        covariance that fails numpy's PSD check: the stack warns as the
        per-topic draw does, and every draw still agrees."""
        edge = 1.0 - 1e-16
        degenerate = NormalWishartPrior(
            mean=np.zeros(2), kappa=1.0, dof=3.0,
            scale=np.array([[1.0, edge], [edge, 1.0]]),
        )
        posteriors = [degenerate, random_prior(2, 0), random_prior(2, 1)]
        with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
            scipy_sample(degenerate, ensure_rng(21))
        with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
            assert_matches_scipy(posteriors, 21)

    def test_one_singular_kappa_lambda_is_repaired_alone(self):
        """A subnormal scale entry makes one κΛ's inverse overflow: that
        matrix takes ``guarded_inv``'s ridge path, as it does on its own,
        and the healthy matrices keep their plain inverse."""
        singular = NormalWishartPrior(
            mean=np.zeros(2), kappa=1.0, dof=4.0, scale=np.diag([1.0, 1e-310])
        )
        posteriors = [random_prior(2, 0), singular, random_prior(2, 1)]
        kappas = np.array([p.kappa for p in posteriors])[:, None, None]
        kappa_lambda = kappas * nw.sample(posteriors, 3).precisions
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inv overflows
            raw = np.linalg.inv(kappa_lambda)  # repro: noqa[NUM001] - the unguarded reference
        assert not np.isfinite(raw[1]).all() and np.isfinite(raw[[0, 2]]).all()
        stack = assert_matches_scipy(posteriors, 3)
        assert np.all(np.isfinite(stack.means))


class TestExpectedParams:
    def test_expected_precision_is_nu_s(self, prior):
        params = nw.expected_params(prior)
        assert np.allclose(params.precision, prior.dof * prior.scale)

    def test_covariance_inverse(self, prior):
        params = nw.expected_params(prior)
        assert np.allclose(
            guarded_inv(params.precision),
            guarded_inv(prior.scale) / prior.dof,
            atol=1e-10,
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
        samples = nw.batch_log_density(nw.sample([post] * 4000, rng), x)[0]
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
