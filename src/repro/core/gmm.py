"""Baseline: concentrations-only Bayesian Gaussian mixture.

The mirror image of the LDA baseline: clusters recipes purely by their
gel (or gel+emulsion) concentration vectors, ignoring texture words.
Together the two baselines bracket the joint model in the ablation bench:
LDA sees only words, the GMM only concentrations; the joint model couples
both through shared θ_d.

Inference is Gibbs with Normal–Wishart conjugate updates (a collapsed-
weight finite mixture).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import normal_wishart as nw
from repro.core.linalg import guarded_inv
from repro.core.priors import DirichletPrior, NormalWishartPrior
from repro.errors import ModelError, NotFittedError
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class GMMConfig:
    """Sampler configuration for the mixture baseline."""

    n_components: int = 10
    alpha: float = 1.0
    kappa: float = 0.1
    n_sweeps: int = 200
    burn_in: int = 100
    thin: int = 5

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ModelError("n_components must be >= 1")
        if not 0 <= self.burn_in < self.n_sweeps:
            raise ModelError("need 0 <= burn_in < n_sweeps")
        if self.thin < 1:
            raise ModelError("thin must be >= 1")


class BayesianGaussianMixture:
    """Finite Bayesian GMM with Gibbs inference."""

    def __init__(self, config: GMMConfig | None = None) -> None:
        self.config = config or GMMConfig()
        self.means_: np.ndarray | None = None
        self.covs_: np.ndarray | None = None
        self.weights_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.log_likelihoods_: list[float] = []

    def fit(
        self,
        data: np.ndarray,
        rng: RngLike = None,
        prior: NormalWishartPrior | None = None,
    ) -> "BayesianGaussianMixture":
        """Cluster the rows of ``data``."""
        from scipy.special import logsumexp

        cfg = self.config
        generator = ensure_rng(rng)
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < cfg.n_components:
            raise ModelError("need a (n, dim) matrix with n >= n_components")
        n, _ = data.shape
        k_range = cfg.n_components
        prior = prior or NormalWishartPrior.vague(data, kappa=cfg.kappa)
        alpha = DirichletPrior(cfg.alpha).vector(k_range)

        labels = generator.integers(0, k_range, size=n).astype(np.int64)
        mean_acc = np.zeros((k_range, data.shape[1]))
        cov_acc = np.zeros((k_range, data.shape[1], data.shape[1]))
        weight_acc = np.zeros(k_range)
        votes = np.zeros((n, k_range), dtype=np.int64)
        n_samples = 0
        self.log_likelihoods_ = []

        for sweep in range(cfg.n_sweeps):
            params = nw.sample(
                [nw.posterior(prior, data[labels == k]) for k in range(k_range)],
                generator,
            )
            counts = np.bincount(labels, minlength=k_range)
            log_weights = np.log(counts + alpha) - np.log(n + alpha.sum())  # repro: noqa[NUM002] - counts/n >= 0 and alpha > 0 (DirichletPrior)
            logits = log_weights + nw.batch_log_density(params, data)
            norms = logsumexp(logits, axis=1, keepdims=True)
            probs = np.exp(logits - norms)
            self.log_likelihoods_.append(float(norms.sum()))
            cumulative = np.cumsum(probs, axis=1)
            draws = generator.random(n) * cumulative[:, -1]
            labels = np.minimum(
                (cumulative < draws[:, None]).sum(axis=1), k_range - 1
            ).astype(np.int64)
            if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
                mean_acc += params.means
                cov_acc += guarded_inv(params.precisions)
                weight_acc += (counts + alpha) / (n + alpha.sum())
                votes[np.arange(n), labels] += 1
                n_samples += 1

        scale = max(n_samples, 1)
        self.means_ = mean_acc / scale
        self.covs_ = cov_acc / scale
        self.weights_ = weight_acc / scale
        self.labels_ = votes.argmax(axis=1)
        return self

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Most likely component for each row of ``data``."""
        if self.means_ is None:
            raise NotFittedError("GMM")
        data = np.atleast_2d(np.asarray(data, dtype=float))
        logits = []
        for k in range(self.config.n_components):
            params = nw.GaussianParams(
                mean=self.means_[k], precision=guarded_inv(self.covs_[k])
            )
            logits.append(np.log(self.weights_[k] + 1e-12) + params.log_density(data))
        return np.column_stack(logits).argmax(axis=1)
