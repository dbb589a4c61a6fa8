"""Mean-field variational inference for the joint texture topic model.

A deterministic alternative to the Gibbs samplers: coordinate-ascent
variational inference (CAVI) with the standard factorisation

    q(Z) q(y) q(θ) q(φ) q(μ, Λ) q(m, L)

combining Blei et al.'s variational LDA for the word channel with
Bishop's (PRML §10.2) variational Gaussian mixture for the concentration
channels, coupled through the shared Dirichlet q(θ_d) exactly as the
paper's Fig 1 couples them. Each full update round cannot decrease the
evidence lower bound; :attr:`elbo_trace_` records it and the fit stops at
relative convergence or ``max_iter``.

Compared with Gibbs: no Monte-Carlo noise, embarrassingly vectorised
(typically ~10× faster to a comparable solution at paper scale), at the
cost of the usual mean-field underdispersion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.linalg import guarded_inv, guarded_slogdet, symmetrize
from repro.core.priors import DirichletPrior, NormalWishartPrior
from repro.core.seeding import kmeans_plus_plus
from repro.errors import ModelError, NotFittedError
from repro.rng import RngLike, ensure_rng

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class VariationalConfig:
    """CAVI configuration."""

    n_topics: int = 10
    alpha: float = 1.0
    gamma: float = 0.1
    kappa: float = 0.1
    max_iter: int = 200
    tol: float = 1e-5

    def __post_init__(self) -> None:
        if self.n_topics < 1:
            raise ModelError("n_topics must be >= 1")
        if self.max_iter < 1 or self.tol <= 0:
            raise ModelError("degenerate optimisation configuration")


class _NWPosterior:
    """Per-topic Normal–Wishart variational factors, vectorised over k."""

    def __init__(self, prior: NormalWishartPrior, n_topics: int) -> None:
        from scipy.special import digamma, gammaln

        self._digamma, self._gammaln = digamma, gammaln
        self.prior = prior
        d = prior.dim
        self.d = d
        self.m = np.tile(prior.mean, (n_topics, 1))
        self.beta = np.full(n_topics, prior.kappa)
        self.nu = np.full(n_topics, prior.dof)
        self.W = np.tile(prior.scale, (n_topics, 1, 1))

    # -- expectations -------------------------------------------------------

    def expected_log_det(self) -> np.ndarray:
        """E[ln |Λ_k|] per topic."""
        k_range, d = self.nu.shape[0], self.d
        out = np.empty(k_range)
        for k in range(k_range):
            _, logdet = guarded_slogdet(self.W[k])
            out[k] = (
                self._digamma(0.5 * (self.nu[k] - np.arange(d))).sum()
                + d * np.log(2.0)
                + logdet
            )
        return out

    def expected_log_gauss(self, data: np.ndarray) -> np.ndarray:
        """E[ln N(x_d | μ_k, Λ_k⁻¹)] as a (D, K) matrix."""
        d = self.d
        log_det = self.expected_log_det()
        out = np.empty((data.shape[0], self.nu.shape[0]))
        for k in range(self.nu.shape[0]):
            diff = data - self.m[k]
            quad = self.nu[k] * np.einsum(
                "ni,ij,nj->n", diff, self.W[k], diff
            )
            out[:, k] = 0.5 * (
                log_det[k] - d * _LOG_2PI - d / self.beta[k] - quad
            )
        return out

    # -- update -------------------------------------------------------------

    def update(self, data: np.ndarray, responsibilities: np.ndarray) -> None:
        """Bishop 10.60–10.63 with soft counts from ``responsibilities``."""
        prior = self.prior
        n_k = responsibilities.sum(axis=0) + 1e-12
        xbar = (responsibilities.T @ data) / n_k[:, None]
        w0_inv = guarded_inv(prior.scale)
        for k in range(self.nu.shape[0]):
            diff = data - xbar[k]
            scatter = (responsibilities[:, k][:, None] * diff).T @ diff
            dmean = xbar[k] - prior.mean
            self.beta[k] = prior.kappa + n_k[k]
            self.nu[k] = prior.dof + n_k[k]
            self.m[k] = (prior.kappa * prior.mean + n_k[k] * xbar[k]) / self.beta[k]
            w_inv = (
                w0_inv
                + scatter
                + (prior.kappa * n_k[k] / self.beta[k]) * np.outer(dmean, dmean)
            )
            self.W[k] = symmetrize(guarded_inv(w_inv))

    # -- ELBO pieces ----------------------------------------------------------

    def _log_wishart_b(self, w: np.ndarray, nu: float) -> float:
        """ln B(W, ν), the Wishart normaliser (Bishop B.79)."""
        d = self.d
        _, logdet = guarded_slogdet(w)
        return float(
            -0.5 * nu * logdet
            - 0.5 * nu * d * np.log(2.0)
            - 0.25 * d * (d - 1) * np.log(np.pi)
            - self._gammaln(0.5 * (nu - np.arange(d))).sum()
        )

    def elbo_terms(self) -> float:
        """E[ln p(μ,Λ)] − E[ln q(μ,Λ)], summed over topics
        (Bishop 10.74 and 10.77, including the constant terms)."""
        prior = self.prior
        d = self.d
        log_det = self.expected_log_det()
        w0_inv = guarded_inv(prior.scale)
        log_b0 = self._log_wishart_b(prior.scale, prior.dof)
        total = 0.0
        for k in range(self.nu.shape[0]):
            dmean = self.m[k] - prior.mean
            e_quad = (
                d * prior.kappa / self.beta[k]
                + prior.kappa * self.nu[k] * float(dmean @ self.W[k] @ dmean)
            )
            e_log_p_mu = 0.5 * (
                d * np.log(prior.kappa / (2.0 * np.pi))  # repro: noqa[NUM002] - kappa > 0 validated by NormalWishartPrior
                + log_det[k]
                - e_quad
            )
            e_log_p_lambda = (
                log_b0
                + 0.5 * (prior.dof - d - 1) * log_det[k]
                - 0.5 * self.nu[k] * float(np.trace(w0_inv @ self.W[k]))
            )
            e_log_q_mu = 0.5 * (
                d * np.log(self.beta[k] / (2.0 * np.pi)) + log_det[k] - d  # repro: noqa[NUM002] - beta = kappa + soft counts > 0
            )
            entropy_lambda = -(
                self._log_wishart_b(self.W[k], self.nu[k])
                + 0.5 * (self.nu[k] - d - 1) * log_det[k]
                - 0.5 * self.nu[k] * d
            )
            e_log_q_lambda = -entropy_lambda
            total += (
                e_log_p_mu + e_log_p_lambda - e_log_q_mu - e_log_q_lambda
            )
        return float(total)


def _dirichlet_elbo(
    posterior: np.ndarray, prior: np.ndarray, e_log: np.ndarray
) -> float:
    """Σ rows of E[ln p(x|prior)] − E[ln q(x|posterior)]."""
    from scipy.special import gammaln

    def log_c(params):
        return gammaln(params.sum(axis=-1)) - gammaln(params).sum(axis=-1)

    prior_rows = np.broadcast_to(prior, posterior.shape)
    e_p = log_c(prior_rows) + ((prior_rows - 1.0) * e_log).sum(axis=-1)
    e_q = log_c(posterior) + ((posterior - 1.0) * e_log).sum(axis=-1)
    return float((e_p - e_q).sum())


class VariationalJointModel:
    """CAVI inference for the joint texture topic model."""

    def __init__(self, config: VariationalConfig | None = None) -> None:
        self.config = config or VariationalConfig()
        self.phi_: np.ndarray | None = None
        self.theta_: np.ndarray | None = None
        self.gel_means_: np.ndarray | None = None
        self.gel_covs_: np.ndarray | None = None
        self.emulsion_means_: np.ndarray | None = None
        self.emulsion_covs_: np.ndarray | None = None
        self.y_: np.ndarray | None = None
        self.elbo_trace_: list[float] = []
        self.n_iter_: int = 0

    # -- fitting ------------------------------------------------------------

    def fit(
        self,
        docs,
        gels: np.ndarray,
        emulsions: np.ndarray,
        vocab_size: int,
        rng: RngLike = None,
    ) -> "VariationalJointModel":
        """Run CAVI to convergence of the ELBO."""
        from scipy.special import digamma

        cfg = self.config
        generator = ensure_rng(rng)
        gels = np.asarray(gels, dtype=float)
        emulsions = np.asarray(emulsions, dtype=float)
        n_docs = len(docs)
        if n_docs == 0:
            raise ModelError("no documents")
        k_range = cfg.n_topics

        # doc-term count matrix
        counts = np.zeros((n_docs, vocab_size))
        for d, words in enumerate(docs):
            for v in np.asarray(words, dtype=int):
                counts[d, v] += 1.0
        alpha = DirichletPrior(cfg.alpha).vector(k_range)
        gamma = np.full(vocab_size, cfg.gamma)

        gel_prior = NormalWishartPrior.vague(gels, kappa=cfg.kappa)
        emulsion_prior = NormalWishartPrior.vague(emulsions, kappa=cfg.kappa)
        gel_q = _NWPosterior(gel_prior, k_range)
        emu_q = _NWPosterior(emulsion_prior, k_range)

        # initialise responsibilities from k-means++
        labels = kmeans_plus_plus(gels, k_range, generator)
        r_y = np.full((n_docs, k_range), 0.5 / max(k_range - 1, 1))
        r_y[np.arange(n_docs), labels] = 0.5
        r_y /= r_y.sum(axis=1, keepdims=True)
        gel_q.update(gels, r_y)
        emu_q.update(emulsions, r_y)
        theta_param = alpha + r_y + counts.sum(axis=1, keepdims=True) / k_range
        phi_param = gamma + generator.random((k_range, vocab_size)) * 0.01

        self.elbo_trace_ = []
        previous = -np.inf
        for iteration in range(cfg.max_iter):
            e_log_theta = digamma(theta_param) - digamma(
                theta_param.sum(axis=1, keepdims=True)
            )
            e_log_phi = digamma(phi_param) - digamma(
                phi_param.sum(axis=1, keepdims=True)
            )

            # -- q(z): per-(doc, word) responsibilities ----------------------
            # logits (D, V, K) factorise as e_log_theta[d] + e_log_phi[:,v]
            log_rz = e_log_theta[:, None, :] + e_log_phi.T[None, :, :]
            log_rz -= log_rz.max(axis=2, keepdims=True)
            r_z = np.exp(log_rz)
            r_z /= r_z.sum(axis=2, keepdims=True)

            # -- q(y) ---------------------------------------------------------
            log_gauss = gel_q.expected_log_gauss(gels) + emu_q.expected_log_gauss(
                emulsions
            )
            log_ry = e_log_theta + log_gauss
            log_ry -= log_ry.max(axis=1, keepdims=True)
            r_y = np.exp(log_ry)
            r_y /= r_y.sum(axis=1, keepdims=True)

            # -- q(θ), q(φ), q(μΛ), q(mL) ------------------------------------
            word_soft = np.einsum("dv,dvk->dk", counts, r_z)
            theta_param = alpha + word_soft + r_y
            phi_param = gamma + np.einsum("dv,dvk->kv", counts, r_z)
            gel_q.update(gels, r_y)
            emu_q.update(emulsions, r_y)

            elbo = self._elbo(
                counts, gels, emulsions, r_z, r_y,
                theta_param, phi_param, e_log_theta, e_log_phi,
                alpha, gamma, gel_q, emu_q,
            )
            self.elbo_trace_.append(elbo)
            self.n_iter_ = iteration + 1
            if np.isfinite(previous) and abs(elbo - previous) <= cfg.tol * abs(
                previous
            ):
                break
            previous = elbo

        # -- point estimates -----------------------------------------------------
        self.theta_ = theta_param / theta_param.sum(axis=1, keepdims=True)
        self.phi_ = phi_param / phi_param.sum(axis=1, keepdims=True)
        self.gel_means_ = gel_q.m.copy()
        self.gel_covs_ = np.stack(
            [
                guarded_inv(gel_q.nu[k] * gel_q.W[k])
                for k in range(k_range)
            ]
        )
        self.emulsion_means_ = emu_q.m.copy()
        self.emulsion_covs_ = np.stack(
            [
                guarded_inv(emu_q.nu[k] * emu_q.W[k])
                for k in range(k_range)
            ]
        )
        self.y_ = r_y.argmax(axis=1)
        return self

    def _elbo(
        self, counts, gels, emulsions, r_z, r_y,
        theta_param, phi_param, e_log_theta, e_log_phi,
        alpha, gamma, gel_q, emu_q,
    ) -> float:
        from scipy.special import digamma

        # NB: e_log_theta / e_log_phi are the expectations the
        # responsibilities were computed FROM (pre-update); recompute the
        # Dirichlet expectations for the updated factors
        e_log_theta_new = digamma(theta_param) - digamma(
            theta_param.sum(axis=1, keepdims=True)
        )
        e_log_phi_new = digamma(phi_param) - digamma(
            phi_param.sum(axis=1, keepdims=True)
        )
        weighted = counts[:, :, None] * r_z
        e_log_pw = float(
            (weighted * e_log_phi_new.T[None, :, :]).sum()
        )
        e_log_pz = float((weighted * e_log_theta_new[:, None, :]).sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            entropy_z = -float(
                np.nansum(weighted * np.where(r_z > 0, np.log(r_z), 0.0))
            )
            entropy_y = -float(
                np.nansum(r_y * np.where(r_y > 0, np.log(r_y), 0.0))
            )
        e_log_py = float((r_y * e_log_theta_new).sum())
        e_log_px = float(
            (r_y * gel_q.expected_log_gauss(gels)).sum()
            + (r_y * emu_q.expected_log_gauss(emulsions)).sum()
        )
        theta_kl = _dirichlet_elbo(theta_param, alpha, e_log_theta_new)
        phi_kl = _dirichlet_elbo(phi_param, gamma, e_log_phi_new)
        return (
            e_log_pw + e_log_pz + e_log_py + e_log_px
            + entropy_z + entropy_y
            + theta_kl + phi_kl
            + gel_q.elbo_terms() + emu_q.elbo_terms()
        )

    # -- fitted accessors -----------------------------------------------------

    @property
    def n_topics(self) -> int:
        return self.config.n_topics

    def _require_fit(self) -> None:
        if self.theta_ is None:
            raise NotFittedError("variational joint model")

    def topic_assignments(self) -> np.ndarray:
        """Hard per-recipe topic (argmax θ_d)."""
        self._require_fit()
        return np.asarray(self.theta_).argmax(axis=1)

    def topic_sizes(self) -> np.ndarray:
        """Recipes per topic."""
        return np.bincount(self.topic_assignments(), minlength=self.n_topics)

    def top_words(self, k: int, n: int = 10) -> list[tuple[int, float]]:
        """The ``n`` highest-probability word ids of topic ``k``."""
        self._require_fit()
        row = np.asarray(self.phi_)[k]
        order = np.argsort(row)[::-1][:n]
        return [(int(v), float(row[v])) for v in order]
