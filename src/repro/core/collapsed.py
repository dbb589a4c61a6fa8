"""Fully-collapsed variant of the joint model (extension, not in paper).

The paper's sampler (equations (2)–(4)) explicitly resamples each topic's
Gaussian parameters once per sweep. Integrating (μ_k, Λ_k) out instead
gives a Rao-Blackwellised sampler whose y-updates use the multivariate
Student-t predictive of the Normal–Wishart — typically better mixing at
the cost of per-document posterior bookkeeping. Provided as an ablation
(bench ``ablation A`` companions) and as a correctness cross-check: both
samplers must agree on the recovered structure.

Sufficient statistics per topic (count, sum, raw scatter) are maintained
incrementally, so a y-update costs O(K·dim³) rather than a full refit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core import normal_wishart as nw
from repro.core.joint_model import JointModelConfig, fit_best_chain
from repro.core.kernels import CSRTokens, make_kernel, sample_from_cumulative
from repro.core.linalg import chol_inv_logdet, guarded_inv, symmetrize
from repro.core.lda import word_log_likelihood
from repro.core.priors import DirichletPrior, NormalWishartPrior
from repro.core.seeding import kmeans_plus_plus
from repro.core.state import TopicCounts, initialise_assignments, validate_docs
from repro.core.telemetry import sweep_telemetry
from repro.errors import ModelError, NotFittedError
from repro.obs import trace
from repro.rng import RngLike, ensure_rng


@dataclass
class _SuffStats:
    """Incremental Gaussian sufficient statistics for one topic."""

    n: int
    total: np.ndarray          # Σ x
    scatter: np.ndarray        # Σ x xᵀ

    @classmethod
    def empty(cls, dim: int) -> "_SuffStats":
        return cls(n=0, total=np.zeros(dim), scatter=np.zeros((dim, dim)))

    def add(self, x: np.ndarray) -> None:
        self.n += 1
        self.total += x
        self.scatter += np.outer(x, x)

    def remove(self, x: np.ndarray) -> None:
        self.n -= 1
        self.total -= x
        self.scatter -= np.outer(x, x)
        if self.n < 0:
            raise ModelError("sufficient statistics went negative")
        # The scatter diagonal is a sum of squares, so a materially
        # negative entry means points were removed that were never added
        # — the same bookkeeping bug as n < 0, just caught through float
        # arithmetic. Allow cancellation noise proportional to the
        # removed point's magnitude.
        tolerance = 1e-9 * (1.0 + float(np.abs(x).max()) ** 2)
        if np.any(np.diagonal(self.scatter) < -tolerance):
            raise ModelError("sufficient statistics went negative")

    def posterior(self, prior: NormalWishartPrior) -> NormalWishartPrior:
        """NW posterior from the incremental statistics."""
        if self.n == 0:
            return prior
        mean = self.total / self.n
        centred_scatter = self.scatter - self.n * np.outer(mean, mean)
        dmean = mean - prior.mean
        kappa_c = prior.kappa + self.n
        scale_inv = (
            guarded_inv(prior.scale)
            + centred_scatter
            + (self.n * prior.kappa / kappa_c) * np.outer(dmean, dmean)
        )
        return NormalWishartPrior(
            mean=(self.n * mean + prior.kappa * prior.mean) / kappa_c,
            kappa=kappa_c,
            dof=prior.dof + self.n,
            scale=symmetrize(guarded_inv(scale_inv)),
        )


class _BatchedStudentT:
    """Cached Student-t predictives for all K topics, evaluated batched.

    The collapsed y-sweep needs every topic's predictive for every
    document, but a document move only changes *two* topics' sufficient
    statistics — so each topic's posterior factorisation is rebuilt
    lazily on invalidation. The per-topic caches are stored as stacked
    arrays (means ``(K, d)``, scale inverses ``(K, d, d)``…), which lets
    one einsum evaluate any subset of the K quadratic forms per document
    instead of a Python loop over topics.

    Rebuilds factor the posterior scale-inverse with a Cholesky
    decomposition (one factorisation yields both the log-determinant and
    the inverse), falling back to generic ``inv``/``slogdet`` if the
    matrix has drifted off the PD cone numerically.
    """

    def __init__(self, prior: NormalWishartPrior, n_topics: int) -> None:
        from scipy.special import gammaln

        self._gammaln = gammaln
        self.prior = prior
        self._prior_scale_inv = guarded_inv(prior.scale)
        d = prior.dim
        self._means = np.zeros((n_topics, d))
        self._inv_scale_t = np.zeros((n_topics, d, d))
        self._dof_t = np.ones(n_topics)
        self._norm = np.zeros(n_topics)
        self._fresh = np.zeros(n_topics, dtype=bool)
        # Monotonic per-topic build ids: every rebuild stamps a number
        # never used before, so a cached density row can validate each
        # entry by id equality alone. Ids are only ever *restored* to an
        # older value together with the exact factorisation bits they
        # stamped (see snapshot/restore), never reused for new bits.
        self._build = np.zeros(n_topics, dtype=np.int64)
        self._next_build = 1

    @property
    def build_versions(self) -> np.ndarray:
        """Per-topic factorisation version stamps (see ``__init__``)."""
        return self._build

    def invalidate(self, k: int) -> None:
        self._fresh[k] = False

    def snapshot(self, k: int):
        """Bitwise copy of topic ``k``'s factorisation state.

        Paired with :meth:`restore` around a speculative update: float
        remove-then-add does not round-trip (``(t - x) + x ≠ t``), so a
        self-move must put back the exact original bits — including the
        build id, which re-validates cache entries stamped against it.
        """
        return (
            self._means[k].copy(),
            self._inv_scale_t[k].copy(),
            float(self._dof_t[k]),
            float(self._norm[k]),
            bool(self._fresh[k]),
            int(self._build[k]),
        )

    def restore(self, k: int, snap) -> None:
        (
            self._means[k],
            self._inv_scale_t[k],
            self._dof_t[k],
            self._norm[k],
            self._fresh[k],
            self._build[k],
        ) = snap

    def _rebuild(self, k: int, stats: "_SuffStats") -> None:
        # Posterior parameters computed inline (equation (4)) — the
        # validated NormalWishartPrior constructor is far too slow for a
        # per-document hot path.
        prior = self.prior
        n = stats.n
        if n == 0:
            mean_c = prior.mean
            kappa_c, dof_c = prior.kappa, prior.dof
            scale_inv = self._prior_scale_inv
        else:
            mean = stats.total / n
            centred = stats.scatter - n * np.outer(mean, mean)
            dmean = mean - prior.mean
            kappa_c = prior.kappa + n
            dof_c = prior.dof + n
            mean_c = (stats.total + prior.kappa * prior.mean) / kappa_c
            scale_inv = (
                self._prior_scale_inv
                + centred
                + (n * prior.kappa / kappa_c) * np.outer(dmean, dmean)
            )
        d = mean_c.size
        dof_t = dof_c - d + 1.0
        factor = (kappa_c + 1.0) / (kappa_c * dof_t)
        # scale_t = scale_inv · factor  ⇒  inv(scale_t) = inv(scale_inv)/factor
        inv_scale_inv, logdet_scale_inv = chol_inv_logdet(scale_inv)
        self._inv_scale_t[k] = inv_scale_inv / factor
        logdet_t = (
            logdet_scale_inv
            + d * np.log(factor)  # repro: noqa[NUM002] - factor > 0: kappa_c, dof_t positive by prior validation
        )
        self._means[k] = mean_c
        self._dof_t[k] = float(dof_t)
        gammaln = self._gammaln
        self._norm[k] = float(
            gammaln((dof_t + d) / 2.0)
            - gammaln(dof_t / 2.0)
            - 0.5 * (d * np.log(dof_t * np.pi) + logdet_t)  # repro: noqa[NUM002] - dof_t > 0 by prior validation
        )
        self._fresh[k] = True
        self._build[k] = self._next_build
        self._next_build += 1

    def refresh(self, stats: Sequence["_SuffStats"]) -> None:
        """Rebuild every stale topic from its sufficient statistics."""
        for k in np.flatnonzero(~self._fresh):
            self._rebuild(int(k), stats[k])

    def logpdf_some(
        self, stats: Sequence["_SuffStats"], x: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        """Predictive log-densities of ``x`` for the topic subset ``idx``.

        The einsum contraction and the follow-up elementwise arithmetic
        are per-row computations, so an entry's bits do not depend on
        which other topics ``idx`` holds. That is what lets the sampler's
        density cache recompute only stale topics.
        """
        self.refresh(stats)
        means = self._means[idx]
        diff = x - means
        quad = np.einsum("ki,kij,kj->k", diff, self._inv_scale_t[idx], diff)
        d = self._means.shape[1]
        dof = self._dof_t[idx]
        return self._norm[idx] - 0.5 * (dof + d) * np.log1p(quad / dof)


class CollapsedJointModel:
    """Rao-Blackwellised joint model: Gaussians integrated out."""

    def __init__(self, config: JointModelConfig | None = None) -> None:
        self.config = config or JointModelConfig()
        self.phi_: np.ndarray | None = None
        self.theta_: np.ndarray | None = None
        self.gel_means_: np.ndarray | None = None
        self.gel_covs_: np.ndarray | None = None
        self.emulsion_means_: np.ndarray | None = None
        self.emulsion_covs_: np.ndarray | None = None
        self.y_: np.ndarray | None = None
        #: Per-sweep collapsed pseudo-likelihood: word log-likelihood
        #: plus the leave-one-out Student-t log-density of each document
        #: under its sampled topic. Comparable across chains of the same
        #: data, which is all best-of-restarts selection needs.
        self.log_likelihoods_: list[float] = []
        #: Wall-clock of the last fit and of each restart chain, plus the
        #: per-restart records, as on the semi-collapsed model.
        self.fit_seconds_: float | None = None
        self.restart_seconds_: list[float] = []
        self.restart_telemetry_: list[dict] = []

    def fit(
        self,
        docs,
        gels: np.ndarray,
        emulsions: np.ndarray,
        vocab_size: int,
        rng: RngLike = None,
    ) -> "CollapsedJointModel":
        """Run the collapsed Gibbs sampler (best of ``n_restarts`` chains)."""
        with trace.span(
            "collapsed-model.fit",
            model="collapsed",
            n_topics=self.config.n_topics,
            n_sweeps=self.config.n_sweeps,
            n_restarts=self.config.n_restarts,
            kernel=self.config.kernel,
        ) as fit_span:
            if self.config.n_restarts > 1:
                fit_best_chain(self, docs, gels, emulsions, vocab_size, rng)
            else:
                self._fit_single(docs, gels, emulsions, vocab_size, rng)
        self.fit_seconds_ = fit_span.duration_s
        if not self.restart_seconds_:
            self.restart_seconds_ = [self.fit_seconds_]
        return self

    def _fit_single(
        self,
        docs,
        gels: np.ndarray,
        emulsions: np.ndarray,
        vocab_size: int,
        rng: RngLike = None,
    ) -> "CollapsedJointModel":
        from scipy.special import logsumexp

        cfg = self.config
        generator = ensure_rng(rng)
        gels = np.asarray(gels, dtype=float)
        emulsions = np.asarray(emulsions, dtype=float)
        n_docs = len(docs)
        if n_docs == 0:
            raise ModelError("no documents")
        validate_docs(docs, vocab_size)
        gel_prior = NormalWishartPrior.vague(gels, kappa=cfg.kappa)
        emulsion_prior = NormalWishartPrior.vague(emulsions, kappa=cfg.kappa)

        alpha = DirichletPrior(cfg.alpha).vector(cfg.n_topics)
        gamma, v_total = cfg.gamma, cfg.gamma * vocab_size
        k_range = cfg.n_topics

        counts = TopicCounts(n_docs, k_range, vocab_size)
        z = initialise_assignments(docs, counts, generator)
        # Flatten the ragged corpus once; the kernel owns the z-sweep.
        kernel = make_kernel(
            cfg.kernel,
            CSRTokens.from_docs(docs, z),
            counts,
            alpha,
            gamma,
        )
        y = kmeans_plus_plus(gels, k_range, generator).astype(np.int64)

        gel_stats = [_SuffStats.empty(gels.shape[1]) for _ in range(k_range)]
        emu_stats = [_SuffStats.empty(emulsions.shape[1]) for _ in range(k_range)]
        for d in range(n_docs):
            gel_stats[y[d]].add(gels[d])
            emu_stats[y[d]].add(emulsions[d])
        gel_pred = _BatchedStudentT(gel_prior, k_range)
        emu_pred = _BatchedStudentT(emulsion_prior, k_range)

        phi_acc = np.zeros((k_range, vocab_size))
        theta_acc = np.zeros((n_docs, k_range))
        y_votes = np.zeros((n_docs, k_range), dtype=np.int64)
        n_samples = 0
        self.log_likelihoods_ = []
        trace_enabled = trace.is_enabled()
        # (n_docs, K) density cache: dens_*[d, k] holds topic k's
        # predictive log-density of document d, valid while ver_*[d, k]
        # equals the topic's factorisation build id. Only topics whose
        # statistics changed since document d last looked are
        # recomputed — O(moves) instead of O(K) per document. The four
        # arrays take n_docs × K × 32 bytes (1.5 MB at paper scale).
        dens_gel = np.zeros((n_docs, k_range))
        ver_gel = np.zeros((n_docs, k_range), dtype=np.int64)
        dens_emu = np.zeros((n_docs, k_range))
        ver_emu = np.zeros((n_docs, k_range), dtype=np.int64)

        for sweep in range(cfg.n_sweeps):
            # -- z updates (identical to the semi-collapsed sampler) --------
            if trace_enabled:
                sweep_started = time.perf_counter()
                kernel.sweep(generator, y)
                sweep_seconds = time.perf_counter() - sweep_started
            else:
                kernel.sweep(generator, y)

            # -- collapsed y updates: batched cached Student-t predictives --
            gauss_ll = 0.0
            for d in range(n_docs):
                k_old = int(y[d])
                # Snapshot topic k_old before the speculative removal:
                # if the draw lands back on k_old (most draws do, once
                # mixed), the exact pre-removal bits are restored —
                # float remove-then-add does not round-trip, and the
                # density cache needs the build id put back with them.
                old_gel = gel_stats[k_old]
                old_emu = emu_stats[k_old]
                stats_snap = (
                    old_gel.n, old_gel.total.copy(), old_gel.scatter.copy(),
                    old_emu.n, old_emu.total.copy(), old_emu.scatter.copy(),
                )
                pred_snap = (
                    gel_pred.snapshot(k_old), emu_pred.snapshot(k_old)
                )
                old_gel.remove(gels[d])
                old_emu.remove(emulsions[d])
                gel_pred.invalidate(k_old)
                emu_pred.invalidate(k_old)
                gel_pred.refresh(gel_stats)
                stale = np.flatnonzero(ver_gel[d] != gel_pred.build_versions)
                if stale.size:
                    dens_gel[d, stale] = gel_pred.logpdf_some(
                        gel_stats, gels[d], stale
                    )
                    ver_gel[d, stale] = gel_pred.build_versions[stale]
                emu_pred.refresh(emu_stats)
                stale = np.flatnonzero(ver_emu[d] != emu_pred.build_versions)
                if stale.size:
                    dens_emu[d, stale] = emu_pred.logpdf_some(
                        emu_stats, emulsions[d], stale
                    )
                    ver_emu[d, stale] = emu_pred.build_versions[stale]
                gauss = dens_gel[d] + dens_emu[d]
                logits = np.log(counts.n_dk[d] + alpha) + gauss  # repro: noqa[NUM002] - counts >= 0 and alpha > 0 (DirichletPrior)
                logits -= logsumexp(logits)
                cumulative = np.cumsum(np.exp(logits))
                k_new = sample_from_cumulative(cumulative, generator.random())
                y[d] = k_new
                gauss_ll += float(gauss[k_new])
                if k_new == k_old:
                    # self-move: restore the exact pre-removal state
                    (
                        old_gel.n, old_gel.total, old_gel.scatter,
                        old_emu.n, old_emu.total, old_emu.scatter,
                    ) = stats_snap
                    gel_pred.restore(k_old, pred_snap[0])
                    emu_pred.restore(k_old, pred_snap[1])
                else:
                    # k_old's factorisation was just rebuilt from the
                    # post-removal statistics, which are now its true
                    # statistics — no invalidation needed for it.
                    gel_stats[k_new].add(gels[d])
                    emu_stats[k_new].add(emulsions[d])
                    gel_pred.invalidate(k_new)
                    emu_pred.invalidate(k_new)

            self.log_likelihoods_.append(
                word_log_likelihood(kernel.csr, counts, alpha, gamma) + gauss_ll
            )
            if trace_enabled:
                sweep_telemetry(
                    "collapsed",
                    sweep,
                    cfg.n_sweeps,
                    self.log_likelihoods_[-1],
                    kernel.csr.n_tokens,
                    sweep_seconds,
                    kernel=kernel.name,
                )

            if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
                phi_acc += (counts.n_kv + gamma) / (counts.n_k[:, None] + v_total)
                m_dk = np.zeros((n_docs, k_range))
                m_dk[np.arange(n_docs), y] = 1.0
                theta_acc += (counts.n_dk + m_dk + alpha) / (
                    counts.n_d[:, None] + 1.0 + alpha.sum()
                )
                y_votes[np.arange(n_docs), y] += 1
                n_samples += 1

        scale = max(n_samples, 1)
        self.phi_ = phi_acc / scale
        self.theta_ = theta_acc / scale
        self.y_ = y_votes.argmax(axis=1)
        # report posterior-expected Gaussians for linkage compatibility
        gel_posts = [s.posterior(gel_prior) for s in gel_stats]
        emu_posts = [s.posterior(emulsion_prior) for s in emu_stats]
        self.gel_means_ = np.vstack([p.mean for p in gel_posts])
        self.gel_covs_ = np.stack(
            [guarded_inv(nw.expected_params(p).precision) for p in gel_posts]
        )
        self.emulsion_means_ = np.vstack([p.mean for p in emu_posts])
        self.emulsion_covs_ = np.stack(
            [guarded_inv(nw.expected_params(p).precision) for p in emu_posts]
        )
        return self

    # -- accessors mirroring the semi-collapsed model -------------------------

    @property
    def n_topics(self) -> int:
        return self.config.n_topics

    def topic_assignments(self) -> np.ndarray:
        """Hard per-recipe topic (argmax θ_d)."""
        if self.theta_ is None:
            raise NotFittedError("collapsed joint model")
        return np.asarray(self.theta_).argmax(axis=1)

    def topic_sizes(self) -> np.ndarray:
        """Recipes per topic."""
        return np.bincount(self.topic_assignments(), minlength=self.n_topics)

    def top_words(self, k: int, n: int = 10) -> list[tuple[int, float]]:
        """The ``n`` highest-probability word ids of topic ``k``."""
        if self.phi_ is None:
            raise NotFittedError("collapsed joint model")
        row = np.asarray(self.phi_)[k]
        order = np.argsort(row)[::-1][:n]
        return [(int(v), float(row[v])) for v in order]
