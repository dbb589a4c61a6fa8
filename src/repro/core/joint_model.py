"""The joint texture topic model (paper Sections III-B/III-C).

Each topic k owns three coupled distributions:

* φ_k — a categorical over texture terms (Dirichlet prior γ);
* (μ_k, Λ_k) — a Gaussian over *gel* concentration vectors in −log
  space (Normal–Wishart prior);
* (m_k, L_k) — a Gaussian over *emulsion* concentration vectors
  (Normal–Wishart prior).

Per recipe d, topic proportions θ_d ~ Dir(α) generate both the per-word
topics z_dn and the single document-level concentration topic y_d, which
emits the recipe's gel vector g_d and emulsion vector e_d. Sharing θ_d is
the paper's core coupling: texture-word patterns and concentration bands
must co-occur to form a topic.

Inference is the semi-collapsed Gibbs sampler of equations (2)–(4):
θ and φ are collapsed out; the Gaussians are explicitly resampled from
their Normal–Wishart posteriors once per sweep.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core import normal_wishart as nw
from repro.core.kernels import KERNEL_CHOICES, CSRTokens, make_kernel
from repro.core.lda import word_log_likelihood
from repro.core.linalg import guarded_inv
from repro.core.priors import DirichletPrior, NormalWishartPrior
from repro.core.seeding import kmeans_plus_plus
from repro.core.state import TopicCounts, initialise_assignments, validate_docs
from repro.core.telemetry import restart_telemetry, sweep_telemetry
from repro.errors import ModelError, NotFittedError
from repro.obs import trace
from repro.obs.log import get_logger
from repro.parallel import run_tasks
from repro.rng import RngLike, ensure_rng

logger = get_logger("repro.core.joint_model")

#: Progress is logged every this many sweeps (at INFO level).
_LOG_EVERY = 50


@dataclass(frozen=True)
class JointModelConfig:
    """Configuration of the joint model and its Gibbs sampler.

    Each sampler has one path: both concentration channels enter the
    y_d likelihood (Fig 1), y starts from k-means++ on the gel vectors
    (:mod:`repro.core.seeding`), and the per-topic terms of the y-draw
    are memoised between sweeps.
    """

    n_topics: int = 10
    alpha: float = 1.0            # Dir(θ) hyperparameter
    gamma: float = 0.1            # Dir(φ) hyperparameter
    kappa: float = 0.1            # NW β: pseudo-count on Gaussian means
    n_sweeps: int = 400
    burn_in: int = 200
    thin: int = 5
    #: Independent chains to run; the one with the best final joint
    #: log-likelihood wins. Gibbs chains on multimodal posteriors can
    #: settle in different label partitions; restarts are the standard
    #: cheap insurance.
    n_restarts: int = 1
    #: Processes sharing the restart chains (1: a loop in the caller;
    #: see :mod:`repro.parallel`). Chains draw from pre-spawned RNG
    #: streams, so the fitted model is bit-identical for any count, and
    #: the field stays out of every fingerprint.
    n_workers: int = field(default=1, metadata={"fingerprint": False})
    #: Token-sampling kernel for the z-sweep: "dense" (default,
    #: bit-identical to the historical per-token loop), "alias"
    #: (LightLDA Metropolis–Hastings, O(1) per token; statistically
    #: equivalent to dense, not bit-identical) or "auto" (pick from K).
    #: See :mod:`repro.core.kernels`.
    kernel: str = "dense"

    def __post_init__(self) -> None:
        if self.n_topics < 1:
            raise ModelError("n_topics must be >= 1")
        if not 0 <= self.burn_in < self.n_sweeps:
            raise ModelError("need 0 <= burn_in < n_sweeps")
        if self.thin < 1:
            raise ModelError("thin must be >= 1")
        if self.n_restarts < 1:
            raise ModelError("n_restarts must be >= 1")
        if self.n_workers < 1:
            raise ModelError("n_workers must be >= 1")
        if self.kernel not in KERNEL_CHOICES:
            raise ModelError(f"unknown sampling kernel {self.kernel!r}")


#: The fitted state a best-of-N fit adopts from its winning chain.
_CHAIN_STATE = (
    "phi_", "theta_", "gel_means_", "gel_covs_",
    "emulsion_means_", "emulsion_covs_", "y_", "log_likelihoods_",
)


def _chain_task(payload, rng) -> tuple[Any, dict]:
    """Fit one chain (module-level so the process pool can pickle it).

    Returns the fitted chain plus its telemetry record (seed, fit
    seconds, final log-likelihood) — a plain dict, so pool workers ship
    it back to the parent instead of dropping it.
    """
    model_cls, config, docs, gels, emulsions, vocab_size = payload
    with trace.span("joint-model.restart", kernel=config.kernel) as restart_span:
        chain = model_cls(config)
        chain._fit_single(docs, gels, emulsions, vocab_size, rng)
    return chain, restart_telemetry(
        rng,
        restart_span.duration_s,
        chain.log_likelihoods_[-1],
    )


def run_chains(
    model_cls: type,
    config: JointModelConfig,
    docs: Sequence[np.ndarray],
    gels: np.ndarray,
    emulsions: np.ndarray,
    vocab_size: int,
    n_chains: int,
    rng: RngLike = None,
) -> list[tuple[Any, dict]]:
    """Fit ``n_chains`` independent Gibbs chains of ``model_cls``.

    Returns ``(chain, telemetry)`` pairs in chain order. This is both
    the restart engine of :func:`fit_best_chain` and the cross-check
    primitive: fitting several chains and comparing their recovered
    partitions (e.g. pairwise NMI) is how the samplers are validated
    against each other. ``config.n_workers`` processes share the
    chains; each draws from a pre-spawned RNG stream, so the result is
    identical for any worker count.
    """
    if n_chains < 1:
        raise ModelError("n_chains must be >= 1")
    single = dataclasses.replace(config, n_restarts=1)
    payload = (model_cls, single, list(docs), gels, emulsions, vocab_size)
    return run_tasks(
        _chain_task, [payload] * n_chains, rng=rng, workers=config.n_workers
    )


def fit_best_chain(
    model: Any,
    docs: Sequence[np.ndarray],
    gels: np.ndarray,
    emulsions: np.ndarray,
    vocab_size: int,
    rng: RngLike,
) -> None:
    """Fit ``model.config.n_restarts`` chains; ``model`` adopts the best.

    The winner is the first chain with the highest final
    log-likelihood. Every chain's telemetry record and wall-clock stay
    on ``model`` (``restart_telemetry_``, ``restart_seconds_``) in chain
    order.
    """
    outcomes = run_chains(
        type(model), model.config, docs, gels, emulsions, vocab_size,
        model.config.n_restarts, rng,
    )
    best, _ = max(outcomes, key=lambda outcome: outcome[0].log_likelihoods_[-1])
    for attr in _CHAIN_STATE:
        setattr(model, attr, getattr(best, attr))
    model.restart_telemetry_ = [telemetry for _, telemetry in outcomes]
    model.restart_seconds_ = [
        telemetry["fit_seconds"] for telemetry in model.restart_telemetry_
    ]


class JointTextureTopicModel:
    """The paper's joint topic model with Gibbs inference.

    After :meth:`fit`, the estimates of equation (5) are available:

    * ``phi_`` — (K, V) texture-term distributions per topic;
    * ``theta_`` — (D, K) per-recipe topic distributions;
    * ``gel_means_`` / ``gel_covs_`` — posterior-averaged gel Gaussians
      per topic, in −log concentration space;
    * ``emulsion_means_`` / ``emulsion_covs_`` — ditto for emulsions;
    * ``y_`` — hard document concentration-topic assignments;
    * ``log_likelihoods_`` — per-sweep joint log-likelihood trace.
    """

    def __init__(self, config: JointModelConfig | None = None) -> None:
        self.config = config or JointModelConfig()
        self.phi_: np.ndarray | None = None
        self.theta_: np.ndarray | None = None
        self.gel_means_: np.ndarray | None = None
        self.gel_covs_: np.ndarray | None = None
        self.emulsion_means_: np.ndarray | None = None
        self.emulsion_covs_: np.ndarray | None = None
        self.y_: np.ndarray | None = None
        self.log_likelihoods_: list[float] = []
        #: Wall-clock seconds of the last :meth:`fit` call and of each
        #: restart chain within it (benchmarks export these). Both are
        #: read from the same spans the tracer exports.
        self.fit_seconds_: float | None = None
        self.restart_seconds_: list[float] = []
        #: Per-restart records (``seed``, ``fit_seconds``,
        #: ``final_log_likelihood``), propagated from pool workers too,
        #: in chain order.
        self.restart_telemetry_: list[dict] = []

    # -- fitting ---------------------------------------------------------------

    def fit(
        self,
        docs: Sequence[np.ndarray],
        gels: np.ndarray,
        emulsions: np.ndarray,
        vocab_size: int,
        rng: RngLike = None,
    ) -> "JointTextureTopicModel":
        """Run the Gibbs sampler (best of ``n_restarts`` chains).

        ``docs`` are integer word-id arrays (texture-term sequences);
        ``gels`` is (D, 3) and ``emulsions`` (D, 6), both in −log
        concentration space. Both Gaussians take the empirical-Bayes
        vague prior of :meth:`NormalWishartPrior.vague`.
        """
        with trace.span(
            "joint-model.fit",
            model="gibbs",
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
        docs: Sequence[np.ndarray],
        gels: np.ndarray,
        emulsions: np.ndarray,
        vocab_size: int,
        rng: RngLike = None,
    ) -> "JointTextureTopicModel":
        from scipy.special import logsumexp

        cfg = self.config
        generator = ensure_rng(rng)
        gels = np.asarray(gels, dtype=float)
        emulsions = np.asarray(emulsions, dtype=float)
        n_docs = len(docs)
        if n_docs == 0:
            raise ModelError("no documents")
        if gels.shape[0] != n_docs or emulsions.shape[0] != n_docs:
            raise ModelError("gels/emulsions must have one row per document")
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
        # Seed y with k-means++ on the gel vectors (see repro.core.seeding
        # for why a uniform start mixes badly).
        y = kmeans_plus_plus(gels, k_range, generator).astype(np.int64)

        # accumulators for the post-burn-in averages of equation (5)
        phi_acc = np.zeros((k_range, vocab_size))
        theta_acc = np.zeros((n_docs, k_range))
        gel_mean_acc = np.zeros((k_range, gels.shape[1]))
        gel_cov_acc = np.zeros((k_range, gels.shape[1], gels.shape[1]))
        emu_mean_acc = np.zeros((k_range, emulsions.shape[1]))
        emu_cov_acc = np.zeros((k_range, emulsions.shape[1], emulsions.shape[1]))
        y_votes = np.zeros((n_docs, k_range), dtype=np.int64)
        n_samples = 0
        self.log_likelihoods_ = []
        trace_enabled = trace.is_enabled()
        # Per-topic NW posterior cache, keyed on topic membership: a
        # posterior depends only on {d : y_d = k}, so after a y-sweep
        # only topics that gained or lost documents need recomputing.
        # Pure memoisation: the posteriors and the RNG stream are those
        # of recomputing every topic every sweep.
        gel_post: list[NormalWishartPrior | None] = [None] * k_range
        emu_post: list[NormalWishartPrior | None] = [None] * k_range
        prev_y: np.ndarray | None = None

        for sweep in range(cfg.n_sweeps):
            # -- equation (4): resample topic Gaussians given y ------------
            if prev_y is None:
                stale = np.arange(k_range)
            else:
                moved = prev_y != y
                stale = np.unique(np.concatenate((prev_y[moved], y[moved])))
            for k in stale:
                members = y == k
                gel_post[k] = nw.posterior(gel_prior, gels[members])
                emu_post[k] = nw.posterior(emulsion_prior, emulsions[members])
            prev_y = y.copy()
            gel_params = nw.sample(gel_post, generator)
            emu_params = nw.sample(emu_post, generator)
            # per-doc Gaussian log-likelihood matrix, fixed for the sweep:
            # all K topics evaluated in one batched einsum. Fig 1 emits
            # both g_d and e_d from y_d, so both channels enter (equation
            # (3) prints only the gel factor).
            log_gel = nw.batch_log_density(gel_params, gels)
            log_gel = log_gel + nw.batch_log_density(emu_params, emulsions)

            # -- equation (2): per-token z updates ---------------------------
            if trace_enabled:
                sweep_started = time.perf_counter()
                kernel.sweep(generator, y)
                sweep_seconds = time.perf_counter() - sweep_started
            else:
                kernel.sweep(generator, y)

            # -- equation (3): y updates (independent across docs given the
            # collapsed θ, so drawn as one vectorised categorical batch) ----
            logits = np.log(counts.n_dk + alpha) + log_gel  # repro: noqa[NUM002] - counts >= 0 and alpha > 0 (DirichletPrior)
            logits -= logsumexp(logits, axis=1, keepdims=True)
            cumulative = np.cumsum(np.exp(logits), axis=1)
            draws = generator.random(n_docs) * cumulative[:, -1]
            y = np.minimum(
                (cumulative < draws[:, None]).sum(axis=1), k_range - 1
            ).astype(np.int64)

            self.log_likelihoods_.append(
                word_log_likelihood(kernel.csr, counts, alpha, gamma)
                + float(log_gel[np.arange(n_docs), y].sum())
            )
            if trace_enabled:
                sweep_telemetry(
                    "gibbs",
                    sweep,
                    cfg.n_sweeps,
                    self.log_likelihoods_[-1],
                    kernel.csr.n_tokens,
                    sweep_seconds,
                    kernel=kernel.name,
                )
            if (sweep + 1) % _LOG_EVERY == 0 or sweep + 1 == cfg.n_sweeps:
                logger.info(
                    "sweep %d/%d log-likelihood %.1f",
                    sweep + 1,
                    cfg.n_sweeps,
                    self.log_likelihoods_[-1],
                )

            # -- equation (5): accumulate estimates --------------------------
            if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
                phi_acc += (counts.n_kv + gamma) / (counts.n_k[:, None] + v_total)
                m_dk = np.zeros((n_docs, k_range))
                m_dk[np.arange(n_docs), y] = 1.0
                theta_acc += (counts.n_dk + m_dk + alpha) / (
                    counts.n_d[:, None] + 1.0 + alpha.sum()
                )
                gel_mean_acc += gel_params.means
                gel_cov_acc += guarded_inv(gel_params.precisions)
                emu_mean_acc += emu_params.means
                emu_cov_acc += guarded_inv(emu_params.precisions)
                y_votes[np.arange(n_docs), y] += 1
                n_samples += 1

        scale = max(n_samples, 1)
        self.phi_ = phi_acc / scale
        self.theta_ = theta_acc / scale
        self.gel_means_ = gel_mean_acc / scale
        self.gel_covs_ = gel_cov_acc / scale
        self.emulsion_means_ = emu_mean_acc / scale
        self.emulsion_covs_ = emu_cov_acc / scale
        self.y_ = y_votes.argmax(axis=1)
        return self

    # -- fitted accessors ----------------------------------------------------

    @property
    def n_topics(self) -> int:
        return self.config.n_topics

    def _require_fit(self) -> None:
        if self.theta_ is None:
            raise NotFittedError("joint topic model")

    def topic_assignments(self) -> np.ndarray:
        """Hard per-recipe topic: argmax of θ_d (paper Section V-A)."""
        self._require_fit()
        return np.asarray(self.theta_).argmax(axis=1)

    def topic_sizes(self) -> np.ndarray:
        """Recipes per topic under :meth:`topic_assignments` (the
        "# Recipes" column of Table II(a))."""
        assignment = self.topic_assignments()
        return np.bincount(assignment, minlength=self.n_topics)

    def top_words(self, k: int, n: int = 10) -> list[tuple[int, float]]:
        """The ``n`` highest-probability word ids of topic ``k``."""
        self._require_fit()
        row = np.asarray(self.phi_)[k]
        order = np.argsort(row)[::-1][:n]
        return [(int(v), float(row[v])) for v in order]

    def gel_concentration_means(self) -> np.ndarray:
        """Topic gel means mapped back from −log space to ratios.

        This is the "gels:concentration" column of Table II(a):
        exp(−μ_k) per gel component.
        """
        self._require_fit()
        return np.exp(-np.asarray(self.gel_means_))
