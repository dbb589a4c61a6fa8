"""Baseline: words-only latent Dirichlet allocation (collapsed Gibbs).

This is what the paper calls "conventional LDA": topics are patterns of
texture terms alone, with no concentration channel. It serves as the
ablation baseline quantifying what the joint model's coupled gel channel
buys (bench ``ablation A``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.kernels import KERNEL_CHOICES, CSRTokens, make_kernel
from repro.core.priors import DirichletPrior
from repro.core.state import TopicCounts, initialise_assignments, validate_docs
from repro.core.telemetry import sweep_telemetry
from repro.errors import ModelError, NotFittedError
from repro.obs import trace
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class LDAConfig:
    """Sampler configuration for the LDA baseline."""

    n_topics: int = 10
    alpha: float = 1.0
    gamma: float = 0.1
    n_sweeps: int = 400
    burn_in: int = 200
    thin: int = 5
    #: Token-sampling kernel: "dense" (default, bit-identical fast
    #: path), "alias" (LightLDA MH, O(1) per token; statistically
    #: equivalent, not bit-identical) or "auto" (picked from K).
    kernel: str = "dense"

    def __post_init__(self) -> None:
        if self.n_topics < 1:
            raise ModelError("n_topics must be >= 1")
        if not 0 <= self.burn_in < self.n_sweeps:
            raise ModelError("need 0 <= burn_in < n_sweeps")
        if self.thin < 1:
            raise ModelError("thin must be >= 1")
        if self.kernel not in KERNEL_CHOICES:
            raise ModelError(f"unknown sampling kernel {self.kernel!r}")


class LatentDirichletAllocation:
    """Collapsed-Gibbs LDA over texture-term documents."""

    def __init__(self, config: LDAConfig | None = None) -> None:
        self.config = config or LDAConfig()
        self.phi_: np.ndarray | None = None
        self.theta_: np.ndarray | None = None
        self.log_likelihoods_: list[float] = []
        #: Wall-clock seconds of the last :meth:`fit`, read from the
        #: same span the tracer exports.
        self.fit_seconds_: float | None = None

    def fit(
        self,
        docs: Sequence[np.ndarray],
        vocab_size: int,
        rng: RngLike = None,
    ) -> "LatentDirichletAllocation":
        """Run the Gibbs sampler over integer word-id documents."""
        cfg = self.config
        generator = ensure_rng(rng)
        validate_docs(docs, vocab_size)
        n_docs = len(docs)
        if n_docs == 0:
            raise ModelError("no documents")
        counts = TopicCounts(n_docs, cfg.n_topics, vocab_size)
        z = initialise_assignments(docs, counts, generator)

        alpha = DirichletPrior(cfg.alpha).vector(cfg.n_topics)
        gamma, v_total = cfg.gamma, cfg.gamma * vocab_size

        # Flatten the ragged corpus once; the kernel owns the z-sweep.
        kernel = make_kernel(
            cfg.kernel,
            CSRTokens.from_docs(docs, z),
            counts,
            alpha,
            gamma,
        )

        phi_acc = np.zeros((cfg.n_topics, vocab_size))
        theta_acc = np.zeros((n_docs, cfg.n_topics))
        n_samples = 0
        self.log_likelihoods_ = []
        trace_enabled = trace.is_enabled()

        with trace.span(
            "lda.fit",
            model="lda",
            n_topics=cfg.n_topics,
            n_sweeps=cfg.n_sweeps,
            kernel=cfg.kernel,
        ) as fit_span:
            for sweep in range(cfg.n_sweeps):
                if trace_enabled:
                    sweep_started = time.perf_counter()
                    kernel.sweep(generator)
                    sweep_seconds = time.perf_counter() - sweep_started
                else:
                    kernel.sweep(generator)
                self.log_likelihoods_.append(
                    word_log_likelihood(kernel.csr, counts, alpha, gamma)
                )
                if trace_enabled:
                    sweep_telemetry(
                        "lda",
                        sweep,
                        cfg.n_sweeps,
                        self.log_likelihoods_[-1],
                        kernel.csr.n_tokens,
                        sweep_seconds,
                        kernel=kernel.name,
                    )
                if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
                    phi_acc += (counts.n_kv + gamma) / (
                        counts.n_k[:, None] + v_total
                    )
                    theta_acc += (counts.n_dk + alpha) / (
                        counts.n_d[:, None] + alpha.sum()
                    )
                    n_samples += 1
        self.fit_seconds_ = fit_span.duration_s

        self.phi_ = phi_acc / max(n_samples, 1)
        self.theta_ = theta_acc / max(n_samples, 1)
        self._counts = counts
        return self

    # -- fitted accessors -----------------------------------------------------

    @property
    def n_topics(self) -> int:
        return self.config.n_topics

    def topic_assignments(self) -> np.ndarray:
        """Hard per-document topic: argmax of θ."""
        if self.theta_ is None:
            raise NotFittedError("LDA")
        return np.asarray(self.theta_).argmax(axis=1)

    def top_words(self, k: int, n: int = 10) -> list[tuple[int, float]]:
        """The ``n`` highest-probability word ids of topic ``k``."""
        if self.phi_ is None:
            raise NotFittedError("LDA")
        row = self.phi_[k]
        order = np.argsort(row)[::-1][:n]
        return [(int(v), float(row[v])) for v in order]


def word_log_likelihood(
    csr: CSRTokens,
    counts: TopicCounts,
    alpha: np.ndarray,
    gamma: float,
) -> float:
    """Point estimate of Σ_dn log p(w_dn | θ̂_d, φ̂) for the trace.

    One gather over the kernel's flat tokens: token ``t`` of document
    ``d`` scores ``θ̂_d · φ̂[:, w_t]``. The RNG never reads this value.
    """
    v_total = gamma * counts.vocab_size
    phi = (counts.n_kv + gamma) / (counts.n_k[:, None] + v_total)
    theta = (counts.n_dk + alpha) / (counts.n_d[:, None] + alpha.sum())
    doc_of_token = np.repeat(np.arange(csr.n_docs), np.diff(csr.doc_offsets))
    probs = np.einsum("tk,tk->t", theta[doc_of_token], phi.T[csr.token_words])
    return float(np.log(np.maximum(probs, 1e-300)).sum())
