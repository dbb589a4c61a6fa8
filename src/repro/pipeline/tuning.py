"""Hyperparameter selection for the joint model.

The paper fixes K = 10 and does not report α/γ. :func:`grid_search`
makes the choice reproducible: it fits the joint model over a small grid
and scores each configuration by final joint log-likelihood and by word
perplexity, returning every row so the choice is auditable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.core.joint_model import JointModelConfig, JointTextureTopicModel
from repro.errors import ExperimentError
from repro.eval.metrics import word_perplexity
from repro.pipeline.dataset import TextureDataset
from repro.rng import RngLike, spawn


def heldout_word_perplexity(
    model: JointTextureTopicModel,
    heldout: TextureDataset,
    point_sigma: float = 0.35,
) -> float:
    """Document-completion perplexity on held-out recipes.

    Each held-out document's topic posterior is computed from its *gel
    vector only* (fold-in, no word leakage), then its words are scored
    under ``posterior @ φ``. Lower is better; unlike in-sample perplexity
    this penalises a model whose concentration channel stops predicting
    which words a recipe will use.
    """
    import numpy as np
    from scipy.special import logsumexp

    from repro.core.linkage import TopicLinker
    from repro.errors import ModelError

    if model.theta_ is None:
        raise ModelError("heldout evaluation needs a fitted model")
    params = TopicLinker(model, point_sigma).gel_params()
    logits = np.column_stack(
        [p.log_density(heldout.gel_log) for p in params]
    )
    logits -= logsumexp(logits, axis=1, keepdims=True)
    posteriors = np.exp(logits)
    phi = np.asarray(model.phi_)

    total_log, total_tokens = 0.0, 0
    for d, words in enumerate(heldout.docs):
        if len(words) == 0:
            continue
        probs = posteriors[d] @ phi[:, np.asarray(words, dtype=int)]
        total_log += float(np.log(np.maximum(probs, 1e-300)).sum())
        total_tokens += len(words)
    if total_tokens == 0:
        raise ExperimentError("held-out set has no tokens")
    return float(np.exp(-total_log / total_tokens))


@dataclass(frozen=True)
class TuningRow:
    """One evaluated configuration."""

    config: JointModelConfig
    log_likelihood: float
    perplexity: float
    heldout_perplexity: float | None = None


@dataclass(frozen=True)
class TuningResult:
    """All evaluated rows plus the winner."""

    rows: tuple[TuningRow, ...]
    criterion: str

    def _sort_key(self, row: TuningRow) -> float:
        if self.criterion == "perplexity":
            return row.perplexity
        if self.criterion == "heldout":
            return row.heldout_perplexity if row.heldout_perplexity is not None else float("inf")
        return -row.log_likelihood

    @property
    def best(self) -> TuningRow:
        return min(self.rows, key=self._sort_key)

    def table(self) -> str:
        """Plain-text summary, best first."""
        ordered = sorted(self.rows, key=self._sort_key)
        lines = ["K     alpha  gamma  log-lik        perplexity  heldout"]
        for row in ordered:
            cfg = row.config
            heldout = (
                f"{row.heldout_perplexity:.2f}"
                if row.heldout_perplexity is not None
                else "-"
            )
            lines.append(
                f"{cfg.n_topics:<5} {cfg.alpha:<6g} {cfg.gamma:<6g} "
                f"{row.log_likelihood:<14.1f} {row.perplexity:<11.2f} {heldout}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CrossValidationResult:
    """Per-fold held-out perplexities and their summary."""

    fold_perplexities: tuple[float, ...]

    @property
    def mean(self) -> float:
        import numpy as np

        return float(np.mean(self.fold_perplexities))

    @property
    def std(self) -> float:
        import numpy as np

        return float(np.std(self.fold_perplexities))


def cross_validate(
    dataset: TextureDataset,
    config: JointModelConfig | None = None,
    k: int = 5,
    rng: RngLike = None,
) -> CrossValidationResult:
    """k-fold cross-validation of the joint model on ``dataset``.

    Folds are a seeded random partition; each fold's score is the
    document-completion perplexity of :func:`heldout_word_perplexity`.
    """
    import numpy as np

    if k < 2:
        raise ExperimentError("need k >= 2 folds")
    n = len(dataset)
    if n < 2 * k:
        raise ExperimentError(f"dataset of {n} too small for {k} folds")
    config = config or JointModelConfig(n_sweeps=150, burn_in=75, thin=5)

    shuffle_rng, *fit_rngs = spawn(rng, k + 1)
    order = shuffle_rng.permutation(n)
    folds = np.array_split(order, k)
    scores: list[float] = []
    for fold, fit_rng in zip(folds, fit_rngs):
        heldout_idx = sorted(int(i) for i in fold)
        train_idx = sorted(set(range(n)) - set(heldout_idx))
        train = dataset.subset(train_idx)
        heldout = dataset.subset(heldout_idx)
        model = JointTextureTopicModel(config).fit(
            list(train.docs),
            train.gel_log,
            train.emulsion_log,
            train.vocab_size,
            rng=fit_rng,
        )
        scores.append(heldout_word_perplexity(model, heldout))
    return CrossValidationResult(fold_perplexities=tuple(scores))


def grid_search(
    dataset: TextureDataset,
    n_topics_grid: Sequence[int] = (8, 10, 12),
    alpha_grid: Sequence[float] = (1.0,),
    gamma_grid: Sequence[float] = (0.1,),
    base_config: JointModelConfig | None = None,
    rng: RngLike = None,
    criterion: str = "log_likelihood",
    heldout_fraction: float = 0.2,
) -> TuningResult:
    """Fit the joint model over a grid and score every configuration.

    ``base_config`` supplies everything the grid doesn't vary (sweeps,
    burn-in…). Each configuration gets an independent child RNG stream,
    so adding grid points never perturbs existing ones. With
    ``criterion="heldout"`` the dataset is split once, models fit on the
    training part, and configurations are ranked by document-completion
    perplexity on the held-out part (see :func:`heldout_word_perplexity`).
    """
    if criterion not in ("log_likelihood", "perplexity", "heldout"):
        raise ExperimentError(f"unknown criterion {criterion!r}")
    if not n_topics_grid or not alpha_grid or not gamma_grid:
        raise ExperimentError("empty grid")
    base = base_config or JointModelConfig(n_sweeps=150, burn_in=75, thin=5)

    split_rng, *_ = spawn(rng, 1)
    if criterion == "heldout":
        train, heldout = dataset.split(heldout_fraction, rng=split_rng)
    else:
        train, heldout = dataset, None

    combos = [
        (k, alpha, gamma)
        for k in n_topics_grid
        for alpha in alpha_grid
        for gamma in gamma_grid
    ]
    rows: list[TuningRow] = []
    for (k, alpha, gamma), child in zip(combos, spawn(rng, len(combos))):
        config = dataclasses.replace(
            base, n_topics=k, alpha=alpha, gamma=gamma
        )
        model = JointTextureTopicModel(config).fit(
            list(train.docs),
            train.gel_log,
            train.emulsion_log,
            train.vocab_size,
            rng=child,
        )
        rows.append(
            TuningRow(
                config=config,
                log_likelihood=float(model.log_likelihoods_[-1]),
                perplexity=word_perplexity(
                    list(train.docs), model.phi_, model.theta_
                ),
                heldout_perplexity=(
                    heldout_word_perplexity(model, heldout)
                    if heldout is not None
                    else None
                ),
            )
        )
    return TuningResult(rows=tuple(rows), criterion=criterion)
