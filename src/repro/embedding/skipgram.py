"""Skip-gram with negative sampling (SGNS), pure numpy.

Mini-batched SGD on the standard SGNS objective:

    log σ(u_o · v_c) + Σ_neg log σ(−u_n · v_c)

with linearly decaying learning rate. The implementation is vectorised:
(centre, context) pairs are materialised per epoch, shuffled, and
processed in batches with scatter-adds, which is fast enough for the
recipe corpus scale (hundreds of thousands of tokens) without any
compiled extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.embedding.vocab import Vocabulary
from repro.errors import ModelError, NotFittedError
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class SkipGramConfig:
    """SGNS hyperparameters."""

    dim: int = 50
    window: int = 3
    negatives: int = 5
    epochs: int = 3
    learning_rate: float = 0.025
    min_learning_rate: float = 0.0001
    batch_size: int = 1024
    min_count: int = 5
    subsample_t: float = 1e-3

    def __post_init__(self) -> None:
        if self.dim < 2 or self.window < 1 or self.negatives < 1:
            raise ModelError("degenerate skip-gram configuration")
        if self.epochs < 1 or self.batch_size < 1:
            raise ModelError("degenerate training configuration")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -10.0, 10.0)))


def _sentence_pairs(
    vocab: Vocabulary,
    window: int,
    sentences: Iterable[Sequence[str]],
    rng: np.random.Generator,
) -> np.ndarray:
    """(centre, context) id pairs for one epoch, shuffled."""
    pairs: list[tuple[int, int]] = []
    for sentence in sentences:
        ids = vocab.encode(sentence, rng=rng)
        n = len(ids)
        for i in range(n):
            span = int(rng.integers(1, window + 1))  # dynamic window
            lo, hi = max(0, i - span), min(n, i + span + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((int(ids[i]), int(ids[j])))
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    rng.shuffle(arr)
    return arr


class SkipGramModel:
    """Trainable SGNS embeddings over tokenised sentences."""

    def __init__(self, config: SkipGramConfig | None = None) -> None:
        self.config = config or SkipGramConfig()
        self.vocab: Vocabulary | None = None
        self.input_vectors: np.ndarray | None = None   # v_c
        self.output_vectors: np.ndarray | None = None  # u_o

    # -- training ------------------------------------------------------------

    def fit(
        self, sentences: Sequence[Sequence[str]], rng: RngLike = None
    ) -> "SkipGramModel":
        """Train on ``sentences`` (lists of tokens)."""
        cfg = self.config
        generator = ensure_rng(rng)
        self.vocab = Vocabulary(
            sentences, min_count=cfg.min_count, subsample_t=cfg.subsample_t
        )
        v = len(self.vocab)
        self.input_vectors = (
            (generator.random((v, cfg.dim)) - 0.5) / cfg.dim
        )
        self.output_vectors = np.zeros((v, cfg.dim))

        pair_batches = [
            _sentence_pairs(self.vocab, cfg.window, sentences, generator)
            for _ in range(cfg.epochs)
        ]
        total_batches = 0
        for pairs in pair_batches:
            if pairs.shape[0] == 0:
                raise ModelError("no training pairs; corpus too small?")
            total_batches += int(np.ceil(pairs.shape[0] / cfg.batch_size))

        seen_batches = 0
        for pairs in pair_batches:
            for start in range(0, pairs.shape[0], cfg.batch_size):
                progress = seen_batches / max(total_batches, 1)
                lr = max(
                    cfg.learning_rate * (1.0 - progress), cfg.min_learning_rate
                )
                self._train_batch(
                    pairs[start : start + cfg.batch_size], lr, generator
                )
                seen_batches += 1
        return self

    def _train_batch(
        self, pairs: np.ndarray, lr: float, rng: np.random.Generator
    ) -> None:
        assert self.vocab is not None
        assert self.input_vectors is not None and self.output_vectors is not None
        centres, contexts = pairs[:, 0], pairs[:, 1]
        b = centres.size
        negatives = self.vocab.sample_negatives(
            (b, self.config.negatives), rng
        )

        v_c = self.input_vectors[centres]                      # (B, D)
        u_pos = self.output_vectors[contexts]                  # (B, D)
        u_neg = self.output_vectors[negatives]                 # (B, K, D)

        pos_score = _sigmoid(np.einsum("bd,bd->b", v_c, u_pos))
        neg_score = _sigmoid(np.einsum("bkd,bd->bk", u_neg, v_c))

        g_pos = (pos_score - 1.0)[:, None]                     # (B, 1)
        g_neg = neg_score[:, :, None]                          # (B, K, 1)

        grad_vc = g_pos * u_pos + np.einsum("bko,bkd->bd", g_neg, u_neg)
        grad_upos = g_pos * v_c
        grad_uneg = g_neg * v_c[:, None, :]

        np.add.at(self.input_vectors, centres, -lr * grad_vc)
        np.add.at(self.output_vectors, contexts, -lr * grad_upos)
        np.add.at(
            self.output_vectors,
            negatives.reshape(-1),
            -lr * grad_uneg.reshape(-1, self.config.dim),
        )

    # -- queries --------------------------------------------------------------

    def _require_fit(self) -> None:
        if self.input_vectors is None or self.vocab is None:
            raise NotFittedError("skip-gram model")

    def vector(self, token: str) -> np.ndarray:
        """The (input) embedding of ``token``."""
        self._require_fit()
        assert self.vocab is not None and self.input_vectors is not None
        return self.input_vectors[self.vocab.id_of(token)]

    def most_similar(self, token: str, k: int = 10) -> list[tuple[str, float]]:
        """Top-``k`` cosine neighbours of ``token`` (excluding itself)."""
        self._require_fit()
        assert self.vocab is not None and self.input_vectors is not None
        query = self.vector(token)
        matrix = self.input_vectors
        norms = np.linalg.norm(matrix, axis=1) * max(np.linalg.norm(query), 1e-12)
        scores = matrix @ query / np.maximum(norms, 1e-12)
        token_id = self.vocab.id_of(token)
        scores[token_id] = -np.inf
        order = np.argsort(scores)[::-1][:k]
        return [(self.vocab.token_of(int(i)), float(scores[i])) for i in order]
