"""Skip-gram with negative sampling (SGNS), pure numpy.

Mini-batched SGD on the standard SGNS objective:

    log σ(u_o · v_c) + Σ_neg log σ(−u_n · v_c)

with linearly decaying learning rate. The implementation is vectorised:
the corpus is encoded once per fit, (centre, context) pairs are
materialised per epoch in one pass, shuffled, and processed in batches
with scatter-adds, which is fast enough for the recipe corpus scale
(hundreds of thousands of tokens) without any compiled extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def _epoch_pairs(
    ids: np.ndarray,
    offsets: np.ndarray,
    keep_probability: np.ndarray,
    window: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(centre, context) id pairs for one epoch, shuffled.

    ``ids`` and ``offsets`` are :meth:`Vocabulary.encode`'s flat corpus
    and ``keep_probability`` is each of its tokens' subsampling keep
    probability. Every non-empty sentence makes, in corpus order, the
    draws of the per-token loop: ``rng.random(n)`` to subsample its n
    tokens, then one scalar ``rng.integers(1, window + 1)`` per kept
    token for its window span. (One sized call per sentence would give
    the same values, but numpy spends about 5 µs per sized call on its
    ``np.prod(size)``, more than the one to three scalar draws that most
    sentences make.) The pairs are then built for all sentences at once
    and shuffled by one permutation of the rows: the draws of shuffling
    the rows in place, without its per-row Python loop.
    """
    keep = np.empty(ids.size, dtype=bool)
    kept_per_sentence = np.zeros(len(offsets) - 1, dtype=np.int64)
    spans: list[int] = []
    integers = rng.integers
    start = 0
    for sentence, length in enumerate(np.diff(offsets).tolist()):
        if not length:
            continue
        end = start + length
        kept = keep[start:end]
        np.less(rng.random(length), keep_probability[start:end], out=kept)
        n_kept = np.count_nonzero(kept)
        kept_per_sentence[sentence] = n_kept
        for _ in range(n_kept):
            spans.append(int(integers(1, window + 1)))  # dynamic window
        start = end
    span = np.array(spans, dtype=np.int64)
    pairs = _window_pairs(ids[keep], kept_per_sentence, span, window)
    return pairs[rng.permutation(len(pairs))]


def _window_pairs(
    kept_ids: np.ndarray, kept_per_sentence: np.ndarray, span: np.ndarray, window: int
) -> np.ndarray:
    """The (centre, context) pairs of every kept token within its span,
    in the per-token loop's (sentence, centre, context) order: one
    ``(kept, 2·window)`` mask of candidate context offsets, read row by
    row. ``kept_ids`` holds the sentences' kept tokens back to back."""
    position = np.arange(kept_ids.size)
    ends = np.cumsum(kept_per_sentence)
    first = np.repeat(ends - kept_per_sentence, kept_per_sentence)
    last = np.repeat(ends - 1, kept_per_sentence)
    reach = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    mask = reach >= np.maximum(-span, first - position)[:, None]
    mask &= reach <= np.minimum(span, last - position)[:, None]
    rows, cols = np.nonzero(mask)
    pairs = np.empty((rows.size, 2), dtype=np.int64)
    pairs[:, 0] = kept_ids[rows]
    pairs[:, 1] = kept_ids[rows + reach[cols]]
    return pairs


def _scatter_add(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(matrix, rows, values)`` as one 1-D ``add.at`` on flat
    indices: every element gets the same additions in the same order, and
    numpy's 1-D fast path makes them several times faster. ``matrix`` is
    C-contiguous (:meth:`SkipGramModel.fit` makes it), so its flat view
    writes through."""
    dim = matrix.shape[1]
    flat_index = (rows[:, None] * dim + np.arange(dim)).reshape(-1)
    np.add.at(matrix.reshape(-1), flat_index, values.reshape(-1))


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

        ids, offsets = self.vocab.encode(sentences)
        keep_probability = self.vocab.keep_probability[ids]
        pair_batches = [
            _epoch_pairs(ids, offsets, keep_probability, cfg.window, generator)
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

        _scatter_add(self.input_vectors, centres, -lr * grad_vc)
        _scatter_add(self.output_vectors, contexts, -lr * grad_upos)
        _scatter_add(self.output_vectors, negatives.reshape(-1), -lr * grad_uneg)

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
        order = np.argsort(scores)[::-1]
        order = order[order != token_id][:k]
        return [(self.vocab.token_of(int(i)), float(scores[i])) for i in order]
