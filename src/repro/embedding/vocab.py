"""Vocabulary with frequency bookkeeping for skip-gram training.

Provides the three things SGNS needs from a corpus: token ↔ id mapping
with a minimum-count cutoff, frequency-based subsampling probabilities
(Mikolov's ``t / f`` rule), and the unigram^0.75 negative-sampling table.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ModelError
from repro.rng import WeightedChoice


class Vocabulary:
    """Token inventory built from tokenised sentences."""

    def __init__(
        self,
        sentences: Iterable[Sequence[str]],
        min_count: int = 5,
        subsample_t: float = 1e-3,
    ) -> None:
        if min_count < 1:
            raise ModelError("min_count must be >= 1")
        counts: Counter[str] = Counter()
        total = 0
        for sentence in sentences:
            counts.update(sentence)
            total += len(sentence)
        if total == 0:
            raise ModelError("empty corpus")
        kept = sorted(
            (t for t, c in counts.items() if c >= min_count),
            key=lambda t: (-counts[t], t),
        )
        if not kept:
            raise ModelError(f"no token reaches min_count={min_count}")
        self._token_to_id = {t: i for i, t in enumerate(kept)}
        self._tokens = tuple(kept)
        self._counts = np.array([counts[t] for t in kept], dtype=np.int64)
        self.total_tokens = int(self._counts.sum())

        frequency = self._counts / self.total_tokens
        if subsample_t > 0:
            keep = np.minimum(1.0, np.sqrt(subsample_t / frequency))
        else:
            keep = np.ones_like(frequency)
        #: Probability that subsampling keeps one occurrence of each id.
        self.keep_probability: np.ndarray = keep

        noise = self._counts.astype(float) ** 0.75
        self._noise = WeightedChoice(noise / noise.sum())

    # -- mapping ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: object) -> bool:
        return token in self._token_to_id

    @property
    def tokens(self) -> tuple[str, ...]:
        """All tokens, most frequent first."""
        return self._tokens

    def id_of(self, token: str) -> int:
        """Token id; raises ``KeyError`` for out-of-vocabulary tokens."""
        return self._token_to_id[token]

    def token_of(self, token_id: int) -> str:
        """Inverse of :meth:`id_of`."""
        return self._tokens[token_id]

    # -- training support --------------------------------------------------

    def encode(
        self, sentences: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The corpus as one flat id array, out-of-vocabulary tokens
        dropped, and ``len(sentences) + 1`` offsets: sentence ``s`` is
        ``ids[offsets[s]:offsets[s + 1]]``."""
        lookup = self._token_to_id.get
        all_ids = np.array(
            [lookup(t, -1) for sentence in sentences for t in sentence],
            dtype=np.int64,
        )
        known = all_ids >= 0
        known_before = np.concatenate(([0], np.cumsum(known)))
        lengths = [len(sentence) for sentence in sentences]
        bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        return all_ids[known], known_before[bounds]

    def sample_negatives(
        self, shape: tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw negative-sample ids from the unigram^0.75 distribution."""
        return self._noise.draw(rng, shape)
