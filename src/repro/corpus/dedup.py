"""Near-duplicate recipe detection (MinHash + LSH banding).

Real scraped recipe corpora are full of reposts and near-copies, which
would otherwise be double-counted by every statistic downstream. The
detector shingles each recipe's text and ingredient list, MinHashes the
shingle set, and uses locality-sensitive banding so candidate pairs are
found without the O(n²) comparison; candidates are then verified with
exact Jaccard similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.corpus.recipe import Recipe
from repro.corpus.tokenizer import Tokenizer
from repro.errors import CorpusError
from repro.rng import ensure_rng

_HASH_PRIME = (1 << 61) - 1


def shingles(tokens: Sequence[str], size: int = 3) -> frozenset[str]:
    """Overlapping token n-grams of ``tokens`` (falls back to unigrams
    for texts shorter than ``size``)."""
    if size < 1:
        raise CorpusError("shingle size must be >= 1")
    if len(tokens) < size:
        return frozenset(tokens)
    return frozenset(
        " ".join(tokens[i : i + size]) for i in range(len(tokens) - size + 1)
    )


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """Exact Jaccard similarity of two shingle sets."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


@dataclass(frozen=True)
class DuplicatePair:
    """A verified near-duplicate pair (``kept`` came first in the corpus)."""

    kept: str
    duplicate: str
    similarity: float


class RecipeDeduplicator:
    """MinHash/LSH near-duplicate detector over recipes.

    Parameters
    ----------
    threshold:
        Minimum verified Jaccard similarity to call a pair duplicates.
    n_hashes / bands:
        MinHash signature length and LSH band count; ``n_hashes`` must be
        divisible by ``bands``. The LSH collision probability curve has
        its S-bend near ``(1/bands)^(bands/n_hashes)`` — the defaults
        target thresholds around 0.6–0.9.
    """

    def __init__(
        self,
        threshold: float = 0.8,
        n_hashes: int = 64,
        bands: int = 16,
        shingle_size: int = 3,
        seed: int = 911,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise CorpusError("threshold must be in (0, 1]")
        if n_hashes % bands != 0:
            raise CorpusError("n_hashes must be divisible by bands")
        self.threshold = threshold
        self.n_hashes = n_hashes
        self.bands = bands
        self.rows_per_band = n_hashes // bands
        self.shingle_size = shingle_size
        self.tokenizer = Tokenizer()
        # ensure_rng(int) builds the same default_rng stream, so the
        # hash coefficients below are bit-identical to the pre-repro.rng
        # code path (pinned by test_hash_coefficients_pinned).
        rng = ensure_rng(seed)
        self._a = rng.integers(1, _HASH_PRIME, size=n_hashes, dtype=np.int64)
        self._b = rng.integers(0, _HASH_PRIME, size=n_hashes, dtype=np.int64)

    # -- signatures -----------------------------------------------------------

    def shingle_set(self, recipe: Recipe) -> frozenset[str]:
        """The recipe's shingle set (text trigrams + ingredient names)."""
        tokens = self.tokenizer.tokenize(
            f"{recipe.title} {recipe.description}"
        )
        text_shingles = shingles(tokens, self.shingle_size)
        ingredient_shingles = frozenset(
            f"ING::{name}" for name in recipe.ingredient_names()
        )
        return text_shingles | ingredient_shingles

    def minhash(self, shingle_set: frozenset[str]) -> np.ndarray:
        """The MinHash signature of a shingle set."""
        if not shingle_set:
            return np.full(self.n_hashes, _HASH_PRIME, dtype=np.int64)
        # stable across processes (built-in str hash is salted per run)
        import hashlib

        raw = np.array(
            [
                int.from_bytes(
                    hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(),
                    "big",
                )
                & 0x7FFFFFFFFFFFFFFF
                for s in sorted(shingle_set)
            ],
            dtype=np.int64,
        )
        # (n_shingles, n_hashes) universal hashes, min over shingles
        hashed = (raw[:, None] * self._a[None, :] + self._b[None, :]) % _HASH_PRIME
        return hashed.min(axis=0)

    # -- detection --------------------------------------------------------------

    def find_duplicates(self, recipes: Iterable[Recipe]) -> list[DuplicatePair]:
        """Verified near-duplicate pairs, keeping the earliest recipe."""
        recipes = list(recipes)
        sets = [self.shingle_set(r) for r in recipes]
        signatures = [self.minhash(s) for s in sets]

        candidates: set[tuple[int, int]] = set()
        for band in range(self.bands):
            lo = band * self.rows_per_band
            buckets: dict[bytes, list[int]] = {}
            for i, signature in enumerate(signatures):
                key = signature[lo : lo + self.rows_per_band].tobytes()
                buckets.setdefault(key, []).append(i)
            for members in buckets.values():
                for j in range(1, len(members)):
                    for i in range(j):
                        candidates.add((members[i], members[j]))

        pairs: list[DuplicatePair] = []
        for i, j in sorted(candidates):
            similarity = jaccard(sets[i], sets[j])
            if similarity >= self.threshold:
                pairs.append(
                    DuplicatePair(
                        kept=recipes[i].recipe_id,
                        duplicate=recipes[j].recipe_id,
                        similarity=similarity,
                    )
                )
        return pairs

    def deduplicate(self, recipes: Iterable[Recipe]) -> list[Recipe]:
        """Recipes with verified near-duplicates removed (first one wins)."""
        recipes = list(recipes)
        drop = {pair.duplicate for pair in self.find_duplicates(recipes)}
        return [r for r in recipes if r.recipe_id not in drop]
