"""Corpus and dataset summary statistics.

What a data paper's "corpus statistics" table reports: sizes, vocabulary
growth, token distributions, and a Zipf check — both for raw recipe text
and for the featurised texture-term dataset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.corpus.recipe import Recipe
from repro.corpus.tokenizer import Tokenizer
from repro.errors import CorpusError


@dataclass(frozen=True)
class CorpusStats:
    """Text-level statistics of a recipe collection."""

    n_recipes: int
    n_tokens: int
    n_types: int
    tokens_per_recipe_mean: float
    top_tokens: tuple[tuple[str, int], ...]
    zipf_slope: float

    @classmethod
    def from_recipes(
        cls,
        recipes: Iterable[Recipe],
        top: int = 15,
    ) -> "CorpusStats":
        tokenizer = Tokenizer()
        counts: Counter[str] = Counter()
        n_recipes = 0
        n_tokens = 0
        for recipe in recipes:
            tokens = tokenizer.tokenize(
                f"{recipe.title} {recipe.description}"
            )
            counts.update(tokens)
            n_recipes += 1
            n_tokens += len(tokens)
        if n_recipes == 0:
            raise CorpusError("no recipes")
        return cls(
            n_recipes=n_recipes,
            n_tokens=n_tokens,
            n_types=len(counts),
            tokens_per_recipe_mean=n_tokens / n_recipes,
            top_tokens=tuple(counts.most_common(top)),
            zipf_slope=zipf_slope(counts),
        )


def zipf_slope(counts: Mapping[str, int]) -> float:
    """Least-squares slope of log frequency vs log rank.

    Natural corpora sit near −1; a strongly flatter slope (→ 0) means the
    vocabulary is unnaturally uniform.
    """
    frequencies = np.sort(np.array(list(counts.values()), dtype=float))[::-1]
    frequencies = frequencies[frequencies > 0]
    if frequencies.size < 3:
        raise CorpusError("too few types for a Zipf fit")
    ranks = np.arange(1, frequencies.size + 1, dtype=float)
    slope, _ = np.polyfit(np.log(ranks), np.log(frequencies), 1)  # repro: noqa[NUM002] - ranks start at 1, frequencies filtered > 0 above
    return float(slope)


@dataclass(frozen=True)
class DatasetStats:
    """Feature-level statistics of a texture dataset."""

    n_recipes: int
    n_term_tokens: int
    n_term_types: int
    terms_per_recipe_mean: float
    top_terms: tuple[tuple[str, int], ...]
    gel_coverage: Mapping[str, float]   # fraction of recipes with each gel
    funnel: Mapping[str, int]


def dataset_stats(dataset, top: int = 15) -> DatasetStats:
    """Summarise a :class:`~repro.pipeline.dataset.TextureDataset`."""
    from repro.rheology.gel_system import GEL_NAMES

    counts: Counter[str] = Counter()
    for features in dataset.features:
        counts.update(features.term_counts)
    n = len(dataset)
    if n == 0:
        raise CorpusError("empty dataset")
    total_terms = sum(counts.values())
    coverage = {
        gel: float((dataset.gel_raw[:, i] > 0).mean())
        for i, gel in enumerate(GEL_NAMES)
    }
    return DatasetStats(
        n_recipes=n,
        n_term_tokens=total_terms,
        n_term_types=len(counts),
        terms_per_recipe_mean=total_terms / n,
        top_terms=tuple(counts.most_common(top)),
        gel_coverage=coverage,
        funnel=dict(dataset.funnel),
    )


def render_stats(stats: CorpusStats | DatasetStats) -> str:
    """Plain-text one-screen summary."""
    if isinstance(stats, CorpusStats):
        lines = [
            f"recipes: {stats.n_recipes}",
            f"tokens:  {stats.n_tokens} ({stats.tokens_per_recipe_mean:.1f}/recipe)",
            f"types:   {stats.n_types}",
            f"zipf slope: {stats.zipf_slope:.2f}",
            "top tokens: "
            + ", ".join(f"{t}({c})" for t, c in stats.top_tokens[:8]),
        ]
    else:
        lines = [
            f"dataset recipes: {stats.n_recipes}",
            f"texture terms: {stats.n_term_tokens} tokens, "
            f"{stats.n_term_types} types "
            f"({stats.terms_per_recipe_mean:.1f}/recipe)",
            "gel coverage: "
            + ", ".join(f"{g}:{v:.0%}" for g, v in stats.gel_coverage.items()),
            "top terms: "
            + ", ".join(f"{t}({c})" for t, c in stats.top_terms[:8]),
        ]
    return "\n".join(lines)
