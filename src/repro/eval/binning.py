"""KL-ordered binning: the machinery behind the paper's Fig 3.

Section V-B ranks the recipes of a topic by KL divergence of their
emulsion concentrations to a studied dish, then plots histograms of how
many recipes in each KL bin carry terms of a given sensory class (hard /
soft, elastic / cohesive). :func:`kl_ordered_bins` reproduces exactly
that series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ReproError
from repro.lexicon.categories import SensoryAxis
from repro.lexicon.dictionary import TextureDictionary


@dataclass(frozen=True)
class BinnedSeries:
    """Counts of positive/negative-pole recipes per KL bin."""

    axis: SensoryAxis
    edges: np.ndarray            # bin edges over KL divergence, len B+1
    positive: np.ndarray         # e.g. "hard" recipe counts, len B
    negative: np.ndarray         # e.g. "soft" recipe counts, len B

    @property
    def positive_label(self) -> str:
        return self.axis.positive_label

    @property
    def negative_label(self) -> str:
        return self.axis.negative_label


def recipe_axis_sign(
    term_counts: Mapping[str, int],
    axis: SensoryAxis,
    dictionary: TextureDictionary,
) -> int:
    """Classify one recipe on ``axis`` by its term-frequency-weighted polarity."""
    score = 0.0
    for surface, count in term_counts.items():
        term = dictionary.get(surface)
        if term is not None:
            score += count * term.polarity_on(axis)
    if score > 0:
        return 1
    if score < 0:
        return -1
    return 0


def kl_ordered_bins(
    divergences: np.ndarray,
    term_counts_list: Sequence[Mapping[str, int]],
    axis: SensoryAxis,
    dictionary: TextureDictionary,
    n_bins: int = 8,
) -> BinnedSeries:
    """Fig 3 series: per-KL-bin counts of positive vs negative recipes."""
    divergences = np.asarray(divergences, dtype=float)
    if len(divergences) != len(term_counts_list):
        raise ReproError("divergences and term counts must align")
    if len(divergences) == 0:
        raise ReproError("no recipes to bin")
    if n_bins < 1:
        raise ReproError("need at least one bin")
    edges = np.quantile(divergences, np.linspace(0.0, 1.0, n_bins + 1))
    edges[-1] += 1e-12  # right-inclusive last bin
    positive = np.zeros(n_bins, dtype=np.int64)
    negative = np.zeros(n_bins, dtype=np.int64)
    indices = np.clip(
        np.searchsorted(edges, divergences, side="right") - 1, 0, n_bins - 1
    )
    for b, counts in zip(indices, term_counts_list):
        sign = recipe_axis_sign(counts, axis, dictionary)
        if sign > 0:
            positive[b] += 1
        elif sign < 0:
            negative[b] += 1
    return BinnedSeries(axis=axis, edges=edges, positive=positive, negative=negative)


def low_kl_concentration(series: BinnedSeries, head: int = 2) -> float:
    """Share of the positive pole's mass sitting in the lowest-KL bins.

    The paper's reading of Fig 3 — "the smaller the KL is, the more
    frequent the bins of hardness become" — corresponds to this statistic
    being larger than ``head / n_bins``.
    """
    total = series.positive.sum()
    if total == 0:
        return 0.0
    return float(series.positive[:head].sum() / total)
