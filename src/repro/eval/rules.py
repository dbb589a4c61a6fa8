"""Concentration → texture rule mining (the paper's stated future work).

The conclusion announces: "we will detect rules bridging between recipe
information including ingredient concentrations […] and sensory textures
of consumers." This module implements a first, transparent version over
a featurised dataset: for every (ingredient, texture term) pair it
contrasts the ingredient's concentration in recipes that *use* the term
against recipes that don't, and keeps the pairs with a large
standardised effect (Cohen's d in −log concentration space).

Rules read like: *"recipes described as `katai` use markedly more
gelatin (2.6 % vs 0.9 %)"*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ReproError
from repro.rheology.gel_system import EMULSION_NAMES, GEL_NAMES


@dataclass(frozen=True)
class TextureRule:
    """One mined (term, ingredient) association."""

    term: str
    ingredient: str
    direction: int                  # +1: more ingredient ⇒ term; −1: less
    effect_size: float              # |Cohen's d| in −log concentration space
    #: geometric-mean concentration in term recipes (consistent with the
    #: −log feature space the effect is measured in; an absent ingredient
    #: contributes its 1e-6 floor, so these are corpus-level tendencies)
    mean_with: float
    mean_without: float             # geometric-mean concentration elsewhere
    support: int                    # recipes using the term

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        more = "more" if self.direction > 0 else "less"
        return (
            f"'{self.term}' recipes use {more} {self.ingredient} "
            f"({self.mean_with:.4f} vs {self.mean_without:.4f}, "
            f"d={self.effect_size:.2f}, n={self.support})"
        )


def _cohens_d(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        return 0.0
    va, vb = a.var(ddof=1), b.var(ddof=1)
    pooled = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    if pooled <= 0.0:
        return 0.0
    return float((a.mean() - b.mean()) / np.sqrt(pooled))


class RuleMiner:
    """Mines concentration↔term rules from a featurised dataset.

    Parameters
    ----------
    min_support:
        Minimum number of recipes using a term for it to be considered.
    min_effect:
        Minimum |Cohen's d| for a rule to be reported.
    """

    def __init__(self, min_support: int = 10, min_effect: float = 0.8) -> None:
        if min_support < 2:
            raise ReproError("min_support must be >= 2")
        self.min_support = min_support
        self.min_effect = min_effect

    def mine(self, dataset) -> list[TextureRule]:
        """Mine rules from a :class:`~repro.pipeline.dataset.TextureDataset`.

        Concentrations are compared in −log space (the model's feature
        space) but reported as raw mean ratios; effects are sorted
        strongest first.
        """
        features = dataset.features
        if not features:
            raise ReproError("empty dataset")
        log_matrix = np.hstack([dataset.gel_log, dataset.emulsion_log])
        ingredients = tuple(GEL_NAMES) + tuple(EMULSION_NAMES)

        rules: list[TextureRule] = []
        for term in dataset.vocabulary:
            uses = np.array(
                [term in f.term_counts for f in features], dtype=bool
            )
            support = int(uses.sum())
            if support < self.min_support or support > len(features) - 2:
                continue
            for column, ingredient in enumerate(ingredients):
                d = _cohens_d(log_matrix[uses, column], log_matrix[~uses, column])
                if abs(d) < self.min_effect:
                    continue
                rules.append(
                    TextureRule(
                        term=term,
                        ingredient=ingredient,
                        # −log space: smaller value = higher concentration
                        direction=-1 if d > 0 else 1,
                        effect_size=abs(d),
                        mean_with=float(
                            np.exp(-log_matrix[uses, column].mean())
                        ),
                        mean_without=float(
                            np.exp(-log_matrix[~uses, column].mean())
                        ),
                        support=support,
                    )
                )
        rules.sort(key=lambda r: -r.effect_size)
        return rules

    @staticmethod
    def render(rules: Sequence[TextureRule], limit: int = 20) -> str:
        """Plain-text rule listing."""
        lines = [str(rule) for rule in rules[:limit]]
        return "\n".join(lines) if lines else "(no rules above thresholds)"
