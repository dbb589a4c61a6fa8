"""Per-recipe features: the three inputs of the joint topic model.

Section IV-A: "each recipe is converted to three kinds of features, a
sequence of texture terms, a vector of gel ingredient concentrations, and
a vector of emulsion ingredient concentrations", where concentrations are
mass ratios expressed as the information quantity −log(x).

:func:`build_features` performs the whole normalisation for one recipe:
quantity parsing → grams → concentration ratios → −log vectors, plus the
bookkeeping the Section IV-A dataset filters need (unrelated-ingredient
mass share).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.corpus.extraction import TextureTermExtractor
from repro.corpus.recipe import Recipe
from repro.errors import UnitConversionError, UnitParseError  # noqa: F401 (re-exported for callers catching drop errors)
from repro.rheology.gel_system import EMULSION_NAMES, GEL_NAMES
from repro.units.convert import concentrations, information_quantity, to_grams
from repro.units.parser import is_unquantified, parse_quantity
from repro.units.quantity import Quantity, Unit

#: Ingredients that are neither gels nor emulsions but are still "gel
#: related" bulk: the water phase every jelly is mostly made of.
NEUTRAL_INGREDIENTS: frozenset[str] = frozenset(
    {"water", "juice", "coffee", "tea", "wine", "lemon_juice", "soy_milk"}
)


@dataclass(frozen=True)
class RecipeFeatures:
    """The featurised recipe the topic model consumes."""

    recipe_id: str
    term_counts: Mapping[str, int]
    gel_raw: np.ndarray
    emulsion_raw: np.ndarray
    gel_log: np.ndarray
    emulsion_log: np.ndarray
    total_mass_g: float
    unrelated_fraction: float
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "term_counts", MappingProxyType(dict(self.term_counts)))
        if self.gel_raw.shape != (len(GEL_NAMES),):
            raise ValueError(f"gel vector must have shape ({len(GEL_NAMES)},)")
        if self.emulsion_raw.shape != (len(EMULSION_NAMES),):
            raise ValueError(
                f"emulsion vector must have shape ({len(EMULSION_NAMES)},)"
            )

    @property
    def n_terms(self) -> int:
        """Total texture-term occurrences in the description."""
        return int(sum(self.term_counts.values()))

    @property
    def has_gel(self) -> bool:
        """Whether any gelling agent is present."""
        return bool(np.any(self.gel_raw > 0.0))

    def term_sequence(self) -> list[str]:
        """Term occurrences unrolled into a flat sequence (sorted for
        determinism; the model is exchangeable in word order)."""
        sequence: list[str] = []
        for surface in sorted(self.term_counts):
            sequence.extend([surface] * self.term_counts[surface])
        return sequence


def mass_table(recipe: Recipe) -> dict[str, float]:
    """Grams of every ingredient of ``recipe``.

    A "to taste" amount (適量) counts as one pinch, and an ingredient
    missing from the physics table converts at water's density (see
    :func:`~repro.units.gravity.physics_of`). Raises
    :class:`~repro.errors.UnitParseError` /
    :class:`~repro.errors.UnitConversionError` on malformed lines, so the
    dataset builder can count and drop unparseable recipes explicitly.
    """
    masses: dict[str, float] = {}
    for ingredient in recipe.ingredients:
        if is_unquantified(ingredient.quantity_text):
            quantity = Quantity(1.0, Unit.PINCH)
        else:
            quantity = parse_quantity(ingredient.quantity_text)
        masses[ingredient.name] = to_grams(quantity, ingredient.name)
    return masses


def build_features(
    recipe: Recipe, extractor: TextureTermExtractor
) -> RecipeFeatures:
    """Featurise one recipe.

    Propagates unit errors (see :func:`mass_table`); callers wanting the
    paper's silent-drop behaviour catch
    :class:`~repro.errors.UnitParseError` and
    :class:`~repro.errors.UnitConversionError`.
    """
    masses = mass_table(recipe)
    ratios = concentrations(masses)

    gel_raw = np.array([ratios.get(name, 0.0) for name in GEL_NAMES])
    emulsion_raw = np.array([ratios.get(name, 0.0) for name in EMULSION_NAMES])
    related = set(GEL_NAMES) | set(EMULSION_NAMES) | NEUTRAL_INGREDIENTS
    unrelated = sum(share for name, share in ratios.items() if name not in related)

    return RecipeFeatures(
        recipe_id=recipe.recipe_id,
        term_counts=extractor.term_counts(recipe),
        gel_raw=gel_raw,
        emulsion_raw=emulsion_raw,
        gel_log=np.array(information_quantity(gel_raw)),
        emulsion_log=np.array(information_quantity(emulsion_raw)),
        total_mass_g=float(sum(masses.values())),
        unrelated_fraction=float(unrelated),
        metadata=recipe.metadata,
    )


__all__ = [
    "RecipeFeatures",
    "build_features",
    "mass_table",
    "NEUTRAL_INGREDIENTS",
]
