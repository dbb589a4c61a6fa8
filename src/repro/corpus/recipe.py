"""Recipe documents as posted on the sharing site.

A :class:`Recipe` is the raw document: a title, a free-text description
(where texture words live), and an ingredient list whose quantities are
*strings* in whatever unit the author used — normalisation happens later
in :mod:`repro.corpus.features`, exactly as the paper processes scraped
Cookpad pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import CorpusError


@dataclass(frozen=True)
class Ingredient:
    """One ingredient line: canonical name + quantity as written."""

    name: str
    quantity_text: str

    def __post_init__(self) -> None:
        if not self.name:
            raise CorpusError("ingredient name must be non-empty")
        if not self.quantity_text:
            raise CorpusError(f"ingredient {self.name!r} has no quantity")


@dataclass(frozen=True)
class Recipe:
    """One posted recipe document."""

    recipe_id: str
    title: str
    description: str
    ingredients: tuple[Ingredient, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.recipe_id:
            raise CorpusError("recipe_id must be non-empty")
        if not isinstance(self.ingredients, tuple):
            object.__setattr__(self, "ingredients", tuple(self.ingredients))
        names = [ing.name for ing in self.ingredients]
        if len(names) != len(set(names)):
            raise CorpusError(
                f"recipe {self.recipe_id!r} lists an ingredient twice"
            )

    def ingredient_names(self) -> tuple[str, ...]:
        """Names in listing order."""
        return tuple(ing.name for ing in self.ingredients)

    def has_ingredient(self, name: str) -> bool:
        """Whether ``name`` appears in the ingredient list."""
        return any(ing.name == name for ing in self.ingredients)
