"""Quantity → grams conversion and concentration features.

Implements the normalisation pipeline of Section III-A:

1. every ingredient quantity is converted to grams
   (:func:`to_grams`) using the unit's magnitude and the ingredient's
   specific gravity or per-item mass;
2. per-recipe concentrations are the ratio of each ingredient's mass to
   the recipe's total mass (:func:`concentrations`);
3. a concentration ``x`` is finally expressed as the information
   quantity ``−log(x)`` (:func:`information_quantity`), because the tiny
   gel ratios (0.3 %–5 %) that determine texture would otherwise be
   numerically indistinguishable.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.errors import UnitConversionError
from repro.units.gravity import IngredientPhysics, physics_of
from repro.units.quantity import Quantity, Unit, UnitKind

#: Concentration assigned to absent ingredients before the −log
#: transform. One part in a million is far below any culinary dose, and
#: keeps the transform finite; see :func:`information_quantity`.
ABSENT_CONCENTRATION = 1e-6


def to_grams(quantity: Quantity, ingredient: str) -> float:
    """Convert ``quantity`` of ``ingredient`` to grams.

    Volume units use the ingredient's specific gravity; counted units use
    the ingredient's per-piece/sheet/pack mass. Raises
    :class:`~repro.errors.UnitConversionError` when a counted unit has no
    known per-item mass for the ingredient.
    """
    physics = physics_of(ingredient)
    kind = quantity.unit.kind
    if kind is UnitKind.MASS:
        return quantity.amount * quantity.unit.factor
    if kind is UnitKind.VOLUME:
        milliliters = quantity.amount * quantity.unit.factor
        return milliliters * physics.specific_gravity
    return _count_to_grams(quantity, physics)


def _count_to_grams(quantity: Quantity, physics: IngredientPhysics) -> float:
    per_item = {
        Unit.PIECE: physics.grams_per_piece,
        Unit.SHEET: physics.grams_per_sheet,
        Unit.PACK: physics.grams_per_pack,
    }.get(quantity.unit)
    if per_item is None:
        raise UnitConversionError(
            f"no per-{quantity.unit.label} mass known for {physics.name!r}"
        )
    return quantity.amount * per_item


def concentrations(masses: Mapping[str, float]) -> dict[str, float]:
    """Per-ingredient concentration ratios from a mass table.

    ``masses`` maps ingredient name → grams; the result maps each
    ingredient to its share of the recipe's total mass. Raises
    :class:`~repro.errors.UnitConversionError` on an empty or massless
    recipe.
    """
    total = float(sum(masses.values()))
    if not masses or total <= 0.0:
        raise UnitConversionError("recipe has no mass")
    for name, grams in masses.items():
        if grams < 0.0:
            raise UnitConversionError(f"negative mass for {name!r}")
    return {name: grams / total for name, grams in masses.items()}


def information_quantity(
    x: float | Iterable[float], floor: float = ABSENT_CONCENTRATION
):
    """The paper's feature transform ``−log(x)`` for concentrations.

    ``x`` may be a scalar or an iterable; values are floored at ``floor``
    so absent ingredients (``x == 0``) map to a large-but-finite
    information quantity instead of infinity. Values above 1 are invalid
    (concentrations are ratios).
    """
    if isinstance(x, (int, float)):
        return _neg_log(float(x), floor)
    return [_neg_log(float(v), floor) for v in x]


def _neg_log(value: float, floor: float) -> float:
    if value < 0.0 or value > 1.0:
        raise ValueError(f"concentration out of [0, 1]: {value}")
    return -math.log(max(value, floor))
