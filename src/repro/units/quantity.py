"""Units and the :class:`Quantity` value object.

The unit taxonomy follows how quantities actually appear on Japanese
recipe sharing sites. Volume units use the Japanese national standards
the paper cites: a measuring cup is 200 mL, a tablespoon (大さじ,
*oosaji*) is 15 mL, a teaspoon (小さじ, *kosaji*) is 5 mL.

Counted units (pieces, gelatin sheets, packs) have no universal mass;
they are resolved per ingredient by :mod:`repro.units.gravity`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class UnitKind(enum.Enum):
    """How a unit's magnitude maps to mass."""

    MASS = "mass"      # direct grams
    VOLUME = "volume"  # millilitres; needs specific gravity
    COUNT = "count"    # pieces/sheets/packs; needs per-item mass


class Unit(enum.Enum):
    """A recipe quantity unit."""

    GRAM = ("g", UnitKind.MASS, 1.0)
    KILOGRAM = ("kg", UnitKind.MASS, 1000.0)
    MILLILITER = ("ml", UnitKind.VOLUME, 1.0)
    LITER = ("l", UnitKind.VOLUME, 1000.0)
    CUP = ("cup", UnitKind.VOLUME, 200.0)          # Japanese measuring cup
    TABLESPOON = ("tbsp", UnitKind.VOLUME, 15.0)   # oosaji
    TEASPOON = ("tsp", UnitKind.VOLUME, 5.0)       # kosaji
    PIECE = ("piece", UnitKind.COUNT, 1.0)
    SHEET = ("sheet", UnitKind.COUNT, 1.0)         # gelatin leaf
    PACK = ("pack", UnitKind.COUNT, 1.0)           # powder sachet
    PINCH = ("pinch", UnitKind.VOLUME, 0.6)        # ~0.6 mL between fingers

    def __init__(self, label: str, kind: UnitKind, factor: float) -> None:
        self.label = label
        self.kind = kind
        #: grams per unit (MASS), millilitres per unit (VOLUME), or items
        #: per unit (COUNT).
        self.factor = factor

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


@dataclass(frozen=True)
class Quantity:
    """An amount paired with its unit, e.g. ``Quantity(2, Unit.CUP)``."""

    amount: float
    unit: Unit

    def __post_init__(self) -> None:
        if not (self.amount >= 0.0):  # also rejects NaN
            raise ValueError(f"amount must be non-negative, got {self.amount}")

    @property
    def milliliters(self) -> float | None:
        """Volume in millilitres for volume units, else ``None``."""
        if self.unit.kind is UnitKind.VOLUME:
            return self.amount * self.unit.factor
        return None

    @property
    def items(self) -> float | None:
        """Item count for counted units, else ``None``."""
        if self.unit.kind is UnitKind.COUNT:
            return self.amount * self.unit.factor
        return None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.amount:g} {self.unit.label}"
