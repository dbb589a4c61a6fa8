"""Per-ingredient physical constants for unit conversion.

Volume → mass conversion needs specific gravity; for powders the
effective (bulk) density implied by the Japanese standard spoon-weight
tables is used — e.g. a 15 mL tablespoon of granulated sugar weighs 9 g,
so sugar converts at 0.6 g/mL. Counted units (pieces, gelatin sheets,
powder sachets) use conventional Japanese retail masses.

Values follow the standard Japanese cooking weight tables (調味料の重量表)
rounded to the precision home recipes use.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IngredientPhysics:
    """Physical conversion constants for one ingredient."""

    name: str
    specific_gravity: float = 1.0   # grams per millilitre (bulk for powders)
    grams_per_piece: float | None = None
    grams_per_sheet: float | None = None
    grams_per_pack: float | None = None


def _p(name, sg=1.0, piece=None, sheet=None, pack=None):
    return IngredientPhysics(
        name=name,
        specific_gravity=sg,
        grams_per_piece=piece,
        grams_per_sheet=sheet,
        grams_per_pack=pack,
    )


#: Canonical ingredient physics table, keyed by romaji ingredient name.
PHYSICS_TABLE: dict[str, IngredientPhysics] = {
    p.name: p
    for p in (
        # gelling agents
        _p("gelatin", sg=0.6, sheet=1.5, pack=5.0),
        _p("kanten", sg=0.4, piece=8.0, pack=4.0),   # piece = one stick (bou)
        _p("agar", sg=0.4, pack=4.0),
        # the paper's six emulsions
        _p("sugar", sg=0.6),
        _p("egg_white", sg=1.0, piece=35.0),
        _p("egg_yolk", sg=1.0, piece=18.0),
        _p("cream", sg=1.0),
        _p("milk", sg=1.03),
        _p("yogurt", sg=1.0),
        # liquids
        _p("water", sg=1.0),
        _p("juice", sg=1.04),
        _p("coffee", sg=1.0),
        _p("tea", sg=1.0),
        _p("wine", sg=0.99),
        _p("soy_milk", sg=1.03),
        _p("condensed_milk", sg=1.3),
        _p("honey", sg=1.4),
        # fruits and toppings (gel-unrelated bulk)
        _p("strawberry", piece=15.0),
        _p("orange", piece=100.0),
        _p("peach", piece=170.0),
        _p("banana", piece=100.0),
        _p("mango", piece=200.0),
        _p("blueberry", piece=2.0),
        _p("lemon_juice", sg=1.02),
        _p("pineapple", piece=80.0),  # one slice
        _p("mandarin", piece=75.0),
        _p("azuki", sg=1.1),
        _p("pumpkin", piece=120.0),  # one wedge
        # nuts and crunch (word2vec-filter targets)
        _p("almond", sg=0.6, piece=1.2),
        _p("walnut", sg=0.5, piece=5.0),
        _p("peanut", sg=0.65, piece=0.8),
        _p("granola", sg=0.45),
        _p("biscuit", sg=0.5, piece=8.0),
        # dairy-adjacent extras
        _p("cream_cheese", sg=1.0, pack=200.0),
        _p("butter", sg=0.95, piece=8.0),
        # flavourings
        _p("matcha", sg=0.4),
        _p("cocoa", sg=0.45),
        _p("chocolate", sg=1.3, piece=5.0),
        _p("salt", sg=1.2),
        _p("vanilla_essence", sg=0.9),
        _p("whole_egg", sg=1.0, piece=55.0),
    )
}

#: Physics of an ingredient missing from :data:`PHYSICS_TABLE`:
#: water-equivalent, as the paper's fallback.
WATER_EQUIVALENT = IngredientPhysics(name="<water-equivalent>", specific_gravity=1.0)


def physics_of(ingredient: str) -> IngredientPhysics:
    """Return physics for ``ingredient``.

    An unknown ingredient gets the water-equivalent fallback (counted
    units still fail, since pieces of an unknown ingredient have no
    defensible mass).
    """
    return PHYSICS_TABLE.get(ingredient, WATER_EQUIVALENT)
