"""Ingredient roles and quantity-string rendering.

Recipe authors write "oosaji 2", "200cc", "2 mai" — not mass fractions.
The generator samples ingredient *masses*, renders them into realistic
quantity strings here, and then (important!) re-parses those strings when
computing the recipe's ground-truth composition, so rounding introduced
by the rendering is part of the data, exactly as on a real site.
"""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np

from repro.rng import WeightedChoice
from repro.units.convert import to_grams
from repro.units.parser import parse_quantity


class Role(enum.Enum):
    """What part an ingredient plays in a gel dish."""

    GEL = "gel"
    EMULSION = "emulsion"
    NEUTRAL = "neutral"    # water phase: water, juice, coffee…
    FRUIT = "fruit"        # gel-unrelated bulk
    TOPPING = "topping"    # nuts/biscuit — crispy-term anchors
    FLAVOR = "flavor"      # trace flavourings


#: Ingredient → role.
ROLES: dict[str, Role] = {
    "gelatin": Role.GEL,
    "kanten": Role.GEL,
    "agar": Role.GEL,
    "sugar": Role.EMULSION,
    "egg_white": Role.EMULSION,
    "egg_yolk": Role.EMULSION,
    "cream": Role.EMULSION,
    "milk": Role.EMULSION,
    "yogurt": Role.EMULSION,
    "water": Role.NEUTRAL,
    "juice": Role.NEUTRAL,
    "coffee": Role.NEUTRAL,
    "tea": Role.NEUTRAL,
    "wine": Role.NEUTRAL,
    "soy_milk": Role.NEUTRAL,
    "lemon_juice": Role.NEUTRAL,
    "strawberry": Role.FRUIT,
    "orange": Role.FRUIT,
    "peach": Role.FRUIT,
    "banana": Role.FRUIT,
    "mango": Role.FRUIT,
    "blueberry": Role.FRUIT,
    "pineapple": Role.FRUIT,
    "mandarin": Role.FRUIT,
    "azuki": Role.FRUIT,
    "pumpkin": Role.FRUIT,
    "cream_cheese": Role.FRUIT,   # gel/emulsion-unrelated bulk, like fruit
    "almond": Role.TOPPING,
    "walnut": Role.TOPPING,
    "peanut": Role.TOPPING,
    "granola": Role.TOPPING,
    "biscuit": Role.TOPPING,
    "matcha": Role.FLAVOR,
    "cocoa": Role.FLAVOR,
    "chocolate": Role.FLAVOR,
    "vanilla_essence": Role.FLAVOR,
    "honey": Role.FLAVOR,
    "condensed_milk": Role.FLAVOR,
}

#: Nut/crunch ingredients that anchor crispy terms (word2vec targets).
TOPPING_INGREDIENTS: tuple[str, ...] = tuple(
    name for name, role in ROLES.items() if role is Role.TOPPING
)

#: Rendering formats per ingredient: (format kind, weight). Kinds:
#: ``g`` grams, ``ml``/``cc`` millilitres, ``cup`` Japanese cups,
#: ``tbsp``/``tsp`` spoons, ``piece``/``sheet``/``pack`` counted units.
_FORMATS: dict[str, tuple[tuple[str, float], ...]] = {
    "gelatin": (("g", 0.5), ("sheet", 0.3), ("pack", 0.2)),
    "kanten": (("g", 0.7), ("pack", 0.3)),
    "agar": (("g", 0.7), ("pack", 0.3)),
    "sugar": (("g", 0.5), ("tbsp", 0.5)),
    "egg_white": (("piece", 1.0),),
    "egg_yolk": (("piece", 1.0),),
    "cream": (("ml", 0.6), ("cc", 0.3), ("cup", 0.1)),
    "milk": (("ml", 0.4), ("cc", 0.3), ("cup", 0.3)),
    "yogurt": (("g", 0.7), ("ml", 0.3)),
    "honey": (("tbsp", 0.7), ("g", 0.3)),
    "condensed_milk": (("tbsp", 0.7), ("g", 0.3)),
    "matcha": (("tsp", 0.7), ("g", 0.3)),
    "cocoa": (("tbsp", 0.6), ("g", 0.4)),
    "vanilla_essence": (("tsp", 1.0),),
    "chocolate": (("g", 1.0),),
    "almond": (("g", 0.7), ("tbsp", 0.3)),
    "walnut": (("g", 0.7), ("piece", 0.3)),
    "peanut": (("g", 0.8), ("tbsp", 0.2)),
    "granola": (("g", 0.6), ("tbsp", 0.4)),
    "biscuit": (("g", 0.5), ("piece", 0.5)),
    "cream_cheese": (("g", 1.0),),
    "strawberry": (("piece", 0.7), ("g", 0.3)),
    "blueberry": (("g", 1.0),),
    "azuki": (("g", 1.0),),
}
_LIQUID_DEFAULT = (("ml", 0.5), ("cc", 0.3), ("cup", 0.2))
_SOLID_DEFAULT = (("g", 0.7), ("piece", 0.3))

#: Grams per counted item, mirroring :mod:`repro.units.gravity`.
_PER_ITEM: dict[tuple[str, str], float] = {
    ("gelatin", "sheet"): 1.5,
    ("gelatin", "pack"): 5.0,
    ("kanten", "pack"): 4.0,
    ("agar", "pack"): 4.0,
    ("egg_white", "piece"): 35.0,
    ("egg_yolk", "piece"): 18.0,
    ("walnut", "piece"): 5.0,
    ("biscuit", "piece"): 8.0,
    ("strawberry", "piece"): 15.0,
    ("orange", "piece"): 100.0,
    ("peach", "piece"): 170.0,
    ("banana", "piece"): 100.0,
    ("mango", "piece"): 200.0,
    ("pineapple", "piece"): 80.0,
    ("mandarin", "piece"): 75.0,
    ("pumpkin", "piece"): 120.0,
}

#: g/mL used when rendering into volume units (matches the gravity table).
_DENSITY: dict[str, float] = {
    "sugar": 0.6, "milk": 1.03, "juice": 1.04, "honey": 1.4,
    "condensed_milk": 1.3, "matcha": 0.4, "cocoa": 0.45,
    "almond": 0.6, "peanut": 0.65, "granola": 0.45,
    "vanilla_essence": 0.9, "soy_milk": 1.03, "wine": 0.99,
    "lemon_juice": 1.02, "gelatin": 0.6, "kanten": 0.4, "agar": 0.4,
}


def _formats_for(name: str, role: Role) -> tuple[tuple[str, float], ...]:
    if name in _FORMATS:
        return _FORMATS[name]
    if role in (Role.NEUTRAL,):
        return _LIQUID_DEFAULT
    return _SOLID_DEFAULT


@lru_cache(maxsize=256)
def _format_choice(name: str) -> tuple[tuple[str, ...], WeightedChoice]:
    """``name``'s quantity formats and the draw over their weights, built
    once per ingredient."""
    formats = _formats_for(name, ROLES.get(name, Role.FLAVOR))
    weights = np.array([w for _, w in formats])
    return tuple(k for k, _ in formats), WeightedChoice(weights / weights.sum())


def _round_half(value: float) -> float:
    return max(round(value * 2) / 2, 0.5)


def render_quantity(name: str, grams: float, rng: np.random.Generator) -> str:
    """Render ``grams`` of ``name`` into a plausible quantity string.

    The returned string always parses back (via
    :func:`repro.units.parser.parse_quantity`) to a strictly positive
    mass; rounding error relative to ``grams`` is intentional realism.
    """
    role = ROLES.get(name, Role.FLAVOR)
    # real authors write 適量 ("to taste") for trace flavourings
    if role is Role.FLAVOR and rng.random() < 0.2:
        return "tekiryou"
    kinds, choice = _format_choice(name)
    kind = kinds[choice.draw(rng)]
    density = _DENSITY.get(name, 1.0)

    if kind == "g":
        amount = _round_half(grams) if grams < 20 else float(round(grams))
        text = f"{amount:g} g"
    elif kind in ("ml", "cc"):
        ml = grams / density
        amount = _round_half(ml) if ml < 20 else float(round(ml))
        text = f"{amount:g} {kind}"
    elif kind == "cup":
        cups = max(round((grams / density) / 200.0 * 4) / 4, 0.25)
        text = f"{cups:g} cups"
    elif kind == "tbsp":
        spoons = max(round(grams / (15.0 * density) * 2) / 2, 0.5)
        text = f"oosaji {spoons:g}"
    elif kind == "tsp":
        spoons = max(round(grams / (5.0 * density) * 2) / 2, 0.5)
        text = f"kosaji {spoons:g}"
    else:  # piece / sheet / pack
        per_item = _PER_ITEM.get((name, kind), 0.0)
        if per_item <= 0.0 or grams < 0.6 * per_item:
            # one whole piece would badly overshoot; write grams instead
            return render_quantity_fallback(grams)
        count = max(int(round(grams / per_item)), 1)
        unit = {"piece": "ko", "sheet": "mai", "pack": "pack"}[kind]
        text = f"{count} {unit}"

    if _parsed_grams(text, name) <= 0.0:  # paranoid fallback
        return render_quantity_fallback(grams)
    return text


def render_quantity_fallback(grams: float) -> str:
    """Plain-gram rendering used when a counted unit would round to zero."""
    return f"{max(_round_half(grams), 0.5):g} g"


def _parsed_grams(text: str, name: str) -> float:
    return to_grams(parse_quantity(text), name)
