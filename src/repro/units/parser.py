"""Parsing quantity strings from recipe ingredient lines.

Accepts the unit spellings that actually occur on recipe sharing sites,
in romanised form: metric ("100g", "0.5 kg", "50cc", "200ml", "1L"),
Japanese standard measures ("1 cup", "oosaji 2" / "2 tbsp", "kosaji 1" /
"1 tsp"), and counted units ("2 ko", "3 mai" / "3 sheets", "1 pack",
"hitotsumami" / "1 pinch"). Amounts may be decimals ("1.5"), vulgar
fractions ("1/2") or mixed numbers ("1 1/2").

Japanese spoon phrases put the unit first ("oosaji 1"); both orders are
accepted.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.errors import UnitParseError
from repro.units.quantity import Quantity, Unit

#: Accepted spellings for each unit, lower-case.
UNIT_ALIASES: dict[str, Unit] = {
    "g": Unit.GRAM,
    "gram": Unit.GRAM,
    "grams": Unit.GRAM,
    "kg": Unit.KILOGRAM,
    "ml": Unit.MILLILITER,
    "cc": Unit.MILLILITER,
    "l": Unit.LITER,
    "cup": Unit.CUP,
    "cups": Unit.CUP,
    "tbsp": Unit.TABLESPOON,
    "oosaji": Unit.TABLESPOON,
    "osaji": Unit.TABLESPOON,
    "tablespoon": Unit.TABLESPOON,
    "tablespoons": Unit.TABLESPOON,
    "tsp": Unit.TEASPOON,
    "kosaji": Unit.TEASPOON,
    "teaspoon": Unit.TEASPOON,
    "teaspoons": Unit.TEASPOON,
    "ko": Unit.PIECE,
    "piece": Unit.PIECE,
    "pieces": Unit.PIECE,
    "pcs": Unit.PIECE,
    "mai": Unit.SHEET,
    "sheet": Unit.SHEET,
    "sheets": Unit.SHEET,
    "pack": Unit.PACK,
    "packs": Unit.PACK,
    "fukuro": Unit.PACK,
    "pinch": Unit.PINCH,
    "hitotsumami": Unit.PINCH,
}

#: Unquantified amounts as they appear on real sites: "to taste",
#: "tekiryou" (適量), "shoushou" (少々). These parse to an explicit
#: sentinel so callers can decide to skip the line (the paper's pipeline
#: treats them as trace amounts).
UNQUANTIFIED_SPELLINGS: frozenset[str] = frozenset(
    {"tekiryou", "shoushou", "to taste", "osuki de", "okonomi de"}
)

_NUMBER = r"(?:\d+(?:\.\d+)?(?:\s+\d+/\d+)?|\d+/\d+)"
_UNIT = r"[a-zA-Z]+"

# "100g", "1 1/2 cups", "1/2 tsp"
_AMOUNT_FIRST = re.compile(rf"^\s*({_NUMBER})\s*({_UNIT})\s*$")
# "oosaji 1", "kosaji 1/2"
_UNIT_FIRST = re.compile(rf"^\s*({_UNIT})\s*({_NUMBER})\s*$")
# bare unit implying one: "pinch", "hitotsumami"
_BARE_UNIT = re.compile(rf"^\s*({_UNIT})\s*$")


def _parse_number(text: str) -> float:
    """Parse a decimal, vulgar fraction, or mixed number."""
    parts = text.split()
    if len(parts) == 2:  # mixed number "1 1/2"
        return _parse_number(parts[0]) + _parse_number(parts[1])
    if "/" in text:
        num, _, den = text.partition("/")
        denominator = float(den)
        if denominator == 0:
            raise UnitParseError(text, "zero denominator")
        return float(num) / denominator
    return float(text)


def _lookup_unit(label: str, original: str) -> Unit:
    unit = UNIT_ALIASES.get(label.lower())
    if unit is None:
        raise UnitParseError(original, f"unknown unit {label!r}")
    return unit


def is_unquantified(text: str) -> bool:
    """Whether ``text`` is a "to taste"-style unquantified amount."""
    return isinstance(text, str) and text.strip().lower() in UNQUANTIFIED_SPELLINGS


#: How many distinct strings' parses :func:`parse_quantity` keeps, least
#: recently used out. A cold 600-recipe run makes about 8,300 parses of
#: about 750 distinct strings.
PARSE_CACHE_ENTRIES = 4096


def parse_quantity(text: str) -> Quantity:
    """Parse ``text`` into a :class:`Quantity`.

    Raises :class:`~repro.errors.UnitParseError` when the string does not
    follow any accepted shape — including unquantified amounts
    ("tekiryou"), which callers should detect with
    :func:`is_unquantified` and handle by policy (skip, or treat as a
    pinch).

    Successful parses of strings are cached (:data:`PARSE_CACHE_ENTRIES`);
    a :class:`Quantity` is frozen, so callers can share one.
    """
    if not isinstance(text, str):
        raise UnitParseError(str(text), "empty")
    return _parse_text(text)


@lru_cache(maxsize=PARSE_CACHE_ENTRIES)
def _parse_text(text: str) -> Quantity:
    if not text.strip():
        raise UnitParseError(text, "empty")
    if is_unquantified(text):
        raise UnitParseError(text, "unquantified ('to taste')")
    match = _AMOUNT_FIRST.match(text)
    if match:
        amount, label = match.groups()
        return Quantity(_parse_number(amount), _lookup_unit(label, text))
    match = _UNIT_FIRST.match(text)
    if match:
        label, amount = match.groups()
        return Quantity(_parse_number(amount), _lookup_unit(label, text))
    match = _BARE_UNIT.match(text)
    if match:
        label = match.group(1)
        if label.lower() in UNIT_ALIASES:
            return Quantity(1.0, _lookup_unit(label, text))
    raise UnitParseError(text)
