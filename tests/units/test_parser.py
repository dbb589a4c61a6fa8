"""Tests for repro.units.parser."""

import pytest

from repro.errors import UnitParseError
from repro.units import parser
from repro.units.parser import PARSE_CACHE_ENTRIES, parse_quantity
from repro.units.quantity import Unit


class TestAmountFirst:
    @pytest.mark.parametrize(
        "text,amount,unit",
        [
            ("100g", 100.0, Unit.GRAM),
            ("100 g", 100.0, Unit.GRAM),
            ("0.5 kg", 0.5, Unit.KILOGRAM),
            ("50cc", 50.0, Unit.MILLILITER),
            ("200 ml", 200.0, Unit.MILLILITER),
            ("1L", 1.0, Unit.LITER),
            ("2 cups", 2.0, Unit.CUP),
            ("1 cup", 1.0, Unit.CUP),
            ("2 tbsp", 2.0, Unit.TABLESPOON),
            ("1 tsp", 1.0, Unit.TEASPOON),
            ("3 ko", 3.0, Unit.PIECE),
            ("2 mai", 2.0, Unit.SHEET),
            ("1 pack", 1.0, Unit.PACK),
            ("1 pinch", 1.0, Unit.PINCH),
        ],
    )
    def test_parses(self, text, amount, unit):
        q = parse_quantity(text)
        assert q.amount == amount
        assert q.unit is unit


class TestUnitFirst:
    def test_oosaji(self):
        q = parse_quantity("oosaji 2")
        assert (q.amount, q.unit) == (2.0, Unit.TABLESPOON)

    def test_kosaji_fraction(self):
        q = parse_quantity("kosaji 1/2")
        assert (q.amount, q.unit) == (0.5, Unit.TEASPOON)


class TestFractions:
    def test_vulgar_fraction(self):
        assert parse_quantity("1/2 cup").amount == 0.5

    def test_mixed_number(self):
        assert parse_quantity("1 1/2 cups").amount == 1.5

    def test_decimal(self):
        assert parse_quantity("2.5 g").amount == 2.5

    def test_zero_denominator_rejected(self):
        with pytest.raises(UnitParseError):
            parse_quantity("1/0 cup")


class TestBareUnit:
    def test_bare_pinch_means_one(self):
        q = parse_quantity("hitotsumami")
        assert (q.amount, q.unit) == (1.0, Unit.PINCH)


class TestRejections:
    @pytest.mark.parametrize(
        "text", ["", "   ", "gibberish 5 7", "5 blobs", "cups", "1,5 g"]
    )
    def test_unparseable(self, text):
        # "cups" alone is ambiguous (no amount for a measurable unit is
        # accepted only for pinch-like units which imply one)
        if text == "cups":
            q = parse_quantity(text)  # bare known unit implies 1
            assert q.amount == 1.0
            return
        with pytest.raises(UnitParseError):
            parse_quantity(text)

    def test_non_string(self):
        with pytest.raises(UnitParseError):
            parse_quantity(None)  # type: ignore[arg-type]

    def test_unknown_unit_mentions_it(self):
        with pytest.raises(UnitParseError) as exc:
            parse_quantity("5 blobs")
        assert "blobs" in str(exc.value)


class _LooksLikeGrams:
    """Not a string, but prints as a cached one."""

    def __str__(self) -> str:
        return "5 g"


BAD_INPUTS = [
    None, 5, 5.0, b"5 g", ["5 g"], _LooksLikeGrams(),
    "", "   ", "5 blobs", "tekiryou", "1/0 g",
]


class TestParseCache:
    def test_a_repeat_is_answered_from_the_cache(self):
        first = parse_quantity("7.125 g")
        hits = parser._parse_text.cache_info().hits
        again = parse_quantity("7.125 g")
        assert again is first
        assert parser._parse_text.cache_info().hits == hits + 1
        assert again == parser._parse_text.__wrapped__("7.125 g")

    def test_failures_raise_before_and_after_a_cached_success(self):
        for bad in BAD_INPUTS:
            with pytest.raises(UnitParseError):
                parse_quantity(bad)  # type: ignore[arg-type]
        assert parse_quantity("5 g") == parse_quantity("5 g")
        for bad in BAD_INPUTS:
            with pytest.raises(UnitParseError):
                parse_quantity(bad)  # type: ignore[arg-type]

    def test_bounded(self):
        for i in range(PARSE_CACHE_ENTRIES + 10):
            parse_quantity(f"{i} ml")
        info = parser._parse_text.cache_info()
        assert info.maxsize == PARSE_CACHE_ENTRIES
        assert info.currsize <= PARSE_CACHE_ENTRIES


class TestCaseInsensitivity:
    def test_upper_case(self):
        assert parse_quantity("100 G").unit is Unit.GRAM
        assert parse_quantity("2 CUPS").unit is Unit.CUP
