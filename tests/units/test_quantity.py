"""Tests for repro.units.quantity."""

import math

import pytest

from repro.units.quantity import Quantity, Unit, UnitKind


class TestUnit:
    def test_japanese_standards(self):
        # Section III-A: Japanese national measuring standards
        assert Unit.CUP.factor == 200.0
        assert Unit.TABLESPOON.factor == 15.0
        assert Unit.TEASPOON.factor == 5.0

    def test_kinds(self):
        assert Unit.GRAM.kind is UnitKind.MASS
        assert Unit.MILLILITER.kind is UnitKind.VOLUME
        assert Unit.SHEET.kind is UnitKind.COUNT

    def test_str_is_label(self):
        assert str(Unit.TABLESPOON) == "tbsp"


class TestQuantity:
    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Quantity(-1.0, Unit.GRAM)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Quantity(math.nan, Unit.GRAM)

    def test_zero_allowed(self):
        assert Quantity(0.0, Unit.GRAM).amount == 0.0

    def test_milliliters(self):
        assert Quantity(2.0, Unit.CUP).milliliters == 400.0
        assert Quantity(1.0, Unit.LITER).milliliters == 1000.0
        assert Quantity(3.0, Unit.GRAM).milliliters is None

    def test_items(self):
        assert Quantity(4.0, Unit.SHEET).items == 4.0
        assert Quantity(1.0, Unit.MILLILITER).items is None

    def test_str(self):
        assert str(Quantity(1.5, Unit.CUP)) == "1.5 cup"
