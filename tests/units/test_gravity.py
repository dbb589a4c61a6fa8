"""Tests for repro.units.gravity."""

import pytest

from repro.units.gravity import (
    PHYSICS_TABLE,
    WATER_EQUIVALENT,
    physics_of,
)


def test_water_has_unit_gravity():
    assert physics_of("water").specific_gravity == 1.0


def test_standard_spoon_weights():
    # Japanese spoon-weight tables: a 15 mL tbsp of sugar weighs 9 g
    assert physics_of("sugar").specific_gravity * 15.0 == pytest.approx(9.0)


def test_gelatin_sheet_mass():
    assert physics_of("gelatin").grams_per_sheet == 1.5


def test_egg_piece_masses():
    assert physics_of("egg_yolk").grams_per_piece == 18.0
    assert physics_of("egg_white").grams_per_piece == 35.0


def test_paper_gels_present():
    for gel in ("gelatin", "kanten", "agar"):
        assert gel in PHYSICS_TABLE


def test_paper_emulsions_present():
    for emulsion in ("sugar", "egg_white", "egg_yolk", "cream", "milk", "yogurt"):
        assert emulsion in PHYSICS_TABLE


def test_unknown_lenient_falls_back_to_water():
    assert physics_of("dragonfruit") is WATER_EQUIVALENT


def test_all_gravities_positive():
    for physics in PHYSICS_TABLE.values():
        assert physics.specific_gravity > 0
        for per_item in (
            physics.grams_per_piece,
            physics.grams_per_sheet,
            physics.grams_per_pack,
        ):
            assert per_item is None or per_item > 0
