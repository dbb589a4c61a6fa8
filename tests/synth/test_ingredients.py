"""Tests for repro.synth.ingredients."""

import pytest

from repro.synth.ingredients import (
    ROLES,
    TOPPING_INGREDIENTS,
    Role,
    render_quantity,
    render_quantity_fallback,
)
from repro.units.convert import to_grams
from repro.units.parser import parse_quantity

from repro.rng import ensure_rng


def parsed_grams(text, name):
    from repro.units.parser import is_unquantified
    from repro.units.quantity import Quantity, Unit

    if is_unquantified(text):  # pipeline policy: "to taste" ≈ one pinch
        return to_grams(Quantity(1.0, Unit.PINCH), name)
    return to_grams(parse_quantity(text), name)


class TestRoles:
    def test_gels_are_gels(self):
        for gel in ("gelatin", "kanten", "agar"):
            assert ROLES[gel] is Role.GEL

    def test_paper_emulsions(self):
        for emulsion in ("sugar", "egg_white", "egg_yolk", "cream", "milk", "yogurt"):
            assert ROLES[emulsion] is Role.EMULSION

    def test_toppings_listed(self):
        assert set(TOPPING_INGREDIENTS) == {
            "almond", "walnut", "peanut", "granola", "biscuit",
        }

    def test_every_role_ingredient_has_physics_or_water_equivalent(self):
        # rendering must never produce an unparseable line
        rng = ensure_rng(0)
        for name in ROLES:
            text = render_quantity(name, 50.0, rng)
            assert parsed_grams(text, name) > 0


class TestRenderQuantity:
    @pytest.mark.parametrize(
        "name,grams",
        [
            # realistic per-ingredient amounts the generator produces
            ("gelatin", 1.5), ("gelatin", 6.0), ("gelatin", 25.0),
            ("sugar", 10.0), ("sugar", 40.0),
            ("egg_yolk", 20.0), ("egg_yolk", 40.0),
            ("milk", 50.0), ("milk", 250.0),
            ("water", 100.0), ("water", 400.0),
        ],
    )
    def test_round_trip_within_factor(self, name, grams):
        rng = ensure_rng(42)
        for _ in range(10):
            text = render_quantity(name, grams, rng)
            back = parsed_grams(text, name)
            assert back > 0
            # unit rounding (quarter cups, half spoons, whole pieces) may
            # move the mass, but never by more than ~2x
            assert grams / 2.2 <= back <= grams * 2.2

    def test_small_gelatin_never_zero(self):
        rng = ensure_rng(3)
        for _ in range(30):
            text = render_quantity("gelatin", 0.8, rng)
            assert parsed_grams(text, "gelatin") > 0

    def test_deterministic_given_rng(self):
        a = render_quantity("milk", 200.0, ensure_rng(1))
        b = render_quantity("milk", 200.0, ensure_rng(1))
        assert a == b

    def test_variety_of_units(self):
        rng = ensure_rng(5)
        rendered = {render_quantity("milk", 200.0, rng) for _ in range(50)}
        assert len(rendered) > 1  # ml / cc / cups all appear over draws

    def test_fallback_is_parseable(self):
        text = render_quantity_fallback(0.1)
        assert parsed_grams(text, "water") == pytest.approx(0.5)
