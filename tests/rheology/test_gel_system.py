"""Tests for repro.rheology.gel_system — the Table-I-calibrated surface."""

import numpy as np
import pytest

from repro.errors import RheologyError
from repro.rheology.gel_system import Composition, GelSystemModel
from repro.rheology.studies import BAVAROIS, MILK_JELLY, TABLE_I


@pytest.fixture(scope="module")
def model():
    return GelSystemModel()


class TestComposition:
    def test_unknown_gel_rejected(self):
        with pytest.raises(RheologyError):
            Composition(gels={"pectin": 0.01})

    def test_unknown_emulsion_rejected(self):
        with pytest.raises(RheologyError):
            Composition(emulsions={"butter": 0.1})

    def test_over_unity_rejected(self):
        with pytest.raises(RheologyError):
            Composition(gels={"gelatin": 0.6}, emulsions={"milk": 0.6})

    def test_negative_rejected(self):
        with pytest.raises(RheologyError):
            Composition(gels={"gelatin": -0.01})

    def test_zero_entries_dropped(self):
        comp = Composition(gels={"gelatin": 0.01, "agar": 0.0})
        assert "agar" not in comp.gels

    def test_vectors_in_canonical_order(self):
        comp = Composition(
            gels={"agar": 0.01}, emulsions={"milk": 0.5, "sugar": 0.05}
        )
        assert np.allclose(comp.gel_vector(), [0.0, 0.0, 0.01])
        assert comp.emulsion_vector()[0] == 0.05  # sugar first
        assert comp.emulsion_vector()[4] == 0.5   # milk fifth


class TestGelCurves:
    def test_hardness_monotone_gelatin(self, model):
        values = [
            model.gel_hardness({"gelatin": c}) for c in (0.01, 0.02, 0.03, 0.05)
        ]
        assert values == sorted(values)

    def test_kanten_hardest_per_unit(self, model):
        # at 1 % concentration kanten ≫ agar > gelatin (Table I)
        kanten = model.gel_hardness({"kanten": 0.01})
        agar = model.gel_hardness({"agar": 0.01})
        gelatin = model.gel_hardness({"gelatin": 0.01})
        assert kanten > agar > gelatin

    def test_agar_overdose_weakens(self, model):
        # Table I rows 12 vs 13: agar 0.012 is harder than 0.03
        assert model.gel_hardness({"agar": 0.012}) > model.gel_hardness(
            {"agar": 0.03}
        )

    def test_kanten_below_setting_threshold_is_loose(self, model):
        assert model.gel_hardness({"kanten": 0.003}) < 0.5

    def test_cohesiveness_decreases_with_concentration(self, model):
        for gel in ("gelatin", "kanten", "agar"):
            low = model.gel_cohesiveness({gel: 0.008})
            high = model.gel_cohesiveness({gel: 0.03})
            assert low > high

    def test_no_gel_gives_ungelled_cohesiveness(self, model):
        assert model.gel_cohesiveness({}) == pytest.approx(0.45)

    def test_kanten_never_sticky(self, model):
        assert model.gel_adhesiveness({"kanten": 0.02}) == pytest.approx(0.0)

    def test_gelatin_agar_synergy_spike(self, model):
        # Table I row 5: 3 % + 3 % → ~12.6 RU
        combined = model.gel_adhesiveness({"gelatin": 0.03, "agar": 0.03})
        separate = model.gel_adhesiveness(
            {"gelatin": 0.03}
        ) + model.gel_adhesiveness({"agar": 0.03})
        assert combined > separate + 5.0

    def test_no_synergy_at_low_concentration(self, model):
        low = model.gel_adhesiveness({"gelatin": 0.009, "agar": 0.009})
        assert low < 1.0


class TestTableICalibration:
    @pytest.mark.parametrize("setting", TABLE_I, ids=lambda s: f"row{s.data_id}")
    def test_hardness_within_factor_two(self, model, setting):
        profile = model.profile(setting.composition())
        published = setting.texture.hardness
        if published < 0.1:
            assert profile.hardness < 0.5
        else:
            assert 0.5 <= profile.hardness / published <= 2.0

    def test_row5_adhesiveness_spike_reproduced(self, model):
        row5 = next(s for s in TABLE_I if s.data_id == 5)
        profile = model.profile(row5.composition())
        assert profile.adhesiveness == pytest.approx(12.6, rel=0.2)

    def test_kanten_rows_not_sticky(self, model):
        for data_id in (6, 7, 8, 9):
            setting = next(s for s in TABLE_I if s.data_id == data_id)
            assert model.profile(setting.composition()).adhesiveness < 0.1


class TestEmulsionEffects:
    def test_emulsions_harden(self, model):
        plain = model.profile(Composition(gels={"gelatin": 0.025}))
        rich = model.profile(BAVAROIS.composition())
        assert rich.hardness > plain.hardness

    def test_bavarois_more_cohesive_than_milk_jelly(self, model):
        bavarois = model.profile(BAVAROIS.composition())
        milk = model.profile(MILK_JELLY.composition())
        assert bavarois.cohesiveness > milk.cohesiveness + 0.1

    def test_emulsions_reduce_tack(self, model):
        plain = model.profile(Composition(gels={"gelatin": 0.025}))
        rich = model.profile(BAVAROIS.composition())
        assert rich.adhesiveness < plain.adhesiveness

    def test_foam_softens_weak_gels(self, model):
        base = Composition(gels={"gelatin": 0.004}, emulsions={"cream": 0.2})
        foamy = Composition(
            gels={"gelatin": 0.004},
            emulsions={"cream": 0.2, "egg_white": 0.12},
        )
        assert (
            model.profile(foamy).cohesiveness < model.profile(base).cohesiveness
        )

    def test_cohesiveness_capped(self, model):
        heavy = Composition(
            gels={"gelatin": 0.03},
            emulsions={"cream": 0.4, "egg_yolk": 0.15},
        )
        assert model.profile(heavy).cohesiveness <= 0.95


class TestMaterialMapping:
    def test_rheometer_round_trip_hardness(self, model):
        for setting in TABLE_I[:5]:
            target = model.profile(setting.composition())
            measured = model.measure(setting.composition())
            assert measured.hardness == pytest.approx(target.hardness, rel=0.15)

    def test_rheometer_round_trip_adhesiveness(self, model):
        row5 = next(s for s in TABLE_I if s.data_id == 5)
        target = model.profile(row5.composition())
        measured = model.measure(row5.composition())
        assert measured.adhesiveness == pytest.approx(
            target.adhesiveness, rel=0.15
        )

    def test_yield_strain_reflects_brittleness(self, model):
        # kanten snaps early; gelatin stretches
        assert model.yield_strain({"kanten": 0.02}) < model.yield_strain(
            {"gelatin": 0.02}
        )

    def test_material_parameters_valid_for_all_settings(self, model):
        for setting in TABLE_I:
            material = model.material(setting.composition())
            assert material.modulus_kpa > 0
            assert 0.1 <= material.yield_strain <= 0.6
