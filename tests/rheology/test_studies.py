"""Tests for repro.rheology.studies — the transcribed empirical data."""

import numpy as np
import pytest

from repro.rheology.studies import (
    BAVAROIS,
    DISH_STUDIES,
    MILK_JELLY,
    TABLE_I,
    setting_by_id,
)


class TestTableI:
    def test_thirteen_settings(self):
        assert len(TABLE_I) == 13

    def test_ids_sequential(self):
        assert [s.data_id for s in TABLE_I] == list(range(1, 14))

    def test_verbatim_spot_checks(self):
        # values straight from the paper's Table I
        row1 = setting_by_id(1)
        assert row1.gels["gelatin"] == 0.018
        assert row1.texture.hardness == 0.20
        row5 = setting_by_id(5)
        assert row5.gels == {"gelatin": 0.03, "agar": 0.03}
        assert row5.texture.adhesiveness == 12.6
        row9 = setting_by_id(9)
        assert row9.gels["kanten"] == 0.02
        assert row9.texture.hardness == 5.67
        row13 = setting_by_id(13)
        assert row13.gels["agar"] == 0.03
        assert row13.texture.adhesiveness == 1.95

    def test_gel_groups(self):
        gelatin_rows = [s for s in TABLE_I if set(s.gels) == {"gelatin"}]
        kanten_rows = [s for s in TABLE_I if set(s.gels) == {"kanten"}]
        agar_rows = [s for s in TABLE_I if set(s.gels) == {"agar"}]
        assert len(gelatin_rows) == 4
        assert len(kanten_rows) == 4
        assert len(agar_rows) == 4

    def test_gel_vector_order(self):
        assert np.allclose(setting_by_id(6).gel_vector(), [0, 0.008, 0])

    def test_every_row_has_a_source(self):
        assert all(s.source for s in TABLE_I)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            setting_by_id(99)

    def test_composition_round_trip(self):
        comp = setting_by_id(4).composition()
        assert comp.gels["gelatin"] == 0.03


class TestDishes:
    def test_two_dishes(self):
        assert DISH_STUDIES == (BAVAROIS, MILK_JELLY)

    def test_bavarois_verbatim(self):
        assert BAVAROIS.texture.hardness == 3.860
        assert BAVAROIS.texture.cohesiveness == 0.809
        assert BAVAROIS.texture.adhesiveness == 0.095
        assert BAVAROIS.gels == {"gelatin": 0.025}
        assert BAVAROIS.emulsions == {
            "egg_yolk": 0.08,
            "cream": 0.2,
            "milk": 0.4,
        }

    def test_milk_jelly_verbatim(self):
        assert MILK_JELLY.texture.hardness == 1.83
        assert MILK_JELLY.texture.cohesiveness == 0.27
        assert MILK_JELLY.emulsions == {"sugar": 0.032, "milk": 0.787}

    def test_same_gel_concentration_as_table_i_row3(self):
        # the paper's key observation: both dishes match data id 3's gels
        row3 = setting_by_id(3)
        assert np.allclose(BAVAROIS.gel_vector(), row3.gel_vector())
        assert np.allclose(MILK_JELLY.gel_vector(), row3.gel_vector())

    def test_emulsion_vector_order(self):
        vec = MILK_JELLY.emulsion_vector()
        assert vec[0] == 0.032  # sugar
        assert vec[4] == 0.787  # milk

    def test_composition_valid(self):
        for dish in DISH_STUDIES:
            comp = dish.composition()
            assert sum(comp.gels.values()) == pytest.approx(0.025)
