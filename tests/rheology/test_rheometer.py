"""Tests for repro.rheology.rheometer — the Fig 2 instrument semantics."""

import numpy as np
import pytest

from repro.errors import RheologyError
from repro.rheology.material import MaterialParameters
from repro.rheology.rheometer import Rheometer, TPACurve


@pytest.fixture(scope="module")
def rheometer():
    return Rheometer()


@pytest.fixture(scope="module")
def firm_gel():
    return MaterialParameters(
        modulus_kpa=3.0, yield_strain=0.4, recovery=0.5, adhesion_j_m2=0.6
    )


class TestCurveShape:
    def test_curve_has_two_bites(self, rheometer, firm_gel):
        curve = rheometer.run(firm_gel)
        assert set(np.unique(curve.bite)) == {1, 2}

    def test_time_strictly_increasing(self, rheometer, firm_gel):
        curve = rheometer.run(firm_gel)
        assert np.all(np.diff(curve.time) > 0)

    def test_first_peak_at_yield(self, rheometer, firm_gel):
        # F1 = (E·ε_y + η·rate) × 1000 × A
        curve = rheometer.run(firm_gel)
        rate = rheometer.strain_max / rheometer.stroke_seconds
        expected = (
            firm_gel.modulus_kpa * firm_gel.yield_strain
            + firm_gel.viscosity_kpa_s * rate
        ) * 1000.0 * rheometer.probe_area_m2
        assert float(curve.force.max()) == pytest.approx(expected, rel=0.05)

    def test_post_yield_force_decays(self, rheometer, firm_gel):
        curve = rheometer.run(firm_gel)
        first_descent = curve.force[: rheometer.samples_per_stroke]
        peak_index = int(first_descent.argmax())
        assert first_descent[-1] < first_descent[peak_index]

    def test_negative_region_only_with_adhesion(self, rheometer):
        sticky = MaterialParameters(modulus_kpa=1.0, adhesion_j_m2=1.0)
        clean = MaterialParameters(modulus_kpa=1.0, adhesion_j_m2=0.0)
        assert rheometer.run(sticky).force.min() < -1e-6
        assert rheometer.run(clean).force.min() >= -1e-9

    def test_second_bite_weaker(self, rheometer, firm_gel):
        curve = rheometer.run(firm_gel)
        first = curve.force[curve.bite == 1].max()
        second = curve.force[curve.bite == 2].max()
        assert second < first


class TestExtraction:
    def test_hardness_equals_f1(self, rheometer, firm_gel):
        curve = rheometer.run(firm_gel)
        profile = curve.extract()
        assert profile.hardness == pytest.approx(float(curve.force.max()))

    def test_cohesiveness_tracks_recovery(self, rheometer):
        for recovery in (0.2, 0.5, 0.8):
            material = MaterialParameters(modulus_kpa=3.0, recovery=recovery)
            profile = rheometer.measure(material)
            assert profile.cohesiveness == pytest.approx(recovery, abs=0.08)

    def test_adhesiveness_tracks_adhesion_parameter(self, rheometer):
        for adhesion in (0.3, 1.0, 5.0):
            material = MaterialParameters(
                modulus_kpa=3.0, adhesion_j_m2=adhesion
            )
            profile = rheometer.measure(material)
            assert profile.adhesiveness == pytest.approx(adhesion, rel=0.15)

    def test_cohesiveness_in_unit_interval(self, rheometer):
        material = MaterialParameters(modulus_kpa=0.05, recovery=0.9)
        profile = rheometer.measure(material)
        assert 0.0 <= profile.cohesiveness <= 1.0

    def test_monotone_hardness_in_modulus(self, rheometer):
        profiles = [
            rheometer.measure(MaterialParameters(modulus_kpa=e))
            for e in (0.5, 1.0, 2.0, 4.0)
        ]
        hardness = [p.hardness for p in profiles]
        assert hardness == sorted(hardness)


class TestSpringiness:
    def test_extraction_monotone_in_material_springiness(self, rheometer):
        extracted = []
        for s in (0.2, 0.5, 0.8, 1.0):
            material = MaterialParameters(
                modulus_kpa=3.0, recovery=0.5, springiness=s
            )
            extracted.append(rheometer.measure(material).springiness)
        assert all(e is not None for e in extracted)
        assert extracted == sorted(extracted)

    def test_fully_springy_sample_recovers_height(self, rheometer):
        material = MaterialParameters(
            modulus_kpa=3.0, recovery=0.6, springiness=1.0
        )
        profile = rheometer.measure(material)
        assert profile.springiness == pytest.approx(1.0, abs=0.02)

    def test_permanent_set_delays_second_contact(self, rheometer):
        """Low springiness → force onset later in the second descent."""
        limp = MaterialParameters(modulus_kpa=3.0, recovery=0.5, springiness=0.1)
        curve = rheometer.run(limp)
        n = rheometer.samples_per_stroke
        second_descent = curve.force[2 * n : 3 * n]
        # a leading stretch of the second descent is force-free
        assert (second_descent[: n // 10] == 0).all()

    def test_derived_tpa_parameters(self, rheometer, firm_gel):
        profile = rheometer.measure(firm_gel)
        assert profile.gumminess == pytest.approx(
            profile.hardness * profile.cohesiveness
        )
        assert profile.chewiness == pytest.approx(
            profile.gumminess * profile.springiness
        )


class TestValidation:
    def test_bad_strain_rejected(self):
        with pytest.raises(RheologyError):
            Rheometer(strain_max=0.99)

    def test_bad_stroke_rejected(self):
        with pytest.raises(RheologyError):
            Rheometer(samples_per_stroke=2)

    def test_curve_arrays_must_align(self):
        with pytest.raises(RheologyError):
            TPACurve(
                time=np.arange(10.0),
                force=np.zeros(9),
                strain=np.zeros(10),
                bite=np.ones(10),
            )

    def test_single_bite_curve_rejected_on_extract(self, rheometer, firm_gel):
        curve = rheometer.run(firm_gel)
        mask = curve.bite == 1
        half = TPACurve(
            time=curve.time[mask],
            force=curve.force[mask],
            strain=curve.strain[mask],
            bite=curve.bite[mask],
        )
        with pytest.raises(RheologyError):
            half.extract()
