"""Tests for repro.rheology.attributes."""

import math

import numpy as np
import pytest

from repro.rheology.attributes import TextureProfile


class TestConstruction:
    def test_basic(self):
        p = TextureProfile(1.0, 0.5, 0.2)
        assert (p.hardness, p.cohesiveness, p.adhesiveness) == (1.0, 0.5, 0.2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TextureProfile(-0.1, 0.5, 0.2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            TextureProfile(math.nan, 0.5, 0.2)

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            TextureProfile(math.inf, 0.5, 0.2)

    def test_zero_profile_allowed(self):
        TextureProfile(0.0, 0.0, 0.0)


class TestArrayRoundTrip:
    def test_as_array_order(self):
        arr = TextureProfile(1.0, 0.5, 0.2).as_array()
        assert np.allclose(arr, [1.0, 0.5, 0.2])

    def test_from_array(self):
        p = TextureProfile.from_array([2.0, 0.3, 0.1])
        assert p.hardness == 2.0

    def test_round_trip(self):
        p = TextureProfile(3.5, 0.8, 12.6)
        assert TextureProfile.from_array(p.as_array()) == p


def test_str_mentions_units():
    assert "RU" in str(TextureProfile(1.0, 0.5, 0.2))


class TestDerivedTPAParameters:
    def test_gumminess(self):
        assert TextureProfile(2.0, 0.5, 0.1).gumminess == pytest.approx(1.0)

    def test_chewiness_requires_springiness(self):
        assert TextureProfile(2.0, 0.5, 0.1).chewiness is None
        p = TextureProfile(2.0, 0.5, 0.1, springiness=0.8)
        assert p.chewiness == pytest.approx(0.8)

    def test_springiness_validated(self):
        with pytest.raises(ValueError):
            TextureProfile(1.0, 0.5, 0.1, springiness=2.0)
        with pytest.raises(ValueError):
            TextureProfile(1.0, 0.5, 0.1, springiness=-0.1)

    def test_as_array_stays_three_dimensional(self):
        # Table I / linkage space is the three primary attributes
        p = TextureProfile(1.0, 0.5, 0.1, springiness=0.8)
        assert p.as_array().shape == (3,)
