"""Tests for repro.eval.divergence."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.eval.divergence import (
    concentration_kl,
    discrete_kl,
    gaussian_kl,
    point_gaussian_kl,
)


class TestGaussianKL:
    def test_identical_is_zero(self):
        m, c = np.array([1.0, 2.0]), np.eye(2)
        assert gaussian_kl(m, c, m, c) == pytest.approx(0.0, abs=1e-12)

    def test_known_univariate_value(self):
        # KL(N(0,1) || N(1,1)) = 0.5
        value = gaussian_kl(
            np.array([0.0]), np.eye(1), np.array([1.0]), np.eye(1)
        )
        assert value == pytest.approx(0.5)

    def test_asymmetric(self):
        m0, m1 = np.zeros(2), np.ones(2)
        c0, c1 = np.eye(2), np.eye(2) * 4.0
        assert gaussian_kl(m0, c0, m1, c1) != pytest.approx(
            gaussian_kl(m1, c1, m0, c0)
        )

    def test_grows_with_mean_distance(self):
        c = np.eye(2)
        near = gaussian_kl(np.zeros(2), c, np.ones(2) * 0.5, c)
        far = gaussian_kl(np.zeros(2), c, np.ones(2) * 3.0, c)
        assert far > near

    def test_non_positive_definite_rejected(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ReproError):
            gaussian_kl(np.zeros(2), bad, np.zeros(2), np.eye(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ReproError):
            gaussian_kl(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3))


class TestPointGaussianKL:
    def test_point_at_mean_is_minimal(self):
        mean, cov = np.array([3.0, 4.0]), np.eye(2)
        at_mean = point_gaussian_kl(mean, mean, cov)
        off_mean = point_gaussian_kl(mean + 2.0, mean, cov)
        assert at_mean < off_mean

    def test_sigma_controls_width(self):
        mean, cov = np.zeros(2), np.eye(2)
        narrow = point_gaussian_kl(np.ones(2), mean, cov, point_sigma=0.1)
        wide = point_gaussian_kl(np.ones(2), mean, cov, point_sigma=1.0)
        assert narrow != wide


class TestDiscreteKL:
    def test_identical_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert discrete_kl(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_positive(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.1, 0.9])
        assert discrete_kl(p, q) > 0

    def test_smoothing_handles_zeros(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert np.isfinite(discrete_kl(p, q))

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            discrete_kl(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ReproError):
            discrete_kl(np.ones(2), np.ones(3))


class TestConcentrationKL:
    def test_identical_dishes(self):
        shares = np.array([0.03, 0.0, 0.0, 0.2, 0.4, 0.0])
        assert concentration_kl(shares, shares) == pytest.approx(0.0, abs=1e-9)

    def test_milk_vs_cream_dish_differ(self):
        milk_dish = np.array([0.03, 0.0, 0.0, 0.0, 0.8, 0.0])
        cream_dish = np.array([0.03, 0.0, 0.0, 0.8, 0.0, 0.0])
        assert concentration_kl(milk_dish, cream_dish) > 1.0

    def test_remainder_appended(self):
        # two dishes that differ only in total water phase still differ
        light = np.array([0.05, 0.0, 0.0, 0.0, 0.1, 0.0])
        heavy = np.array([0.05, 0.0, 0.0, 0.0, 0.9, 0.0])
        assert concentration_kl(light, heavy) > 0.1

    def test_closer_emulsion_profile_smaller_kl(self):
        dish = np.array([0.03, 0.0, 0.08, 0.2, 0.4, 0.0])  # bavarois-like
        similar = dish * 0.9
        different = np.array([0.03, 0.0, 0.0, 0.0, 0.79, 0.0])
        assert concentration_kl(similar, dish) < concentration_kl(
            different, dish
        )
