"""Tests for repro.core.linalg (guarded inverse / log-determinant)."""

import numpy as np
import pytest

from repro.core.linalg import (
    chol_inv_logdet,
    guarded_inv,
    guarded_slogdet,
    pd_logdet,
    symmetrize,
)
from repro.errors import ModelError
from repro.rng import ensure_rng


def spd(d, seed=0, scale=1.0):
    rng = ensure_rng(seed)
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + d * np.eye(d))


class TestFastPathBitIdentity:
    """On healthy input the guards must not change a single bit."""

    def test_inv_identical(self):
        a = spd(5, seed=3)
        np.testing.assert_array_equal(
            guarded_inv(a),
            np.linalg.inv(a),  # repro: noqa[NUM001] - reference value
        )

    def test_inv_identical_batched(self):
        batch = np.stack([spd(4, seed=s) for s in range(6)])
        np.testing.assert_array_equal(
            guarded_inv(batch),
            np.linalg.inv(batch),  # repro: noqa[NUM001] - reference value
        )

    def test_slogdet_identical(self):
        a = spd(6, seed=11)
        sign, logdet = guarded_slogdet(a)
        ref_sign, ref_logdet = np.linalg.slogdet(a)  # repro: noqa[NUM001] - reference value
        assert sign == ref_sign
        assert logdet == ref_logdet


class TestDegradedPaths:
    def test_singular_matrix_stays_finite(self):
        a = np.zeros((3, 3))
        a[0, 0] = 1.0  # rank-1: raw inv raises LinAlgError
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(a)  # repro: noqa[NUM001] - asserting the raw call raises
        out = guarded_inv(a)
        assert out.shape == (3, 3)
        assert np.all(np.isfinite(out))

    def test_near_singular_scatter(self):
        # scatter of near-duplicate vectors: condition number ~1e16
        v = np.array([1.0, 2.0, 3.0])
        a = np.outer(v, v) + 1e-16 * np.eye(3)
        out = guarded_inv(a)
        assert np.all(np.isfinite(out))

    def test_batch_repairs_only_the_failing_matrix(self):
        """One singular matrix in a stack: every result is the one a call
        on that matrix alone returns, so the healthy matrices keep their
        plain inverse instead of being ridged with the failing one."""
        singular = np.zeros((3, 3))
        singular[0, 0] = 1.0
        batch = np.stack([spd(3, seed=1), singular, spd(3, seed=2)])
        out = guarded_inv(batch)
        for matrix, inverse in zip(batch, out):
            np.testing.assert_array_equal(inverse, guarded_inv(matrix))
        np.testing.assert_array_equal(
            out[0], np.linalg.inv(batch[0])  # repro: noqa[NUM001] - reference value
        )
        assert np.all(np.isfinite(out[1]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ModelError, match="square"):
            guarded_inv(np.zeros((2, 3)))

    def test_pd_logdet_raises_on_indefinite(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(ModelError, match="precision matrix"):
            pd_logdet(a, "precision matrix")

    def test_pd_logdet_value(self):
        a = np.diag([2.0, 3.0])
        assert pd_logdet(a) == pytest.approx(np.log(6.0))


class TestCholInvLogdet:
    def test_matches_direct_computation(self):
        a = spd(5, seed=21)
        inv, logdet = chol_inv_logdet(a)
        np.testing.assert_allclose(
            inv,
            np.linalg.inv(a),  # repro: noqa[NUM001] - reference value
            atol=1e-10,
        )
        assert logdet == pytest.approx(
            np.linalg.slogdet(a)[1]  # repro: noqa[NUM001] - reference value
        )

    def test_falls_back_off_the_cone(self):
        a = np.diag([1.0, -1.0])  # not PD: Cholesky fails
        inv, logdet = chol_inv_logdet(a)
        assert np.all(np.isfinite(inv))
        assert logdet == pytest.approx(0.0)  # |det| = 1


def test_symmetrize():
    a = np.array([[1.0, 2.0], [4.0, 3.0]])
    out = symmetrize(a)
    np.testing.assert_array_equal(out, out.T)
    np.testing.assert_array_equal(out, np.array([[1.0, 3.0], [3.0, 3.0]]))
