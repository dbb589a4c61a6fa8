"""Kullback–Leibler divergences.

The paper uses KL divergence twice:

* Section III-C.4 — matching each empirical gel setting to its most
  similar topic Gaussian (:func:`point_gaussian_kl` /
  :func:`gaussian_kl`);
* Section V-B — ranking recipes inside a topic by similarity of their
  emulsion concentrations to a studied dish
  (:func:`concentration_kl`, a discrete KL over composition shares).
"""

from __future__ import annotations

import numpy as np

from repro.core.linalg import guarded_inv, guarded_slogdet
from repro.errors import ReproError


def gaussian_kl(
    mean_p: np.ndarray,
    cov_p: np.ndarray,
    mean_q: np.ndarray,
    cov_q: np.ndarray,
) -> float:
    """KL( N(mean_p, cov_p) ‖ N(mean_q, cov_q) ), closed form."""
    mean_p = np.asarray(mean_p, dtype=float)
    mean_q = np.asarray(mean_q, dtype=float)
    cov_p = np.atleast_2d(np.asarray(cov_p, dtype=float))
    cov_q = np.atleast_2d(np.asarray(cov_q, dtype=float))
    d = mean_p.size
    if mean_q.size != d or cov_p.shape != (d, d) or cov_q.shape != (d, d):
        raise ReproError("dimension mismatch in gaussian_kl")
    sign_q, logdet_q = guarded_slogdet(cov_q)
    sign_p, logdet_p = guarded_slogdet(cov_p)
    if sign_q <= 0 or sign_p <= 0:
        raise ReproError("covariances must be positive definite")
    inv_q = guarded_inv(cov_q)
    diff = mean_q - mean_p
    value = 0.5 * (
        np.trace(inv_q @ cov_p)
        + diff @ inv_q @ diff
        - d
        + logdet_q
        - logdet_p
    )
    return float(max(value, 0.0))


def point_gaussian_kl(
    point: np.ndarray,
    mean: np.ndarray,
    cov: np.ndarray,
    point_sigma: float = 0.35,
) -> float:
    """KL from a point-mass-like setting to a topic Gaussian.

    An empirical study setting is a single concentration vector, not a
    distribution; following standard practice we widen it into an
    isotropic Gaussian of standard deviation ``point_sigma`` (in −log
    concentration space) and take KL(setting ‖ topic).
    """
    point = np.asarray(point, dtype=float)
    cov_p = np.eye(point.size) * point_sigma**2
    return gaussian_kl(point, cov_p, mean, cov)


def discrete_kl(p: np.ndarray, q: np.ndarray, eps: float = 1e-9) -> float:
    """KL(p ‖ q) for discrete distributions, with ε-smoothing."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ReproError("shape mismatch in discrete_kl")
    if np.any(p < 0) or np.any(q < 0):
        raise ReproError("probabilities must be non-negative")
    p = p + eps
    q = q + eps
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))  # repro: noqa[NUM002] - p and q are eps-smoothed and renormalised above


def concentration_kl(shares_a: np.ndarray, shares_b: np.ndarray) -> float:
    """Section V-B divergence between two composition-share vectors.

    Shares are mass fractions summing to ≤ 1; the remainder (water phase
    and everything untracked) is appended as an explicit component so
    both vectors are genuine distributions before the discrete KL.
    """
    a = np.asarray(shares_a, dtype=float)
    b = np.asarray(shares_b, dtype=float)
    if a.shape != b.shape:
        raise ReproError("shape mismatch in concentration_kl")
    if np.any(a < 0) or np.any(b < 0):
        raise ReproError("shares must be non-negative")
    rest_a = max(1.0 - a.sum(), 0.0)
    rest_b = max(1.0 - b.sum(), 0.0)
    return discrete_kl(np.append(a, rest_a), np.append(b, rest_b))
